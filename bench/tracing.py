"""Per-layer spans around the public functions of the program, from outside it.

``Tracer.install`` replaces the public functions of the layer modules (and
the few methods that carry the work: ``GradedAlgebra.__init__`` and ``ad``,
the constructors of ``JordanPair``, ``BilinearForm`` and ``ChainTuple``) with
wrappers.  A function imported with ``from .numcore import ...`` is replaced
in every module namespace that holds it, so calls between layers are seen.
``uninstall`` puts every original back.

Each timed call records a span ``[name, job, start, end, parent]`` in memory.
A layer's self time is the time in its spans minus the time in their child
spans; the inclusive time of a function counts only its outermost span.
The hot, tiny functions ``as_matrix``, ``bracket`` and ``operator_matrix``
are counted, not timed.  The per-scalar helpers ``frob`` and
``encode_complex`` are not wrapped at all (tens of thousands of calls per
job); their time stays in their caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "numcore", "classical", "forms", "homform", "complexes", "graded", "jordan")
COUNTED = {("numcore", "as_matrix"), ("graded", "bracket"), ("jordan", "JordanPair.operator_matrix")}
UNWRAPPED = {("numcore", "frob"), ("cli", "encode_complex")}
METHODS = {
    "graded": ("GradedAlgebra.__init__", "GradedAlgebra.ad"),
    "jordan": ("JordanPair.__init__", "JordanPair.operator_matrix"),
    "forms": ("BilinearForm.__post_init__",),
    "complexes": ("ChainTuple.__post_init__",),
}
# Spans whose time is reported together under one metric name.
GROUPS = {
    "cli.decode": ("cli.decode_complex_matrix", "cli.decode_complex_vector",
                   "cli.decode_real_vector", "cli.decode_quaternion_matrix", "cli._load_document"),
    "cli.encode": ("cli.encode_complex_matrix", "cli.encode_complex_vector",
                   "cli.encode_real_matrix", "cli.encode_quaternion_matrix"),
}
EXTRA = {"cli": ("_load_document",)}
RECURSIVE = {"cli.to_json"}


def _metric_name(layer: str, attr: str) -> str:
    """graded.GradedAlgebra.__init__ -> graded.GradedAlgebra; JordanPair.ad -> jordan.ad."""
    cls, _, meth = attr.partition(".")
    if not meth:
        return f"{layer}.{attr}"
    return f"{layer}.{cls}" if meth in ("__init__", "__post_init__") else f"{layer}.{meth}"


class Tracer:
    """Installs wrappers, keeps spans and counts in memory, computes per-job figures."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name: str, fn, namespace=None, attr: str | None = None):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([fid, self.job, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()

        if name in RECURSIVE:
            # Recursive calls resolve the module global at call time; while the
            # outermost call runs, that global is the original, so nested calls
            # cost nothing and only the outermost call is a span.
            timed = wrapper

            def wrapper(*args, **kwargs):  # noqa: F811
                setattr(namespace, attr, fn)
                try:
                    return timed(*args, **kwargs)
                finally:
                    setattr(namespace, attr, wrapper)

        return functools.wraps(fn)(wrapper)

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    # -- install / uninstall -------------------------------------------------------

    def _targets(self):
        """(layer, attr, owner, original) for every function or method to wrap."""
        for layer in LAYERS:
            mod = importlib.import_module(f"liepinv.{layer}")
            names = [n for n in vars(mod) if not n.startswith("_")] + list(EXTRA.get(layer, ()))
            for attr in names:
                obj = vars(mod)[attr]
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (layer, attr) not in UNWRAPPED):
                    yield layer, attr, mod, obj
            for dotted in METHODS.get(layer, ()):
                cls_name, meth = dotted.split(".")
                cls = vars(mod)[cls_name]
                yield layer, dotted, cls, vars(cls)[meth]

    def install(self) -> None:
        modules = [importlib.import_module("liepinv")] + [
            importlib.import_module(f"liepinv.{m}") for m in ("errors",) + LAYERS
        ]
        for layer, attr, owner, original in list(self._targets()):
            name = _metric_name(layer, attr)
            if (layer, attr) in COUNTED:
                wrapped = self._counted(name, original)
            else:
                wrapped = self._timed(name, original, owner, attr)
            if inspect.isclass(owner):
                self._undo.append((owner, attr.split(".")[1], original))
                setattr(owner, attr.split(".")[1], wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- figures -------------------------------------------------------------------

    def summary(self, jobs: int, factors) -> dict[str, float]:
        """Per-job figures: ``<name>.ms``, ``<name>.calls``, ``<layer>.self_ms``.

        ``factors[job]`` scales the span times of that job (speed normalization).
        """
        names, spans = self.names, self.spans
        scale = [factors[span[1]] for span in spans]
        child_time = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span[4] >= 0:
                child_time[span[4]] += (span[3] - span[2]) * scale[i]
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int, self.counts)
        self_ms: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for i, (fid, _job, start, end, parent) in enumerate(spans):
            name = names[fid]
            calls[name] += 1
            self_ms[name.split(".")[0]] += (end - start) * scale[i] - child_time[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != fid:
                ancestor = spans[ancestor][4]
            if ancestor < 0:
                inclusive[name] += (end - start) * scale[i]
        for group, members in GROUPS.items():
            inclusive[group] = sum(inclusive.pop(m, 0.0) for m in members)
        out = {f"{n}.ms": 1e3 * t / jobs for n, t in inclusive.items()}
        out.update({f"{n}.calls": c / jobs for n, c in calls.items()})
        out.update({f"{layer}.self_ms": 1e3 * t / jobs for layer, t in self_ms.items()})
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: a header with the names, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "job", "start", "end", "parent"]}) + "\n")
            for fid, job, start, end, parent in self.spans:
                fh.write(json.dumps([fid, job, start, end, parent]) + "\n")
