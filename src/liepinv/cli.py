"""Batch command-line frontend.

Reads one JSON problem document per invocation, runs the requested operation,
and writes a JSON output document containing the result, every verification
residual, and the tolerances used.  All numbers are serialized as decimals
with 17 significant digits; complex scalars are two-element arrays [re, im]
and quaternions four-element arrays [a, b, c, d]; matrices are row-major
nested arrays.

Each input matrix is read with one ``np.array`` call and one finiteness check;
a field that is not a regular nest of finite numbers is walked entry by entry,
and a bad entry (a bool, a string, a non-finite number or an integer outside
the float range) is reported as ``field[row][col]``.  ``run_job`` returns
result matrices as float ndarrays: complex ones with a trailing [re, im] axis,
quaternion ones with a trailing axis of 4.  ``to_json`` writes each such array
in one pass, so ``json.loads(to_json(document))`` gives plain JSON lists.

Exit codes: 0 success, 1 input error (a usage error included, such as an
unknown option or an option value out of range), 2 verification or numerical failure
(also when a result is not finite and cannot be written, and on any other
exception, named by its type), 3 orbit without a Moore-Penrose inverse.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import classical, complexes, forms, graded, homform, jordan
from .errors import LiepinvError, NotMoorePenroseOrbit, ZeroElement
from .numcore import QuaternionMatrix, Report, Tolerance, frob

__all__ = ["JobSpec", "run_job", "main", "COMMANDS"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_NO_INVERSE = 3


class InputError(ValueError):
    """Problem document failed to parse or validate."""


# ---------------------------------------------------------------------------
# JSON with 17-significant-digit floats
# ---------------------------------------------------------------------------


def _array_template(shape: tuple[int, ...], indent: int) -> str:
    """%-template for a float array: innermost axis inline, outer axes one item per line."""
    if not shape:
        return "%.17g"
    if shape[0] == 0:
        return "[]"
    if len(shape) == 1:
        return "[" + ", ".join(["%.17g"] * shape[0]) + "]"
    item = "  " * (indent + 1) + _array_template(shape[1:], indent + 1)
    return "[\n" + ",\n".join([item] * shape[0]) + "\n" + "  " * indent + "]"


def to_json(value, indent: int = 0) -> str:
    """Deterministic JSON writer (insertion-ordered keys, 17-digit floats).

    Float arrays are written in one pass, laid out as the nested lists they
    hold would be.  Non-finite numbers raise ValueError.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{inner}{json.dumps(str(k))}: {to_json(v, indent + 1)}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, bool)) or v is None for v in seq)
        if flat:
            return "[" + ", ".join(to_json(v) for v in seq) + "]"
        items = [f"{inner}{to_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError("cannot serialize non-finite number")
        return "%.17g" % (value + 0.0)
    if isinstance(value, np.ndarray):
        if not np.isfinite(value).all():
            raise ValueError("cannot serialize non-finite number")
        return _array_template(value.shape, indent) % tuple((value + 0.0).ravel().tolist())
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


# ---------------------------------------------------------------------------
# field decoding / encoding
# ---------------------------------------------------------------------------
#
# A matrix decoder reads the whole field with one ``np.array`` call when it is
# a regular nest of finite numbers of the expected shape.  Anything else
# (numbers mixed with [re, im] pairs, ragged rows, wrong types, bools,
# non-finite numbers, integers past the float range) is walked entry by entry,
# which builds the same matrix or names the first bad entry.


def _field(doc: dict, path: str, kind=None, default=None, required: bool = False):
    """The field of ``doc`` named by the last part of the dotted ``path``; errors name the path."""
    name = path.rpartition(".")[2]
    if name not in doc:
        if required:
            raise InputError(f"missing required field {path!r}")
        return default
    value = doc[name]
    if kind is not None and not isinstance(value, kind):
        raise InputError(f"field {path!r} has wrong type {type(value).__name__}")
    return value


def _numeric(data) -> np.ndarray | None:
    """The list ``data`` as one array of finite numbers, or None if it is not one."""
    if not isinstance(data, list):
        return None
    try:
        arr = np.array(data)
    except (ValueError, TypeError, OverflowError):
        return None
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        return None
    # numpy reads a bool among numbers as 0 or 1; only then are the entry types looked at
    if ((arr == 0) | (arr == 1)).any():
        entries = data
        for _ in range(arr.ndim - 1):
            entries = chain.from_iterable(entries)
        if bool in set(map(type, entries)):
            return None
    return arr


def _number(value, where: str, expected: str = "a number") -> float:
    """A JSON number as a finite float; a bool, a non-finite number or an integer past
    the float range is an InputError that names ``where``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InputError(f"{where}: expected {expected}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise InputError(f"{where}: number outside the float range") from None
    if not math.isfinite(number):
        raise InputError(f"{where}: expected a finite number, got {value!r}")
    return number


def _decode_scalar(entry, where: str) -> complex:
    if isinstance(entry, list) and len(entry) == 2:
        return complex(_number(entry[0], f"{where}[0]"), _number(entry[1], f"{where}[1]"))
    return complex(_number(entry, where, "a number or [re, im] pair"))


def _rows(data, where: str) -> int:
    """Check that ``data`` is a non-empty list of equally long lists; return the width."""
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise InputError(f"{where}: expected a nested array of rows")
    width = len(data[0])
    for i, row in enumerate(data):
        if len(row) != width:
            raise InputError(f"{where}[{i}]: row has length {len(row)}, expected {width}")
    return width


def decode_complex_matrix(data, where: str) -> np.ndarray:
    arr = _numeric(data)
    if arr is not None and arr.ndim == 2:
        return arr.astype(complex)
    if arr is not None and arr.ndim == 3 and arr.shape[2] == 2:  # [re, im] entries
        return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]
    _rows(data, where)
    return np.array(
        [[_decode_scalar(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)]
         for i, row in enumerate(data)],
        dtype=complex,
    )


def decode_complex_vector(data, where: str) -> np.ndarray:
    if not isinstance(data, list):
        raise InputError(f"{where}: expected an array")
    return np.array(
        [_decode_scalar(v, f"{where}[{i}]") for i, v in enumerate(data)], dtype=complex
    )


def decode_real_vector(data, where: str) -> np.ndarray:
    if not isinstance(data, list):
        raise InputError(f"{where}: expected an array of real numbers")
    return np.array([_number(v, f"{where}[{i}]", "a real number") for i, v in enumerate(data)])


def decode_quaternion_matrix(data, where: str) -> QuaternionMatrix:
    arr = _numeric(data)
    if arr is not None and arr.ndim == 3 and arr.shape[2] == 4:
        return QuaternionMatrix(arr)
    width = _rows(data, where)
    for i, row in enumerate(data):
        for j, q in enumerate(row):
            if not (isinstance(q, list) and len(q) == 4):
                raise InputError(f"{where}[{i}][{j}]: expected [a, b, c, d], got {q!r}")
            for c, v in enumerate(q):
                _number(v, f"{where}[{i}][{j}][{c}]")
    return QuaternionMatrix(np.array(data, dtype=float).reshape(len(data), width, 4))


def encode_complex_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1)


# ---------------------------------------------------------------------------
# job handling
# ---------------------------------------------------------------------------


@dataclass
class JobSpec:
    """One CLI invocation: command, input document, and options."""

    command: str
    input_path: str | None = None
    tol: Tolerance = field(default_factory=Tolerance)


def _load_document(job: JobSpec) -> dict:
    if job.input_path is None:
        return {}
    try:
        text = Path(job.input_path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {job.input_path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{job.input_path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise InputError(f"{job.input_path}: top level must be an object")
    return doc


def _tolerance_doc(tol: Tolerance) -> dict:
    return {"rank_rtol": tol.rank_rtol, "residual_tol": tol.residual_tol}


def _integer(value, where: str, minimum: int | None = None) -> int:
    """``value`` if it is an int (not a bool) of at least ``minimum``, else an InputError."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise InputError(f"{where}: expected an integer{bound}, got {value!r}")
    return value


def _named(where: str, build, *args):
    """``build(*args)``, with an input error it raises re-raised naming the field ``where``."""
    try:
        return build(*args)
    except ValueError as exc:  # the package's input errors; its ArithmeticErrors exit 2
        raise InputError(f"field {where!r}: {exc}") from exc


def _symmetry(doc: dict, where: str) -> str:
    symmetry = _field(doc, where, str, required=True)
    if symmetry not in (forms.SYMMETRIC, forms.SKEW):
        raise InputError(f"field {where!r} must be 'symmetric' or 'skew', got {symmetry!r}")
    return symmetry


def _algebra_from(doc: dict) -> graded.GradedAlgebra:
    kind = _field(doc, "algebra", str, required=True)
    blocks = _field(doc, "blocks", list, required=True)
    blocks = [_integer(d, f"blocks[{i}]", 1) for i, d in enumerate(blocks)]
    return _named("algebra", graded.GradedAlgebra, kind, blocks)


def _graded_element(doc: dict) -> tuple[graded.GradedAlgebra, np.ndarray]:
    alg = _algebra_from(doc)
    e = decode_complex_matrix(_field(doc, "element", list, required=True), "element")
    return alg, _named("element", alg._check_ambient, e)


def _field_matrix(doc: dict) -> tuple[str, np.ndarray | QuaternionMatrix]:
    """The 'matrix' of a document, decoded as its 'field' kind says."""
    kind = _field(doc, "field", str, default="complex")
    if kind not in ("complex", "real", "quaternion"):
        raise InputError(f"field 'field' must be 'complex', 'real' or 'quaternion', got {kind!r}")
    data = _field(doc, "matrix", list, required=True)
    if kind == "quaternion":
        return kind, decode_quaternion_matrix(data, "matrix")
    a = decode_complex_matrix(data, "matrix")
    if kind == "real" and frob(a.imag) > 0.0:
        raise InputError("field 'real' requires a real matrix")
    return kind, a


def _encode_field_matrix(kind: str, x) -> np.ndarray:
    if kind == "quaternion":
        return x.data
    return np.asarray(x.real, dtype=float) if kind == "real" else encode_complex_matrix(x)


def _cmd_pinv(doc: dict, job: JobSpec) -> tuple[dict, Report]:
    kind, a = _field_matrix(doc)
    if kind == "quaternion":
        x = classical.pinv_quaternion(a, job.tol)
        report = classical.verify_penrose(a.embed(), x.embed(), job.tol)
    else:
        x = classical.pinv_real(a.real, job.tol) if kind == "real" else classical.pinv(a, job.tol)
        report = classical.verify_penrose(a, x, job.tol)
    return {"pinv": _encode_field_matrix(kind, x)}, report


def _cmd_form_pinv(doc: dict, job: JobSpec) -> tuple[dict, Report]:
    symmetry = _symmetry(doc, "symmetry")
    gram = decode_complex_matrix(_field(doc, "gram", list, required=True), "gram")
    form = _named("gram", forms.BilinearForm, symmetry, gram)
    out = forms.form_pinv(form, job.tol)
    result = {"symmetry": out.symmetry, "gram": encode_complex_matrix(out.gram)}
    return result, forms.verify_form_pinv(form, out, job.tol)


def _cmd_vector_pinv(doc: dict, job: JobSpec) -> tuple[dict, Report]:
    v = decode_complex_vector(_field(doc, "vector", list, required=True), "vector")
    w = forms.vector_pinv(v, job.tol)
    return {"pinv": encode_complex_matrix(w)}, forms.verify_vector_pinv(v, w, job.tol)


def _cmd_pseudo_pinv(doc: dict, job: JobSpec) -> tuple[dict, Report]:
    signature = _field(doc, "signature", list, required=True)
    if len(signature) != 2:
        raise InputError("field 'signature' must be [n, m]")
    space = forms.PseudoEuclideanSpace(
        *(_integer(s, f"signature[{i}]", 0) for i, s in enumerate(signature))
    )
    v = decode_real_vector(_field(doc, "vector", list, required=True), "vector")
    w = forms.pseudo_euclidean_pinv(space, v, job.tol)
    report = forms.verify_pseudo_euclidean_pinv(space, v, w, job.tol)
    return {"pinv": [float(x) for x in w]}, report


def _cmd_hermitian_pinv(doc: dict, job: JobSpec) -> tuple[dict, Report]:
    kind, a = _field_matrix(doc)
    x = forms.hermitian_pinv(a, job.tol)
    return {"pinv": _encode_field_matrix(kind, x)}, forms.verify_hermitian_pinv(a, x, job.tol)


def _minimality_defect(
    alg: graded.GradedAlgebra, res: graded.CharacteristicResult, tol: Tolerance
) -> float | None:
    """|D^H h| / (1 + |h|_F), D an orthonormal basis of the direction space of the
    characteristics: zero exactly when h is the norm-minimal one; None when h is unique."""
    directions = graded.characteristic_direction_space(alg, res, tol)
    if directions.shape[0] == 0:
        return None
    overlaps = directions.reshape(len(directions), -1).conj() @ res.h.reshape(-1)
    return float(np.linalg.norm(overlaps) / (1.0 + frob(res.h)))


def _characteristic(doc: dict, job: JobSpec):
    alg, e = _graded_element(doc)
    degree = _field(doc, "degree")
    if degree is not None:
        _integer(degree, "degree")
    return alg, graded.minimal_characteristic(alg, e, degree, job.tol)


def _sl2_report(alg, res: graded.CharacteristicResult, job: JobSpec, **verdicts) -> Report:
    """Only the triple residuals gate; the Hermitian and minimality defects are findings."""
    residuals = {
        "triple_residuals": list(res.triple.residuals),
        "hermitian_defect": res.hermitian_defect,
    }
    defect = _minimality_defect(alg, res, job.tol)
    if defect is not None:
        residuals["minimality_defect"] = defect
    residuals.update(verdicts)
    return Report(residuals, res.triple.passes(job.tol))


def _cmd_sl2_complete(doc: dict, job: JobSpec) -> tuple[dict, Report]:
    alg, res = _characteristic(doc, job)
    result = {
        "e": encode_complex_matrix(res.e),
        "h": encode_complex_matrix(res.h),
        "f": encode_complex_matrix(res.f),
        "is_hermitian": res.is_hermitian,
    }
    return result, _sl2_report(alg, res, job)


def _cmd_mp_element(doc: dict, job: JobSpec) -> tuple[dict, Report]:
    alg, res = _characteristic(doc, job)
    if res.levels.blocks == alg.blocks:
        criterion = graded.annihilates_positive_part(alg, res.e, res.h, job.tol)
    else:  # degree 0 splits h on all of g, in this algebra: so/sp on blocks (n,) use another form
        criterion = graded._annihilates_positive_part(alg, res.e, res.levels, job.tol)
    result = {"is_mp_element": res.is_hermitian, "hermitian_defect": res.hermitian_defect}
    return result, _sl2_report(alg, res, job, orbit_criterion=criterion)


def _cmd_orbit_height(doc: dict, job: JobSpec) -> tuple[dict, Report]:
    alg, e = _graded_element(doc)
    return {"height": graded.orbit_height(alg, e, job.tol)}, Report({}, passed=True)


def _cmd_mp_orbit(doc: dict, job: JobSpec) -> tuple[dict, Report]:
    alg, e = _graded_element(doc)
    if not e.any():
        raise ZeroElement("the zero element does not generate a nilpotent orbit")
    height = graded.orbit_height(alg, e, job.tol)
    return {"is_mp_orbit": height == 2, "height": height}, Report({}, passed=True)


def _cmd_homform(doc: dict, job: JobSpec) -> tuple[dict, Report]:
    form_doc = _field(doc, "form", dict, required=True)
    symmetry = _symmetry(form_doc, "form.symmetry")
    gram = decode_complex_matrix(_field(form_doc, "form.gram", list, required=True), "form.gram")
    form = _named("form.gram", forms.BilinearForm, symmetry, gram)
    f_mat = decode_complex_matrix(_field(doc, "map", list, required=True), "map")
    g_mat, label, report = homform.mp_inverse_homform(form, f_mat, job.tol)
    result = {
        "orbit": {"a": label.a, "b": label.b},
        "inverse": encode_complex_matrix(g_mat),
    }
    return result, report


def _cmd_complex_pinv(doc: dict, job: JobSpec) -> tuple[dict, Report]:
    sizes = _field(doc, "sizes", list, required=True)
    sizes = [_integer(d, f"sizes[{i}]", 1) for i, d in enumerate(sizes)]
    if len(sizes) < 2:
        raise InputError(f"field 'sizes' must hold at least two sizes, got {sizes}")
    maps_doc = _field(doc, "maps", list, required=True)
    maps = [decode_complex_matrix(m, f"maps[{i}]") for i, m in enumerate(maps_doc)]
    tup = _named("maps", complexes.ChainTuple, tuple(sizes), tuple(maps))
    out, cert = complexes.complex_pinv(tup, job.tol)
    result = {
        "sizes": [int(d) for d in out.sizes],
        "maps": [encode_complex_matrix(m) for m in out.maps],
        "ranks": [int(r) for r in cert.ranks],
    }
    return result, complexes.verify_complex_pinv(tup, cert, out, job.tol)


def _cmd_jordan_mp(doc: dict, job: JobSpec) -> tuple[dict, Report]:
    alg, a = _graded_element(doc)
    pair = _named("blocks", jordan.JordanPair, alg)
    inv = jordan.standard_cartan_involution(pair)
    x, report = jordan.mp_inverse_jordan(pair, inv, a, job.tol)
    return {"inverse": encode_complex_matrix(x)}, report


def _cmd_report_table(doc: dict, job: JobSpec) -> tuple[dict, Report]:
    rows = [dict(row) for row in homform.CLASSICAL_MAXIMAL_PARABOLIC_TABLE]
    for row in rows:
        row["moore_penrose_roots"] = list(row["moore_penrose_roots"])
        row["abelian_radical_roots"] = list(row["abelian_radical_roots"])
    return {"maximal_parabolic_table": rows}, Report({}, passed=True)


COMMANDS = {
    "pinv": _cmd_pinv,
    "form-pinv": _cmd_form_pinv,
    "vector-pinv": _cmd_vector_pinv,
    "pseudo-pinv": _cmd_pseudo_pinv,
    "hermitian-pinv": _cmd_hermitian_pinv,
    "sl2-complete": _cmd_sl2_complete,
    "mp-element": _cmd_mp_element,
    "orbit-height": _cmd_orbit_height,
    "mp-orbit": _cmd_mp_orbit,
    "homform": _cmd_homform,
    "complex-pinv": _cmd_complex_pinv,
    "jordan-mp": _cmd_jordan_mp,
    "report-table": _cmd_report_table,
}


def run_job(job: JobSpec) -> tuple[int, dict]:
    """Execute one job; returns (exit code, output document)."""
    envelope = {
        "command": job.command,
        "tolerance": _tolerance_doc(job.tol),
    }
    try:
        doc = _load_document(job)
        result, report = COMMANDS[job.command](doc, job)
    except NotMoorePenroseOrbit as exc:
        envelope["error"] = str(exc)
        envelope["orbit"] = {"a": exc.a, "b": exc.b}
        envelope["certificate"] = exc.certificate
        return EXIT_NO_INVERSE, envelope
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        # a numerical failure on a valid input (numpy makes LinAlgError a ValueError,
        # and NoTriple and EmbeddingMismatch are LiepinvErrors): caught before input errors
        envelope["error"] = str(exc)
        return EXIT_VERIFY, envelope
    except (LiepinvError, ValueError) as exc:  # InputError included
        envelope["error"] = str(exc)
        return EXIT_INPUT, envelope
    except Exception as exc:  # noqa: BLE001 - one job's failure must not end a batch
        envelope["error"] = f"{type(exc).__name__}: {exc}"
        return EXIT_VERIFY, envelope
    envelope["result"] = result
    envelope["verification"] = report.residuals
    envelope["passed"] = report.passed
    return EXIT_OK if report.passed else EXIT_VERIFY, envelope


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise InputError (exit 1), not exit 2."""

    def error(self, message: str):
        raise InputError(f"{self.format_usage()}{self.prog}: error: {message}")


def _tolerance_flag(name: str):
    """argparse type of a Tolerance field: a float that Tolerance accepts as ``name``."""
    def parse(text: str) -> float:
        try:
            return getattr(Tolerance(**{name: float(text)}), name)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


def _integer_flag(minimum: int):
    """argparse type of an integer of at least ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liepinv",
        description="Generalized Moore-Penrose inverses in graded classical Lie algebras",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("inputs", nargs="*", default=[], help="input JSON document(s)")
    parser.add_argument("--tol-rank", type=_tolerance_flag("rank_rtol"),
                        default=Tolerance().rank_rtol,
                        help="relative singular value cutoff of every rank decision, "
                             "orbit heights included (default 1e-10)")
    parser.add_argument("--tol-residual", type=_tolerance_flag("residual_tol"),
                        default=Tolerance().residual_tol,
                        help="relative residual acceptance (default 1e-9)")
    parser.add_argument("--output", "-o",
                        help="output file (single input) or directory (batch)")
    parser.add_argument("--jobs", type=_integer_flag(1), default=1,
                        help="run this many inputs concurrently in batch mode")
    return parser


_PARSER = build_parser()  # once per process: its setup is a measurable share of a small job


def _render(code: int, document: dict) -> tuple[int, dict, str]:
    """Serialize one job's output; a result that cannot be written exits 2 with an error."""
    try:
        return code, document, to_json(document) + "\n"
    except ValueError as exc:
        envelope = {key: document[key] for key in ("command", "tolerance")}
        envelope["error"] = f"result cannot be written: {exc}"
        return EXIT_VERIFY, envelope, to_json(envelope) + "\n"


def _write(path: Path, text: str) -> int:
    """Write an output document: EXIT_OK, or EXIT_INPUT after saying on stderr why not."""
    try:
        path.write_text(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def main(argv=None) -> int:
    """Run the command line ``argv`` (default sys.argv[1:]) and return its exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except InputError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except SystemExit as exc:  # --help, after printing it
        return exc.code
    inputs: list[str | None] = list(args.inputs) or [None]
    if inputs == [None] and args.command != "report-table":
        print(f"{args.command}: an input document is required", file=sys.stderr)
        return EXIT_INPUT

    tol = Tolerance(args.tol_rank, args.tol_residual)
    jobs = [JobSpec(args.command, path, tol) for path in inputs]

    if len(jobs) == 1:
        code, document, text = _render(*run_job(jobs[0]))
        if args.output:
            code = max(code, _write(Path(args.output), text))
        else:
            sys.stdout.write(text)
        if code != EXIT_OK and "error" in document:
            print(document["error"], file=sys.stderr)
        return code

    # batch mode: each input gets <stem>.out.json
    out_dir = Path(args.output) if args.output else None
    worst = EXIT_OK
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # each write below then fails and says so too
            print(f"cannot write {out_dir}: {exc}", file=sys.stderr)
            worst = EXIT_INPUT
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(run_job, jobs))
    for job, result in zip(jobs, results):
        code, document, text = _render(*result)
        stem = Path(job.input_path).stem if job.input_path else job.command
        target = (out_dir or Path(job.input_path).parent) / f"{stem}.out.json"
        worst = max(worst, code, _write(target, text))
        if code != EXIT_OK and "error" in document:
            print(f"{job.input_path}: {document['error']}", file=sys.stderr)
    return worst


if __name__ == "__main__":
    sys.exit(main())
