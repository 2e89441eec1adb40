import dataclasses
import importlib
import json
import re
import shutil
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from liepinv.cli import (
    EXIT_INPUT,
    EXIT_NO_INVERSE,
    EXIT_OK,
    EXIT_VERIFY,
    COMMANDS,
    JobSpec,
    decode_complex_matrix,
    encode_complex_matrix,
    main,
    run_job,
    to_json,
)
from liepinv import classical, cli, forms, graded, homform, jordan
from liepinv.classical import verify_penrose
from liepinv.graded import GradedAlgebra, orbit_height
from liepinv.numcore import QuaternionMatrix, Report, Tolerance, frob
import regen_goldens
from helpers import (
    compare_documents,
    ill_conditioned_sp8_conjugate,
    quaternion_adjoint,
    random_complex,
    random_matrix_with_rank,
    random_quaternion_matrix,
    reference_format_float,
    reference_to_json,
    standard_form,
)

GOLDEN = Path(__file__).parent / "golden"
SCHEMA = json.loads((Path(__file__).parents[1] / "docs" / "schema.json").read_text())


def golden_job(command: str) -> JobSpec:
    path = GOLDEN / f"{command}.in.json"
    return JobSpec(command=command, input_path=str(path) if path.exists() else None)


class TestGoldenFiles:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_golden_output(self, command):
        out_path = GOLDEN / f"{command}.out.json"
        assert out_path.exists(), f"missing golden output for {command}"
        code, document = run_job(golden_job(command))
        assert code == EXIT_OK
        text = to_json(document) + "\n"
        compare_documents(json.loads(text), json.loads(out_path.read_text()))
        # byte-stable on one platform
        assert text == out_path.read_text()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_deterministic_reruns(self, command):
        first = run_job(golden_job(command))
        second = run_job(golden_job(command))
        assert first[0] == second[0]
        assert to_json(first[1]) == to_json(second[1])


    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
    def test_matches_schema(self, path):
        command, kind = path.name.split(".")[:2]
        definition = f"input.{command}" if kind == "in" else "output"
        validate(json.loads(path.read_text()), definition)

    # doc is written as JSON, a str as it is, and None leaves the input file unwritten;
    # the error must contain ``named``, in which {path} is the input file
    @pytest.mark.parametrize("command, doc, code, named", [
        ("pinv", {"matrix": [[True]]}, EXIT_INPUT, "matrix[0][0]"),
        # the inverse of the least subnormal is beyond the float range: not writable
        ("pinv", {"field": "complex", "matrix": [[5e-324]]}, EXIT_VERIFY, "non-finite"),
        ("homform", {"form": {"symmetry": "symmetric", "gram": np.eye(4).tolist()},
                     "map": encode_complex_matrix(homform.generic_orbit_map(
                         standard_form("symmetric", 4), 2, 1, 3)).tolist()}, EXIT_NO_INVERSE,
         "not Moore-Penrose"),
        ("pinv", None, EXIT_INPUT, "cannot read {path}: "),
        ("pinv", "[[1, 2]]", EXIT_INPUT, "{path}: top level must be an object"),
        ("complex-pinv", {"sizes": [1, 2], "maps": [5]}, EXIT_INPUT,
         "maps[0]: expected a nested array"),
        ("complex-pinv", {"sizes": [2], "maps": []}, EXIT_INPUT, "sizes"),
        ("pinv", {"field": "octonion", "matrix": [[1]]}, EXIT_INPUT,
         "field 'field' must be 'complex', 'real' or 'quaternion', got 'octonion'"),
        ("form-pinv", {"symmetry": "skew", "gram": [[0, 1]]}, EXIT_INPUT,
         "field 'gram': Gram matrix must be square"),
        ("form-pinv", {"symmetry": "skew", "gram": [[1, 0], [0, 1]]}, EXIT_INPUT,
         "field 'gram': Gram matrix is not skew"),
        ("homform", {"form": {"symmetry": "skew", "gram": [[0, 1]]}, "map": [[1]]}, EXIT_INPUT,
         "field 'form.gram': Gram matrix must be square"),
        ("homform", {"form": {"symmetry": "skew", "gram": [[1, 0], [0, 1]]}, "map": [[1], [0]]},
         EXIT_INPUT, "field 'form.gram': Gram matrix is not skew"),
        ("mp-orbit", {"algebra": "sl", "blocks": [2, 2], "element": [[1, 0, 0, 0]] * 2},
         EXIT_INPUT, "field 'element': expected an ambient 4x4 matrix, got (2, 4)"),
        ("complex-pinv", {"sizes": [2, 2], "maps": [[[1, 0]]]}, EXIT_INPUT,
         "field 'maps': map 1 must be (2, 2), got (1, 2)"),
        ("complex-pinv", {"sizes": [1, 1, 1], "maps": [[[1]]]}, EXIT_INPUT,
         "field 'maps': 3 sizes require 2 maps"),
        ("jordan-mp", {"algebra": "sl", "blocks": [1, 1, 1], "element": [[0] * 3] * 3},
         EXIT_INPUT, "field 'blocks': GradedAlgebra("),
    ], ids=["input", "verify", "no-inverse", "unreadable", "top-level-array", "map-number",
            "one-size", "unknown-field", "gram-square", "gram-skew", "form-gram-square",
            "form-gram-skew", "element-shape", "map-shape", "map-count", "jordan-blocks"])
    def test_error_documents_match_schema(self, tmp_path, command, doc, code, named):
        path, out = tmp_path / "doc.json", tmp_path / "out.json"
        if doc is not None:
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert main([command, str(path), "--output", str(out)]) == code
        document = json.loads(out.read_text())
        assert "error" in document and "result" not in document
        assert named.format(path=path) in document["error"], document["error"]
        validate(document, "output")

    @pytest.mark.parametrize("command, shape", [("pinv", (2, 3)), ("hermitian-pinv", (3, 3))])
    def test_quaternion_jobs(self, tmp_path, command, shape):
        q = random_quaternion_matrix(np.random.default_rng(23), *shape)
        if command == "pinv":
            want = classical.pinv_quaternion(q)
        else:
            q = QuaternionMatrix(q.data + quaternion_adjoint(q).data)
            want = forms.hermitian_pinv(q)
        path, out = tmp_path / "doc.json", tmp_path / "out.json"
        path.write_text(json.dumps({"field": "quaternion", "matrix": q.data.tolist()}))
        assert main([command, str(path), "--output", str(out)]) == EXIT_OK
        document = json.loads(out.read_text())
        assert document["passed"], document
        got = np.array(document["result"]["pinv"])
        assert got.shape == (shape[1], shape[0], 4)
        assert frob(got - want.data) <= 1e-12
        validate(document, "output")

    def test_unwritable_result_exits_two(self, monkeypatch, tmp_path):
        monkeypatch.setitem(COMMANDS, "pinv", lambda doc, job: (
            {"pinv": np.array([[np.inf]])}, Report({}, passed=True)))
        out = tmp_path / "out.json"
        assert main(["pinv", str(GOLDEN / "pinv.in.json"), "--output", str(out)]) == EXIT_VERIFY
        document = json.loads(out.read_text())
        assert list(document) == ["command", "tolerance", "error"]
        assert document["error"].startswith("result cannot be written: ")
        validate(document, "output")


def validate(document: dict, definition: str) -> None:
    """Check ``document`` against the definition of that name in docs/schema.json."""
    schema = {**SCHEMA, "$ref": f"#/$defs/{definition}"}
    jsonschema.Draft202012Validator(schema).validate(document)


# Verifier calls per job on the golden inputs.  Each check runs once; complex-pinv
# certifies its input, and its verifier checks the output's compositions itself.
VERIFIERS = {
    "classical": ("verify_penrose",),
    "forms": ("verify_form_pinv", "verify_vector_pinv", "verify_pseudo_euclidean_pinv",
              "verify_hermitian_pinv"),
    "homform": ("classify_orbit", "verify_homform"),
    "complexes": ("certify_complex", "verify_complex_pinv"),
    "jordan": ("verify_jordan_mp", "_pair_report"),
}
VERIFIER_CALLS = {
    "pinv": {"verify_penrose": 1},
    "form-pinv": {"verify_form_pinv": 1, "verify_penrose": 1},
    "vector-pinv": {"verify_vector_pinv": 1},
    "pseudo-pinv": {"verify_pseudo_euclidean_pinv": 1},
    "hermitian-pinv": {"verify_hermitian_pinv": 1},
    "homform": {"classify_orbit": 1, "verify_homform": 1},
    "complex-pinv": {"certify_complex": 1, "verify_complex_pinv": 1},
    "jordan-mp": {"_pair_report": 1},
}


def count_calls(monkeypatch, functions: dict) -> dict:
    """Count calls of each named function, wherever a module holds it, or of a Class.method."""
    counts = {}
    modules = [importlib.import_module(f"liepinv.{m}")
               for m in ("cli", "classical", "forms", "graded", "homform", "complexes",
                         "jordan", "numcore")] + [importlib.import_module("liepinv")]
    for layer, names in functions.items():
        module = importlib.import_module(f"liepinv.{layer}")
        for name in names:
            cls_name, _, attr = name.rpartition(".")
            owner = getattr(module, cls_name) if cls_name else module
            original = getattr(owner, attr)

            def wrapper(*args, _name=name, _fn=original, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            if cls_name:
                monkeypatch.setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, wrapper)
    return counts


class TestVerifyOnce:
    @pytest.fixture
    def counts(self, monkeypatch):
        return count_calls(monkeypatch, VERIFIERS)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_each_check_runs_once(self, counts, command):
        code, _ = run_job(golden_job(command))
        assert code == EXIT_OK
        assert counts == VERIFIER_CALLS.get(command, {})


class TestJordanMpIsClosedForm:
    """jordan-mp, and sl2-complete on a short grading, take the closed form; the sl2
    engine is entered only outside short gradings."""

    ENGINE = {"graded": ("minimal_characteristic", "_minimal_triple")}

    @pytest.fixture
    def counts(self, monkeypatch):
        return count_calls(monkeypatch, self.ENGINE)

    def test_golden_input(self, counts):
        assert run_job(golden_job("jordan-mp"))[0] == EXIT_OK
        assert counts == {}

    def test_sl44_element(self, counts, tmp_path):
        alg = GradedAlgebra("sl", (4, 4))
        e = alg.random_element(1, np.random.default_rng(40))
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"algebra": "sl", "blocks": [4, 4],
                                    "element": encode_complex_matrix(e).tolist()}))
        assert run_job(JobSpec("jordan-mp", str(path)))[0] == EXIT_OK
        assert counts == {}

    def test_sl2_complete_on_a_short_grading(self, counts):  # sl(2,1)
        assert run_job(golden_job("sl2-complete"))[0] == EXIT_OK
        assert counts == {"minimal_characteristic": 1}

    def test_mp_element_outside_short_gradings_enters_the_engine(self, counts):  # sl(1,1,1)
        assert run_job(golden_job("mp-element"))[0] == EXIT_OK
        assert counts == {"minimal_characteristic": 1, "_minimal_triple": 1}

    @pytest.mark.parametrize("command", ["sl2-complete", "mp-element"])
    def test_short_job_builds_the_triple_once(self, monkeypatch, tmp_path, command):
        # the direction space reads the triple minimal_characteristic completed
        counts = count_calls(monkeypatch, {"graded": ("_block_triple",)})
        alg = GradedAlgebra("sl", (4, 4))
        e = alg.random_element(1, np.random.default_rng(41))
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"algebra": "sl", "blocks": [4, 4],
                                    "element": encode_complex_matrix(e).tolist()}))
        assert run_job(JobSpec(command, str(path)))[0] == EXIT_OK
        assert counts == {"_block_triple": 1}


class TestJordanMpChecksOnce:
    """A jordan-mp job checks its element once and decides (**) on [a, x] itself: the
    report takes the unit pair the closed form was found on, and no coordinate operator,
    ad table or Gram matrix is built."""

    SPIED = {"graded": ("GradedAlgebra._unit_member", "_IndexBasis.ad"),
             "jordan": ("JordanPair.operator_matrix", "_pair_report")}

    @pytest.mark.parametrize("kind,blocks", [("sl", (4, 4)), ("sp", (3, 3)), ("so", (1, 3, 1))])
    def test_one_membership_check_and_no_operator(self, monkeypatch, tmp_path, kind, blocks):
        alg = GradedAlgebra(kind, blocks)
        e = alg.random_element(1, np.random.default_rng(42))
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"algebra": kind, "blocks": list(blocks),
                                    "element": encode_complex_matrix(e).tolist()}))
        counts = count_calls(monkeypatch, self.SPIED)
        assert run_job(JobSpec("jordan-mp", str(path)))[0] == EXIT_OK
        assert counts == {"GradedAlgebra._unit_member": 1, "_pair_report": 1}
        assert not hasattr(jordan, "gram_matrix")  # the operator oracle's, in the tests


class TestOneSplitPerJob:
    """h is split into its levels once, where it is made: sl2-complete and mp-element split
    it once, and the criterion of mp-element reads that split."""

    @staticmethod
    def element(kind, blocks):
        """A nilpotent: a random element of degree 1, or a non-normal regular one of sl_n."""
        alg = GradedAlgebra(kind, blocks)
        rng = np.random.default_rng(42)
        if len(blocks) > 1:
            return alg.random_element(1, rng)
        g = scipy.linalg.expm(0.5 * alg.random_element(None, rng))
        return g @ np.diag(np.ones(alg.ambient_dim - 1), 1) @ np.linalg.inv(g)

    @pytest.mark.parametrize("kind, blocks, degree", [
        ("sl", (4, 4), None),  # the closed form
        ("sl", (4, 4, 4), None),  # the engine
        ("sp", (2, 2, 2), None),
        ("sl", (6,), None),
        ("sl", (3, 3), 0),  # the ungraded problem
    ], ids=["sl44-short", "sl444", "sp222", "sl6-ungraded", "sl33-degree-0"])
    @pytest.mark.parametrize("command", ["sl2-complete", "mp-element"])
    def test_levels_calls_per_job(self, monkeypatch, tmp_path, kind, blocks, degree, command):
        doc = {"algebra": kind, "blocks": list(blocks),
               "element": encode_complex_matrix(self.element(kind, blocks)).tolist()}
        if degree is not None:
            doc["degree"] = degree
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        counts = count_calls(monkeypatch, {"graded": ("_levels",)})
        code, document = run_job(JobSpec(command, str(path)))
        assert code == EXIT_OK, document
        assert counts == {"_levels": 1}


class TestRegenGoldens:
    """tests/regen_goldens.py rewrites only moved files, and nothing past the drift gate."""

    @pytest.fixture
    def golden(self, tmp_path):
        shutil.copytree(GOLDEN, tmp_path / "golden")
        return tmp_path / "golden"

    @staticmethod
    def nudge(path, delta):
        document = json.loads(path.read_text())
        document["verification"]["recover_a"] += delta
        path.write_text(to_json(document) + "\n")

    def test_unchanged_goldens_are_not_rewritten(self, golden):
        assert regen_goldens.regenerate(golden) == []

    def test_rewrites_a_file_within_the_drift_bound(self, golden):
        self.nudge(golden / "jordan-mp.out.json", 1e-14)
        assert regen_goldens.regenerate(golden) == ["jordan-mp.out.json"]
        assert (golden / "jordan-mp.out.json").read_text() == (GOLDEN / "jordan-mp.out.json").read_text()

    def test_refuses_to_write_past_the_drift_bound(self, golden):
        self.nudge(golden / "pinv.out.json", 1e-14)
        self.nudge(golden / "jordan-mp.out.json", 1e-9)
        before = {p.name: p.read_text() for p in golden.iterdir()}
        with pytest.raises(regen_goldens.DriftError, match="jordan-mp.out.json"):
            regen_goldens.regenerate(golden)
        assert {p.name: p.read_text() for p in golden.iterdir()} == before


class TestCheckOnce:
    """A job checks each argument where it enters, and decides each degree once."""

    COUNTED = {"numcore": ("as_matrix",),
               "graded": ("GradedAlgebra.homogeneous_degree", "GradedAlgebra._degree")}

    def test_golden_input(self, monkeypatch):
        counts = count_calls(monkeypatch, self.COUNTED)
        assert run_job(golden_job("jordan-mp"))[0] == EXIT_OK
        # before checks moved to the entry points: 11 degree decisions, 107 as_matrix calls
        assert counts.get("GradedAlgebra.homogeneous_degree", 0) <= 4
        assert counts["GradedAlgebra._degree"] <= 4  # every decision, public or internal
        assert counts["as_matrix"] <= 25

    @pytest.mark.parametrize("command", ["vector-pinv", "pseudo-pinv"])
    def test_vector_verifiers(self, monkeypatch, command):
        counts = count_calls(monkeypatch, {"numcore": ("as_matrix",),
                                           "graded": ("bracket", "Sl2Triple.from_elements")})
        assert run_job(golden_job(command))[0] == EXIT_OK
        # before the shared sl2 certificate: 5 as_matrix, 1 bracket, 1 from_elements
        assert counts == {}

    def test_complex_pinv(self, monkeypatch):
        counts = count_calls(monkeypatch, {"numcore": ("as_matrix", "rank_decomposition")})
        assert run_job(golden_job("complex-pinv"))[0] == EXIT_OK
        # before: 19 as_matrix and 6 rank_decomposition, the output's ranks decided again
        assert counts["as_matrix"] <= 6 and counts["rank_decomposition"] <= 4


class TestOneDecomposition:
    """A Moore-Penrose construction takes one SVD, and a form's rank is decided once."""

    # before pinv took its coimage from the same SVD: pinv 2, form-pinv 2, homform 7; homform
    # went 3 -> 4 when classify_orbit ranked its restricted form through rank_decomposition
    # instead of a bare SVD, so the number of SVDs stayed the same
    @pytest.mark.parametrize("command, most", [("pinv", 1), ("form-pinv", 1), ("homform", 4)])
    def test_golden_input(self, monkeypatch, command, most):
        counts = count_calls(monkeypatch, {"numcore": ("rank_decomposition",)})
        assert run_job(golden_job(command))[0] == EXIT_OK
        assert 1 <= counts["rank_decomposition"] <= most

    def test_homform_b_zero_map(self, monkeypatch, tmp_path):
        # before F+ and the image basis came from one SVD: 4 (orbit, form rank, F+, image),
        # plus the restricted form's rank, then a bare SVD and now a rank_decomposition
        doc = tmp_path / "map.json"
        doc.write_text(json.dumps({"form": {"symmetry": "symmetric", "gram": np.eye(3).tolist()},
                                   "map": [[1, 0], [0, 2], [0, 0]]}))
        counts = count_calls(monkeypatch, {"numcore": ("rank_decomposition",),
                                           "homform": ("classify_orbit",)})
        code, document = run_job(JobSpec("homform", str(doc)))
        assert code == EXIT_OK and document["result"]["orbit"] == {"a": 2, "b": 0}
        assert counts == {"rank_decomposition": 4, "classify_orbit": 1}


class TestExceptionFirewall:
    """An unexpected exception exits 2 and names its type; a batch writes every output."""

    @staticmethod
    def explode_on_bad(monkeypatch, command):
        original = COMMANDS[command]

        def command_fn(doc, job):
            if Path(job.input_path).stem == "bad":
                raise MemoryError("Unable to allocate 7.28 TiB")
            return original(doc, job)

        monkeypatch.setitem(COMMANDS, command, command_fn)

    def test_single_job(self, monkeypatch, tmp_path):
        self.explode_on_bad(monkeypatch, "pinv")
        bad = tmp_path / "bad.json"
        shutil.copy(GOLDEN / "pinv.in.json", bad)
        code, document = run_job(JobSpec("pinv", str(bad)))
        assert code == EXIT_VERIFY
        assert document["error"] == "MemoryError: Unable to allocate 7.28 TiB"
        out = tmp_path / "bad.out.json"
        assert main(["pinv", str(bad), "--output", str(out)]) == EXIT_VERIFY
        assert json.loads(out.read_text())["error"].startswith("MemoryError")

    def test_batch(self, monkeypatch, tmp_path):
        self.explode_on_bad(monkeypatch, "homform")
        paths = [tmp_path / "bad.json", tmp_path / "good.json"]
        for path in paths:
            shutil.copy(GOLDEN / "homform.in.json", path)
        out_dir = tmp_path / "out"
        code = main(["homform", *map(str, paths), "--output", str(out_dir)])
        assert code == EXIT_VERIFY
        bad = json.loads((out_dir / "bad.out.json").read_text())
        assert bad["error"] == "MemoryError: Unable to allocate 7.28 TiB"
        want = (GOLDEN / "homform.out.json").read_text()
        assert (out_dir / "good.out.json").read_text() == want


class TestUnwritableOutput:
    """An output that cannot be written exits at least 1 and says why on stderr, as an
    unreadable input does; a batch goes on and writes every other output."""

    def test_single_job_into_a_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.json"
        assert main(["pinv", str(GOLDEN / "pinv.in.json"), "-o", str(target)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"cannot write {target}: ")
        assert not target.exists()

    def test_single_job_keeps_a_worse_code(self, tmp_path, capsys):
        # an orbit with no Moore-Penrose inverse exits 3, written or not
        doc = tmp_path / "doc.json"
        gram = [[[1, 0] if i == j else [0, 0] for j in range(3)] for i in range(3)]
        doc.write_text(json.dumps({
            "form": {"symmetry": "symmetric", "gram": gram},
            "map": [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]]}))
        target = tmp_path / "missing" / "out.json"
        assert main(["homform", str(doc), "-o", str(target)]) == EXIT_NO_INVERSE
        assert capsys.readouterr().err.startswith(f"cannot write {target}: ")

    def test_batch_with_a_directory_in_the_way(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            shutil.copy(GOLDEN / "pinv.in.json", path)
        out_dir = tmp_path / "out"
        (out_dir / "a.out.json").mkdir(parents=True)
        code = main(["pinv", *map(str, paths), "-o", str(out_dir)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"cannot write {out_dir / 'a.out.json'}: ")
        assert (out_dir / "b.out.json").read_text() == (GOLDEN / "pinv.out.json").read_text()

    def test_batch_into_a_file(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            shutil.copy(GOLDEN / "pinv.in.json", path)
        out_dir = tmp_path / "out"
        out_dir.write_text("not a directory")
        assert main(["pinv", *map(str, paths), "-o", str(out_dir)]) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[0] for line in err] == [
            f"cannot write {out_dir}", f"cannot write {out_dir / 'a.out.json'}",
            f"cannot write {out_dir / 'b.out.json'}"]
        assert out_dir.read_text() == "not a directory"

    def test_batch_outputs_that_collide(self, tmp_path, capsys):
        # d1/doc.json and d2/doc.json both map to out/doc.out.json: the first input keeps
        # it, the second exits 1 and says whose output it is, and b.json is still written
        paths = [tmp_path / "d1" / "doc.json", tmp_path / "d2" / "doc.json", tmp_path / "b.json"]
        for path in paths:
            path.parent.mkdir(exist_ok=True)
        shutil.copy(GOLDEN / "pinv.in.json", paths[0])
        paths[1].write_text(json.dumps({"field": "complex", "matrix": [[[3, 0]], [[4, 0]]]}))
        shutil.copy(GOLDEN / "pinv.in.json", paths[2])
        out_dir = tmp_path / "out"
        assert main(["pinv", *map(str, paths), "-o", str(out_dir)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"cannot write {out_dir / 'doc.out.json'}: it is the output of {paths[0]}\n")
        want = (GOLDEN / "pinv.out.json").read_text()
        assert (out_dir / "doc.out.json").read_text() == want
        assert (out_dir / "b.out.json").read_text() == want

    def test_batch_outputs_that_collide_under_another_spelling(self, tmp_path, capsys):
        # d/a.json and d/../d/a.json are one file: the second spelling of its output is
        # refused, so the input is not overwritten by its own answer twice over
        first = tmp_path / "d" / "a.json"
        first.parent.mkdir()
        shutil.copy(GOLDEN / "pinv.in.json", first)
        second = tmp_path / "d" / ".." / "d" / "a.json"
        assert main(["pinv", str(first), str(second)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"cannot write {second.parent / 'a.out.json'}: it is the output of {first}\n")
        assert (first.parent / "a.out.json").read_text() == (GOLDEN / "pinv.out.json").read_text()


def command_ids(cases) -> list[str]:
    """Each case named by its command; from a command's second case on, with a counter."""
    commands = [command for command, _ in cases]
    return [c if c not in commands[:i] else f"{c}-{commands[:i].count(c) + 1}"
            for i, c in enumerate(commands)]


class TestBoundaryFuzz:
    """Small documents, malformed or not, for every command: the CLI answers each with an
    exit code and a JSON output, and none ends in the per-job exception firewall."""

    # the firewall writes "<ExceptionType>: message" (e.g. "_ArrayMemoryError: ..."); an
    # input error starts with a lower-case field name
    FIREWALL = re.compile(r"^_?[A-Z][A-Za-z]*: ")
    # entries near 1e308, where [h, e] - 2e, x + tau(x), the degree cut or a pair equation
    # overflows unless its argument is at unit scale; each passes
    UNIT_SCALE = [
        ("vector-pinv", {"vector": [1e308, 1.6, -0.35]}),
        ("pseudo-pinv", {"signature": [2, 1], "vector": [1e308, 1.6, -0.35]}),
        ("complex-pinv", {"sizes": [2, 2], "maps": [[[1e308, 0], [0, 1]]]}),
        *((command, {"algebra": "sl", "blocks": [2, 2], "degree": 1,
                     "element": [[0, 0, 1e308, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]})
          for command in ("sl2-complete", "mp-element", "jordan-mp")),
        *((command, {"algebra": "so", "blocks": [1, 2, 1],
                     "element": [[0, 1, 1e308, 0], [0, 0, 0, -1], [0, 0, 0, -1e308], [0, 0, 0, 0]]})
          for command in ("mp-orbit", "jordan-mp")),
        ("mp-element", {"algebra": "sl", "blocks": [2, 3],
                        "element": [[0, 0, 1e308, 1e308, 0], [0, 0, 0, 1e308, 1e308],
                                    [0] * 5, [0] * 5, [0] * 5]}),
        ("homform", {"form": {"symmetry": "symmetric", "gram": [[1, 0], [0, 1]]},
                     "map": [[1e308], [0]]}),
    ]
    # a non-member, a matrix neither Hermitian nor skew and a tuple that is not a complex, at
    # entries near 1e-10, where a check against 1e-9 * (1 + |x|) passes; each is an input error
    SMALL_SCALE = [
        ("orbit-height", {"algebra": "so", "blocks": [2, 2],
                          "element": [[0, 0, 1e-10, 0], [0] * 4, [0] * 4, [0] * 4]}),
        ("hermitian-pinv", {"matrix": [[0, 1e-10], [0, 0]]}),
        ("complex-pinv", {"sizes": [2, 2, 2], "maps": [[[1e-5, 0], [0, 1e-5]]] * 2}),
    ]

    @classmethod
    def run(cls, command, doc) -> tuple[int, dict]:
        with tempfile.TemporaryDirectory() as scratch:
            doc_path, out_path = Path(scratch, "doc.json"), Path(scratch, "doc.out.json")
            doc_path.write_text(json.dumps(doc))
            with np.errstate(over="ignore", invalid="ignore"):
                code = main([command, str(doc_path), "--output", str(out_path)])
            output = json.loads(out_path.read_text())
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_VERIFY, EXIT_NO_INVERSE)
        assert not cls.FIREWALL.match(output.get("error", "")), output["error"]
        return code, output

    @pytest.mark.parametrize("command, doc", UNIT_SCALE, ids=command_ids(UNIT_SCALE))
    def test_unit_scale_documents_pass(self, command, doc):
        code, output = self.run(command, doc)
        assert code == EXIT_OK and output["passed"], output

    @pytest.mark.parametrize("command, doc", SMALL_SCALE, ids=command_ids(SMALL_SCALE))
    def test_small_scale_violations_are_input_errors(self, command, doc):
        code, output = self.run(command, doc)
        assert code == EXIT_INPUT, output

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(job=st.data())
    def test_documents(self, job):
        self.run(*job.draw(_fuzz_documents()))


NUMBER = st.sampled_from([0, 0, 0, 1, -1, 0.5, -2.5, 1e-300, 1e308, -1e308])
JUNK = st.sampled_from([None, True, False, "x", {}, [], [[]], [1, [2]], 3])


def _entries(rows, cols, entry=NUMBER):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def _matrix(entry=st.one_of(NUMBER, st.lists(NUMBER, min_size=2, max_size=2))):
    """A regular matrix up to 5 x 5, a ragged one, or junk."""
    regular = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(lambda s: _entries(*s, entry))
    return st.one_of(regular, regular, st.lists(st.lists(entry, max_size=5), max_size=5), JUNK)


@st.composite
def _mirrored(draw, sign=1):
    """A real square matrix with m[j][i] = sign * m[i][j]."""
    n = draw(st.integers(1, 5))
    m = draw(_entries(n, n))
    return [[m[i][j] if i <= j else sign * m[j][i] for j in range(n)] for i in range(n)]


@st.composite
def _graded_doc(draw):
    kind = draw(st.sampled_from(["sl", "sl", "so", "sp"]))
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shapes = [[a, b], [a, b, b], [a]] if kind == "sl" else [[a, a], [a, 2, a], [a, b, a]]
    blocks = draw(st.sampled_from(shapes))
    i, j = draw(st.sampled_from([(i, j) for i in range(1, len(blocks) + 1)
                                 for j in range(1, len(blocks) + 1) if i != j] or [(1, 1)]))
    block = np.array(draw(_entries(blocks[i - 1], blocks[j - 1])), dtype=float)
    try:
        element = GradedAlgebra(kind, blocks).element_from_block(i, j, block)
    except Exception:  # noqa: BLE001 - an invalid algebra or block still makes a document
        element = np.zeros((sum(blocks), sum(blocks)))
    doc = {"algebra": kind, "blocks": blocks, "element": element.real.tolist()}
    if draw(st.booleans()):
        doc["degree"] = draw(st.sampled_from([-1, 0, 1, 2, True]))
    if draw(st.integers(0, 3)) == 0:
        doc["element"] = draw(_matrix())
    return doc


@st.composite
def _complex_doc(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    maps = [draw(_entries(d, e)) for d, e in zip(sizes, sizes[1:])]
    return {"sizes": sizes, "maps": maps}


@st.composite
def _fuzz_documents(draw):
    """(command, document) for each of the commands, with now and then one field spoilt."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    field_kind = st.sampled_from(["complex", "real", "quaternion"])
    symmetry = st.sampled_from(["symmetric", "skew"])
    if command in ("pinv", "hermitian-pinv"):
        kind = draw(field_kind)
        matrix = (_matrix(st.lists(NUMBER, min_size=4, max_size=4)) if kind == "quaternion"
                  else st.one_of(_matrix(), _mirrored(), _mirrored(-1)))
        doc = {"field": kind, "matrix": draw(matrix)}
    elif command == "form-pinv":
        sym = draw(symmetry)
        doc = {"symmetry": sym, "gram": draw(_mirrored(1 if sym == "symmetric" else -1))}
    elif command == "homform":
        n, k = draw(st.integers(1, 2)), draw(st.integers(1, 3))
        form = draw(st.sampled_from([{"symmetry": "symmetric", "gram": np.eye(n).tolist()},
                                     {"symmetry": "skew", "gram": [[0, 1], [-1, 0]]}]))
        rows = len(form["gram"])
        doc = {"form": form, "map": draw(st.one_of(_entries(rows, k), _matrix()))}
    elif command == "vector-pinv":
        doc = {"vector": draw(st.lists(st.one_of(NUMBER, st.lists(NUMBER, min_size=2, max_size=2)),
                                       max_size=5))}
    elif command == "pseudo-pinv":
        n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        doc = {"signature": [n, m], "vector": draw(st.lists(NUMBER, min_size=n + m,
                                                            max_size=n + m))}
    elif command == "complex-pinv":
        doc = draw(_complex_doc())
    elif command == "report-table":
        doc = {}
    else:
        doc = draw(_graded_doc())
    if doc and draw(st.integers(0, 4)) == 0:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JUNK)
    return command, doc


class TestIsotropicVector:
    """so(1,2,1) at an isotropic vector: M vanishes on ker C in the sl2 engine."""

    DOC = {"algebra": "so", "blocks": [1, 2, 1],
           "element": [[0, 1, [0, 1], 0], [0, 0, 0, -1], [0, 0, 0, [0, -1]], [0, 0, 0, 0]]}

    @pytest.mark.parametrize("command", ["jordan-mp", "sl2-complete", "mp-element"])
    def test_exits_zero(self, tmp_path, command):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(self.DOC))
        code, document = run_job(JobSpec(command, str(path)))
        assert code == EXIT_OK, document.get("error")
        assert document["passed"]
        verification = document["verification"]
        assert max(verification.get("triple_residuals", [0.0])) <= 1e-9
        assert verification.get("minimality_defect", 0.0) <= 1e-12
        if command == "jordan-mp":
            inverse = np.array(document["result"]["inverse"])
            expected = np.zeros((4, 4, 2))
            expected[1, 0, 0], expected[2, 0, 1] = 0.5, -0.5
            expected[3, 1, 0], expected[3, 2, 1] = -0.5, 0.5
            assert np.abs(inverse - expected).max() <= 1e-12


class TestSharedAlgebra:
    """jordan-mp reads what depends on the algebra alone from a record that the process
    builds once: its outputs do not depend on whether the record is new or reused, or
    whether a caller wrote into a copy of a basis."""

    ALGEBRAS = [("sl", (2, 3)), ("sp", (3, 3)), ("so", (3, 3)), ("so", (1, 4, 1))]

    @staticmethod
    def documents(tmp_path, kind, blocks, count):
        alg, rng = GradedAlgebra(kind, blocks), np.random.default_rng(24)
        paths = []
        for i in range(count):
            e = 10.0 ** rng.uniform(-2, 2) * alg.random_element(1, rng)
            path = tmp_path / f"doc{i}.json"
            path.write_text(json.dumps({"algebra": kind, "blocks": list(blocks),
                                        "element": encode_complex_matrix(e).tolist()}))
            paths.append(path)
        return paths

    @staticmethod
    def outputs(paths, out) -> list[bytes]:
        """The output bytes of one CLI call: ``out`` is the output file of one document,
        the output directory of several."""
        code = main(["jordan-mp", *map(str, paths), "--output", str(out)])
        assert code == EXIT_OK
        if len(paths) == 1:
            return [out.read_bytes()]
        return [(out / f"{path.stem}.out.json").read_bytes() for path in paths]

    @pytest.mark.parametrize("kind,blocks", ALGEBRAS)
    def test_cold_and_warm_records_agree(self, monkeypatch, tmp_path, kind, blocks):
        paths = self.documents(tmp_path, kind, blocks, 2)
        for i, path in enumerate(paths):
            monkeypatch.setattr(graded, "_RECORDS", {})
            cold = self.outputs([path], tmp_path / f"cold{i}")
            assert graded._RECORDS
            assert self.outputs([path], tmp_path / f"warm{i}") == cold

    @pytest.mark.parametrize("kind,blocks", ALGEBRAS)
    def test_writing_into_a_basis_copy_changes_nothing(self, tmp_path, kind, blocks):
        paths = self.documents(tmp_path, kind, blocks, 1)
        before = self.outputs(paths, tmp_path / "before")
        alg = GradedAlgebra(kind, blocks)
        for m in (1, -1, 0, None):
            alg.basis(m)[...] = 7.0
        assert self.outputs(paths, tmp_path / "after") == before


def minimality_case(name: str) -> tuple[GradedAlgebra, np.ndarray]:
    """A degree-1 element whose characteristics form an affine space of positive dimension."""
    rng = np.random.default_rng(21)
    if name == "golden":
        doc = json.loads((GOLDEN / "sl2-complete.in.json").read_text())
        return GradedAlgebra(doc["algebra"], doc["blocks"]), decode_complex_matrix(
            doc["element"], "element")
    if name == "sl(6,6)":
        alg = GradedAlgebra("sl", (6, 6))
        return alg, alg.element_from_block(1, 2, random_matrix_with_rank(rng, 6, 6, 2))
    if name == "sl(4,4,4)":
        alg = GradedAlgebra("sl", (4, 4, 4))
        return alg, (alg.element_from_block(1, 2, random_matrix_with_rank(rng, 4, 4, 2))
                     + alg.element_from_block(2, 3, random_matrix_with_rank(rng, 4, 4, 1)))
    # O(2, 1) of Hom(C^3, C^4) in general position: no inverse, h is not Hermitian
    form = standard_form("symmetric", 4)
    alg = homform.embedding_algebra(form, 3)
    return alg, homform.hom_element(alg, homform.generic_orbit_map(form, 2, 1, 3))


class TestMinimalityDefect:
    """minimality_defect = |D^H h| / (1 + |h|_F) is zero at the minimal characteristic
    and measures exactly how far a characteristic moved along the direction space D."""

    CASES = ["golden", "sl(6,6)", "sl(4,4,4)", "homform-witness"]

    @pytest.mark.parametrize("name", CASES)
    def test_minimal_characteristic_has_no_defect(self, tmp_path, name):
        alg, e = minimality_case(name)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"algebra": alg.kind, "blocks": list(alg.blocks),
                                    "degree": 1, "element": encode_complex_matrix(e).tolist()}))
        code, document = run_job(JobSpec("sl2-complete", str(path)))
        assert code == EXIT_OK, document.get("error")
        if name == "homform-witness":
            assert not document["result"]["is_hermitian"]
        assert document["verification"]["minimality_defect"] <= 1e-12

    @pytest.mark.parametrize("name", CASES)
    def test_moved_characteristic_is_caught(self, name):
        alg, e = minimality_case(name)
        res = graded.minimal_characteristic(alg, e, 1)
        directions = graded.characteristic_direction_space(alg, res)
        coef = random_complex(np.random.default_rng(5), len(directions))
        delta = np.tensordot(coef / np.linalg.norm(coef), directions, 1)
        moved_h = res.h + delta
        moved = dataclasses.replace(res, triple=dataclasses.replace(res.triple, h=moved_h))
        assert moved.levels is res.levels
        want = (np.linalg.norm(directions.reshape(len(directions), -1).conj() @ moved_h.ravel())
                / (1.0 + frob(moved_h)))
        got = cli._minimality_defect(alg, moved, Tolerance())
        assert abs(got - want) <= 1e-12 and got >= 0.5 / (1.0 + frob(moved_h))


class TestRoundTrip:
    def test_pinv_residuals_recompute_identically(self):
        code, document = run_job(golden_job("pinv"))
        assert code == EXIT_OK
        reparsed = json.loads(to_json(document))
        source = json.loads((GOLDEN / "pinv.in.json").read_text())
        a = decode_complex_matrix(source["matrix"], "matrix")
        x = decode_complex_matrix(reparsed["result"]["pinv"], "pinv")
        report = verify_penrose(a, x)
        assert report.residuals["recover_a"] == reparsed["verification"]["recover_a"]
        assert report.residuals["recover_x"] == reparsed["verification"]["recover_x"]
        assert report.residuals["hermitian_ax"] == reparsed["verification"]["hermitian_ax"]
        assert report.residuals["hermitian_xa"] == reparsed["verification"]["hermitian_xa"]

    def test_seventeen_digit_floats_round_trip(self):
        values = [0.2, 1.0 / 3.0, 1e-300, 123456.789e12, 7.0]
        for v in values:
            assert float(format(v, ".17g")) == v


class TestErrorPaths:
    def test_malformed_json_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"matrix": [[1, 2],]}')
        code, document = run_job(JobSpec("pinv", str(bad)))
        assert code == EXIT_INPUT
        assert "line" in document["error"]

    def test_missing_field_names_the_field(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text('{"field": "complex"}')
        code, document = run_job(JobSpec("pinv", str(doc)))
        assert code == EXIT_INPUT
        assert "matrix" in document["error"]

    def test_bad_entry_has_context(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text('{"matrix": [[[1, 0], [0, 1]], [[1, 0], "x"]]}')
        code, document = run_job(JobSpec("pinv", str(doc)))
        assert code == EXIT_INPUT
        assert "matrix[1]" in document["error"]
        assert "matrix[1][1]" in document["error"]

    def test_homform_middle_orbit_exits_three(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(
            json.dumps(
                {
                    "form": {
                        "symmetry": "symmetric",
                        "gram": [[[1, 0], [0, 0], [0, 0]],
                                 [[0, 0], [1, 0], [0, 0]],
                                 [[0, 0], [0, 0], [1, 0]]],
                    },
                    "map": [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]],
                }
            )
        )
        code, document = run_job(JobSpec("homform", str(doc)))
        assert code == EXIT_NO_INVERSE
        assert document["orbit"] == {"a": 2, "b": 1}
        assert document["certificate"] > 1e-3

    def test_mp_orbit_of_zero_exits_one(self, tmp_path):
        doc = tmp_path / "zero.json"
        doc.write_text(
            json.dumps({"algebra": "sl", "blocks": [2], "element": [[[0, 0]] * 2] * 2})
        )
        code, document = run_job(JobSpec("mp-orbit", str(doc)))
        assert code == EXIT_INPUT
        assert "zero element" in document["error"]

    def test_mp_orbit_rejects_zero_before_its_height(self, tmp_path, monkeypatch):
        def no_height(*args, **kwargs):
            raise AssertionError("orbit_height ran on the zero element")

        monkeypatch.setattr(graded, "orbit_height", no_height)
        doc = tmp_path / "zero.json"
        doc.write_text(json.dumps({"algebra": "sl", "blocks": [1, 2], "element": [[0] * 3] * 3}))
        code, document = run_job(JobSpec("mp-orbit", str(doc)))
        assert code == EXIT_INPUT
        assert document["error"] == "the zero element does not generate a nilpotent orbit"

    def test_chain_sizes_must_be_integers(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"sizes": [[1], 2], "maps": [[[1, 0]]]}))
        code, document = run_job(JobSpec("complex-pinv", str(doc)))
        assert code == EXIT_INPUT
        assert "sizes[0]" in document["error"]

    def test_quaternion_entries_must_be_numbers(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"field": "quaternion", "matrix": [[["1", "0", "0", "0"]]]}))
        code, document = run_job(JobSpec("pinv", str(doc)))
        assert code == EXIT_INPUT
        assert "matrix[0][0]" in document["error"]

    def test_quaternion_rows_must_be_equally_long(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(
            json.dumps({"field": "quaternion",
                        "matrix": [[[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 0, 0]]]})
        )
        code, document = run_job(JobSpec("hermitian-pinv", str(doc)))
        assert code == EXIT_INPUT
        assert "matrix[1]" in document["error"]

    @pytest.mark.parametrize("command, doc, where", [
        ("pseudo-pinv", {"signature": [True, 1], "vector": [1.0, 2.0]}, "signature[0]"),
        ("sl2-complete", {"algebra": "sl", "blocks": [2.9, 2],
                          "element": [[[0, 0]] * 4] * 4}, "blocks[0]"),
        ("mp-element", {"algebra": "sl", "blocks": [1, 1], "degree": True,
                        "element": [[0, 1], [0, 0]]}, "degree"),
    ], ids=["signature", "blocks", "degree"])
    def test_integer_fields_reject_bools_and_fractions(self, tmp_path, command, doc, where):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, document = run_job(JobSpec(command, str(path)))
        assert code == EXIT_INPUT
        assert document["error"].startswith(f"{where}: expected an integer")

    @pytest.mark.parametrize("command, doc, where", [
        ("homform", {"form": {"gram": [[1, 0], [0, 1]]}, "map": [[1], [0]]}, "form.symmetry"),
        ("form-pinv", {"symmetry": "hermitian", "gram": [[1, 0], [0, 1]]}, "symmetry"),
        ("homform", {"form": {"symmetry": 5, "gram": [[1, 0], [0, 1]]}, "map": [[1], [0]]},
         "form.symmetry"),
        ("homform", {"form": {"symmetry": "symmetric"}, "map": [[1], [0]]}, "form.gram"),
    ], ids=["homform-missing", "form-pinv-unknown", "homform-wrong-type", "homform-no-gram"])
    def test_symmetry_errors_name_the_field(self, tmp_path, command, doc, where):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, document = run_job(JobSpec(command, str(path)))
        assert code == EXIT_INPUT
        assert f"field {where!r}" in document["error"]

    BIG = int("1" + "0" * 400)  # past the float range

    @pytest.mark.parametrize("command, doc, where", [
        ("pinv", {"matrix": [[True]]}, "matrix[0][0]"),
        ("pinv", {"matrix": [[True, 1]]}, "matrix[0][0]"),
        ("pinv", {"matrix": [[2.5, False]]}, "matrix[0][1]"),
        ("pinv", {"matrix": [[[1, 0], [0, True]]]}, "matrix[0][1][1]"),
        ("pinv", {"field": "quaternion", "matrix": [[[1, 0, True, 0]]]}, "matrix[0][0][2]"),
        ("vector-pinv", {"vector": [True, 1]}, "vector[0]"),
        ("form-pinv", {"symmetry": "symmetric", "gram": [[True]]}, "gram[0][0]"),
        ("pseudo-pinv", {"signature": [1, 0], "vector": [True]}, "vector[0]"),
    ], ids=["matrix", "matrix-int", "matrix-float", "pair", "quaternion", "vector", "gram",
            "pseudo-vector"])
    def test_bools_are_not_numbers(self, tmp_path, command, doc, where):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, document = run_job(JobSpec(command, str(path)))
        assert code == EXIT_INPUT
        assert document["error"].startswith(f"{where}: expected a "), document["error"]

    @pytest.mark.parametrize("command, doc, where", [
        ("pinv", {"matrix": [[BIG]]}, "matrix[0][0]"),
        ("pinv", {"matrix": [[1.5, BIG]]}, "matrix[0][1]"),
        ("pinv", {"matrix": [[[1, BIG]]]}, "matrix[0][0][1]"),
        ("pinv", {"field": "quaternion", "matrix": [[[BIG, 0, 0, 0]]]}, "matrix[0][0][0]"),
        ("vector-pinv", {"vector": [1, BIG]}, "vector[1]"),
        ("pseudo-pinv", {"signature": [2, 0], "vector": [1, -BIG]}, "vector[1]"),
        ("complex-pinv", {"sizes": [1, 1], "maps": [[[BIG]]]}, "maps[0][0][0]"),
    ], ids=["matrix", "matrix-float", "pair", "quaternion", "vector", "pseudo-vector", "chain"])
    def test_integers_past_the_float_range_are_input_errors(self, tmp_path, command, doc, where):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, document = run_job(JobSpec(command, str(path)))
        assert code == EXIT_INPUT
        assert document["error"] == f"{where}: number outside the float range"

    @pytest.mark.parametrize("command, text, where", [
        ("pinv", '{"matrix": [[NaN]]}', "matrix[0][0]"),
        ("pinv", '{"matrix": [[1, 1e999]]}', "matrix[0][1]"),
        ("pinv", '{"field": "quaternion", "matrix": [[[1, 0, NaN, 0]]]}', "matrix[0][0][2]"),
        ("sl2-complete",
         '{"algebra": "sl", "blocks": [1, 1], "element": [[0, Infinity], [0, 0]]}', "element[0][1]"),
        ("form-pinv", '{"symmetry": "symmetric", "gram": [[-Infinity]]}', "gram[0][0]"),
        ("homform", '{"form": {"symmetry": "symmetric", "gram": [[1, 0], [0, NaN]]}, '
                    '"map": [[1], [0]]}', "form.gram[1][1]"),
        ("vector-pinv", '{"vector": [[1, NaN]]}', "vector[0][1]"),
        ("pseudo-pinv", '{"signature": [1, 0], "vector": [Infinity]}', "vector[0]"),
    ], ids=["matrix", "matrix-1e999", "quaternion", "element", "gram", "form-gram", "vector",
            "pseudo-vector"])
    def test_non_finite_literals_name_the_field(self, tmp_path, command, text, where):
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, document = run_job(JobSpec(command, str(path)))
        assert code == EXIT_INPUT
        assert document["error"].startswith(f"{where}: expected a finite number, got ")

    def test_hermitian_real_checks_realness_before_solving(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"field": "real", "matrix": [[1, [0, 1]], [2, 3]]}))
        code, document = run_job(JobSpec("hermitian-pinv", str(path)))
        assert code == EXIT_INPUT
        assert document["error"] == "field 'real' requires a real matrix"

    @pytest.mark.parametrize("doc", [
        {"matrix": [[1, 2, 3], [4, 5, 6]]},
        {"matrix": [[]]},
        {"field": "quaternion", "matrix": [[[1, 0, 0, 0], [0, 1, 0, 0]]]},
    ], ids=["complex-2x3", "complex-1x0", "quaternion-1x2"])
    def test_hermitian_needs_a_square_matrix(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, document = run_job(JobSpec("hermitian-pinv", str(path)))
        assert code == EXIT_INPUT
        assert document["error"] == "matrix must be square"

    def test_linalg_error_exits_two(self, monkeypatch):
        def breakdown(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(classical, "pinv", breakdown)
        code, document = run_job(golden_job("pinv"))
        assert code == EXIT_VERIFY
        assert document["error"] == "SVD did not converge"

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError):
            Tolerance(rank_rtol=0.5)


class TestMainEntry:
    def test_writes_output_file(self, tmp_path):
        target = tmp_path / "out.json"
        code = main(
            ["pinv", str(GOLDEN / "pinv.in.json"), "--output", str(target)]
        )
        assert code == EXIT_OK
        assert target.read_text() == (GOLDEN / "pinv.out.json").read_text()

    PINV = str(GOLDEN / "pinv.in.json")

    @pytest.mark.parametrize("argv, named", [
        (["bogus", PINV], "argument command"),
        (["pinv", PINV, "--frob"], "unrecognized arguments: --frob"),
        (["pinv", PINV, "--tol-rank", "abc"], "argument --tol-rank"),
        (["pinv", PINV, "--tol-rank", "0.5"], "argument --tol-rank"),
        (["pinv", PINV, "--tol-residual", "nan"], "argument --tol-residual"),
        (["pinv", PINV, PINV, "--jobs", "2"], "unrecognized arguments: --jobs"),
        (["pinv", PINV, "--seed", "1"], "unrecognized arguments: --seed"),
        (["sl2-complete", str(GOLDEN / "sl2-complete.in.json"), "--seed", "1"],
         "unrecognized arguments: --seed"),
        (["sl2-complete", str(GOLDEN / "sl2-complete.in.json"), "--algebra", "sl"],
         "unrecognized arguments: --algebra"),
    ], ids=["command", "flag", "tol-rank-text", "tol-rank-range", "tol-residual-nan",
            "jobs-removed", "seed-pinv", "seed-sl2", "removed-flag"])
    def test_usage_errors_exit_one_and_name_the_flag(self, capsys, argv, named):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert named in captured.err and captured.out == ""

    def test_no_arguments_name_only_the_command(self, capsys):
        # inputs takes any number of documents, none included: only the command is required
        assert main([]) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "liepinv: error: the following arguments are required: command"

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "--tol-rank" in capsys.readouterr().out

    @pytest.mark.parametrize("missing", ["algebra", "blocks"])
    def test_graded_fields_are_required(self, tmp_path, missing):
        fields = {"algebra": "sl", "blocks": [1, 1], "element": [[[0, 0], [1, 0]], [[0, 0]] * 2]}
        del fields[missing]
        doc = tmp_path / "elem.json"
        doc.write_text(json.dumps(fields))
        code, document = run_job(JobSpec("sl2-complete", str(doc)))
        assert code == EXIT_INPUT and document["error"] == f"missing required field {missing!r}"

    @pytest.mark.parametrize("command", ["sl2-complete", "mp-element"])
    def test_tolerance_flags_reach_the_minimality_defect(self, tmp_path, command):
        # a rank-one degree-1 element of sl(2, 2) off the algebra by 1e-6 * I: a member at
        # --tol-residual 1e-4, not at the default, with a nonzero characteristic direction space
        element = np.zeros((4, 4))
        element[0, 2] = 1.0
        element += 1e-6 * np.eye(4)
        doc = tmp_path / "elem.json"
        doc.write_text(json.dumps({"algebra": "sl", "blocks": [2, 2], "degree": 1,
                                   "element": encode_complex_matrix(element).tolist()}))
        out = tmp_path / "o.json"
        assert main([command, str(doc), "--output", str(out)]) == EXIT_INPUT
        code = main([command, str(doc), "--tol-residual", "1e-4", "--output", str(out)])
        payload = json.loads(out.read_text())
        assert code == EXIT_OK and payload["passed"], payload
        assert payload["verification"]["minimality_defect"] <= 1e-12

    def test_batch_mode(self, tmp_path):
        import shutil

        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        shutil.copy(GOLDEN / "pinv.in.json", first)
        shutil.copy(GOLDEN / "pinv.in.json", second)
        out_dir = tmp_path / "out"
        code = main(
            ["pinv", str(first), str(second), "--output", str(out_dir)]
        )
        assert code == EXIT_OK
        got_a = json.loads((out_dir / "a.out.json").read_text())
        got_b = json.loads((out_dir / "b.out.json").read_text())
        assert got_a == got_b

    def test_batch_reads_every_input_before_it_writes(self, tmp_path):
        # the output of a.json is the input a.out.json, whose own output is a.out.out.json
        first, second, alone = tmp_path / "a.json", tmp_path / "a.out.json", tmp_path / "alone.json"
        shutil.copy(GOLDEN / "pinv.in.json", first)
        for path in (second, alone):
            path.write_text(json.dumps({"field": "complex", "matrix": [[[3, 0]], [[4, 0]]]}))
        assert main(["pinv", str(alone), "-o", str(tmp_path / "alone.out.json")]) == EXIT_OK
        assert main(["pinv", str(first), str(second)]) == EXIT_OK
        want = (tmp_path / "alone.out.json").read_text()
        assert (tmp_path / "a.out.out.json").read_text() == want
        assert second.read_text() == (GOLDEN / "pinv.out.json").read_text()

    def test_non_finite_result_exits_two(self, tmp_path):
        # the inverse of the least subnormal, 2**1074, is beyond the float range
        doc = tmp_path / "huge.json"
        doc.write_text(json.dumps({"field": "complex", "matrix": [[5e-324]]}))
        out = tmp_path / "huge.out.json"
        assert main(["pinv", str(doc), "--output", str(out)]) == EXIT_VERIFY
        payload = json.loads(out.read_text())
        assert "non-finite" in payload["error"]
        assert "result" not in payload

    @pytest.mark.parametrize("matrix, want", [
        # pinv([[c, c], [c, c]]) = [[1, 1], [1, 1]] / (4c); 2.5e-309 is subnormal
        ([[1e308, 1e308]] * 2, [[[2.5e-309, 0.0]] * 2] * 2),
        # both parts are finite, but the modulus of c (1 + i) is not; 1 / (c (1 + i)) = (1 - i) / 2c
        ([[[1.5e308, 1.5e308]]], [[[1e-308 / 3, -1e-308 / 3]]]),
    ], ids=["real", "complex"])
    def test_entries_near_the_float_maximum_are_answered(self, tmp_path, matrix, want):
        doc = tmp_path / "big.json"
        doc.write_text(json.dumps({"field": "complex", "matrix": matrix}))
        out = tmp_path / "big.out.json"
        assert main(["pinv", str(doc), "--output", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert np.allclose(payload["result"]["pinv"], want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("command, bad, code", [
        ("pinv", {"huge": {"field": "complex", "matrix": [[5e-324]]},
                  "strings": {"field": "quaternion", "matrix": [[["1", "0", "0", "0"]]]},
                  "ragged": {"field": "quaternion",
                             "matrix": [[[1, 0, 0, 0]] * 2, [[1, 0, 0, 0]]]}}, EXIT_VERIFY),
        ("complex-pinv", {"sizes": {"sizes": [[1], 2], "maps": [[[1, 0]]]}}, EXIT_INPUT),
        ("pseudo-pinv", {"signature": {"signature": [True, 1], "vector": [1.0, 2.0]}},
         EXIT_INPUT),
    ], ids=["pinv", "complex-pinv", "pseudo-pinv"])
    def test_batch_writes_every_output(self, tmp_path, command, bad, code):
        paths = [tmp_path / f"{stem}.json" for stem in bad]
        for path, content in zip(paths, bad.values()):
            path.write_text(json.dumps(content))
        good = tmp_path / "good.json"
        good.write_text((GOLDEN / f"{command}.in.json").read_text())
        out_dir = tmp_path / "out"
        assert main([command, *map(str, paths), str(good), "--output", str(out_dir)]) == code
        for stem in bad:
            assert "error" in json.loads((out_dir / f"{stem}.out.json").read_text())
        want = (GOLDEN / f"{command}.out.json").read_text()
        assert (out_dir / "good.out.json").read_text() == want

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        counts = count_calls(monkeypatch, {"cli": ("build_parser",)})
        assert main(["report-table"]) == main(["report-table"]) == EXIT_OK
        assert counts == {}

    def test_requires_input_except_report_table(self, capsys):
        assert main(["pinv"]) == EXIT_INPUT
        assert main(["report-table"]) == EXIT_OK


class TestNotNilpotent:
    """A generic element is semisimple: each command that needs a nilpotent exits 1."""

    @pytest.mark.parametrize("kind, blocks", [("sl", (6, 6)), ("sl", (8, 8)), ("so", (2, 3, 2)),
                                              ("sp", (3, 3))])
    @pytest.mark.parametrize("command, extra", [("orbit-height", {}), ("mp-orbit", {}),
                                                ("sl2-complete", {"degree": 0})])
    def test_generic_element_exits_one(self, tmp_path, kind, blocks, command, extra):
        x = GradedAlgebra(kind, blocks).random_element(None, np.random.default_rng(3))
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"algebra": kind, "blocks": list(blocks),
                                   "element": encode_complex_matrix(x).tolist(), **extra}))
        code, document = run_job(JobSpec(command, str(doc)))
        assert code == EXIT_INPUT and "not nilpotent" in document["error"]

    @pytest.mark.parametrize("blocks, element", [([2], [[0, 1], [-1, 0]]),
                                                 ([1, 1], [[1, 0], [0, -1]])])
    @pytest.mark.parametrize("command", ["orbit-height", "mp-orbit", "sl2-complete"])
    def test_central_element_of_so2_exits_one(self, tmp_path, command, blocks, element):
        # so(2) is abelian: ad(e) = 0, yet no nonzero element is nilpotent
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"algebra": "so", "blocks": blocks, "element": element}))
        code, document = run_job(JobSpec(command, str(doc)))
        assert code == EXIT_INPUT and "not nilpotent" in document["error"]

    @pytest.mark.parametrize("command", ["orbit-height", "mp-orbit"])
    def test_the_ill_conditioned_sp8_conjugate_exits_zero(self, tmp_path, command):
        # a nilpotent, though the whole-algebra ranks of ad(e) read a height above 14
        alg, e = ill_conditioned_sp8_conjugate()
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"algebra": "sp", "blocks": list(alg.blocks),
                                   "element": encode_complex_matrix(e).tolist()}))
        code, document = run_job(JobSpec(command, str(doc)))
        assert code == EXIT_OK and document["result"]["height"] == 14


class TestScaleFree:
    @staticmethod
    def run_scaled(tmp_path, command, kind, blocks, element, t):
        doc = tmp_path / f"{command}-{t:g}.json"
        doc.write_text(
            json.dumps(
                {"algebra": kind, "blocks": list(blocks),
                 "element": encode_complex_matrix(t * element).tolist()}
            )
        )
        return run_job(JobSpec(command, str(doc)))

    @pytest.mark.parametrize("t", [1e-8, 1e150])
    def test_sl2_complete(self, tmp_path, t):
        alg = GradedAlgebra("sl", (4, 4))
        x = alg.random_element(1, np.random.default_rng(61))
        x /= frob(x)
        _, ref = self.run_scaled(tmp_path, "sl2-complete", "sl", (4, 4), x, 1.0)
        code, document = self.run_scaled(tmp_path, "sl2-complete", "sl", (4, 4), x, t)
        assert code == EXIT_OK
        document, ref = json.loads(to_json(document)), json.loads(to_json(ref))
        h = decode_complex_matrix(document["result"]["h"], "h")
        f = decode_complex_matrix(document["result"]["f"], "f")
        ref_h = decode_complex_matrix(ref["result"]["h"], "h")
        ref_f = decode_complex_matrix(ref["result"]["f"], "f")
        assert frob(h - ref_h) <= 1e-9 * (1.0 + frob(ref_h))
        assert frob(t * f - ref_f) <= 1e-9 * (1.0 + frob(ref_f))

    @pytest.mark.parametrize("t", [1e-8, 1e150])
    def test_orbit_height(self, tmp_path, t):
        alg = GradedAlgebra("sl", (3, 3, 3))
        x = alg.random_element(1, np.random.default_rng(62))
        x /= frob(x)
        _, ref = self.run_scaled(tmp_path, "orbit-height", "sl", (3, 3, 3), x, 1.0)
        code, document = self.run_scaled(tmp_path, "orbit-height", "sl", (3, 3, 3), x, t)
        assert code == EXIT_OK
        assert document["result"]["height"] == ref["result"]["height"] == 4


class TestGoldenAtScale:
    """Each golden input scaled by t answers as the mathematics says: inverses scale by 1/t,
    the element e by t, and characteristics, heights, labels, ranks and verdicts not at all."""

    # the scaled input field of each command, and the power of t of each result field
    SCALED = {
        "pinv": ("matrix", {"pinv": -1}),
        "form-pinv": ("gram", {"symmetry": 0, "gram": -1}),
        "vector-pinv": ("vector", {"pinv": -1}),
        "pseudo-pinv": ("vector", {"pinv": -1}),
        "hermitian-pinv": ("matrix", {"pinv": -1}),
        "sl2-complete": ("element", {"e": 1, "h": 0, "f": -1, "is_hermitian": 0}),
        "mp-element": ("element", {"is_mp_element": 0, "hermitian_defect": 0}),
        "orbit-height": ("element", {"height": 0}),
        "mp-orbit": ("element", {"is_mp_orbit": 0, "height": 0}),
        "homform": ("map", {"orbit": 0, "inverse": -1}),
        "complex-pinv": ("maps", {"sizes": 0, "maps": -1, "ranks": 0}),
        "jordan-mp": ("element", {"inverse": -1}),
    }

    @staticmethod
    def scaled(value, t):
        return [TestGoldenAtScale.scaled(v, t) for v in value] if isinstance(value, list) else t * value

    @staticmethod
    def run(tmp_path, command, doc) -> dict:
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        code, document = run_job(JobSpec(command, str(path)))
        assert code == EXIT_OK and document["passed"], document
        return json.loads(to_json(document))

    @pytest.mark.parametrize("t", [1e-300, 1e-150, 1e150, 1e300])
    @pytest.mark.parametrize("command", sorted(SCALED))
    def test_answer_scales(self, tmp_path, command, t):
        field, powers = self.SCALED[command]
        doc = json.loads((GOLDEN / f"{command}.in.json").read_text())
        ref = self.run(tmp_path, command, doc)
        got = self.run(tmp_path, command, {**doc, field: self.scaled(doc[field], t)})
        assert set(powers) == set(got["result"])
        for key, power in powers.items():
            want, have = ref["result"][key], got["result"][key]
            if power == 0 and not isinstance(want, (list, float)):
                assert have == want, key
                continue
            # ragged map lists compare map by map
            pairs = zip(want, have) if key == "maps" else [(want, have)]
            for w, h in pairs:
                w, h = np.array(w, dtype=float), np.array(h, dtype=float) * t ** -power
                assert frob(h - w) <= 1e-10 * (1.0 + frob(w)), key
        verdicts = {k: v for k, v in ref["verification"].items() if isinstance(v, bool)}
        assert verdicts == {k: got["verification"][k] for k in verdicts}


class TestExtremeScale:
    """Inputs whose squared entries under- or overflow: t * f(t x) must equal f(x)."""

    @pytest.mark.parametrize("kind,blocks", [("sl", (4, 4)), ("sp", (3, 3)), ("so", (1, 6, 1))])
    @pytest.mark.parametrize("command,key", [("jordan-mp", "inverse"), ("sl2-complete", "f")])
    @pytest.mark.parametrize("t", [1e-300, 1e-200, 1e300])
    def test_inverse_scales(self, tmp_path, kind, blocks, command, key, t):
        alg = GradedAlgebra(kind, blocks)
        x = alg.random_element(1, np.random.default_rng(63))
        x /= frob(x)
        _, ref = TestScaleFree.run_scaled(tmp_path, command, kind, blocks, x, 1.0)
        code, document = TestScaleFree.run_scaled(tmp_path, command, kind, blocks, x, t)
        assert code == EXIT_OK and document["passed"]
        document, ref = json.loads(to_json(document)), json.loads(to_json(ref))
        f = decode_complex_matrix(document["result"][key], key)
        ref_f = decode_complex_matrix(ref["result"][key], key)
        assert frob(t * f - ref_f) <= 1e-12 * frob(ref_f)


    # each vector inverse takes both of its branches: off and on the isotropic cone
    @pytest.mark.parametrize("command, fields, vector", [
        ("vector-pinv", {}, [0.6, [0.0, 0.8], [-0.48, 0.36]]),
        ("vector-pinv", {}, [[0.6, 0.0], [0.0, 0.6], 0.0]),
        ("pseudo-pinv", {"signature": [2, 1]}, [0.48, -0.64, 0.6]),
        ("pseudo-pinv", {"signature": [2, 1]}, [0.6, 0.8, 1.0]),
    ], ids=["vector", "vector-isotropic", "pseudo", "pseudo-null"])
    @pytest.mark.parametrize("t", [1e-300, 1e-200, 1e-160, 1e160, 1e300])
    def test_vector_inverse_scales(self, tmp_path, command, fields, vector, t):
        def run(scale):
            scaled = [[scale * x for x in entry] if isinstance(entry, list) else scale * entry
                      for entry in vector]
            doc = tmp_path / f"{command}-{scale:g}.json"
            doc.write_text(json.dumps({**fields, "vector": scaled}))
            code, document = run_job(JobSpec(command, str(doc)))
            assert code == EXIT_OK and document["passed"], document
            got = np.array(json.loads(to_json(document))["result"]["pinv"], dtype=float)
            return got[..., 0] + 1j * got[..., 1] if got.ndim == 2 else got

        ref = run(1.0)
        assert frob(t * run(t) - ref) <= 1e-12 * frob(ref)


class TestIllConditionedBlock:
    """A valid element is never an input error, however ill-conditioned its block: a
    numerical failure (NoTriple included) exits 2."""

    @staticmethod
    def block(kind, cond, rng) -> np.ndarray:
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        if kind == "so":  # skew block with singular values 1, 1, 1/cond, 1/cond
            core = np.zeros((4, 4))
            core[0, 1], core[2, 3] = 1.0, 1.0 / cond
            return q @ (core - core.T) @ q.T
        # sp: symmetric block with singular values from 1 down to 1/cond; sl: any block
        right = q.T if kind == "sp" else np.linalg.qr(rng.standard_normal((4, 4)))[0]
        return q @ np.diag(np.logspace(0, -np.log10(cond), 4)) @ right

    @classmethod
    def element(cls, kind, cond, seed, blocks=(4, 4)) -> np.ndarray:
        """Degree 1 on the grading ``blocks``: blocks (1, 2) and, on three blocks, (2, 3)
        of condition ``cond`` (for so/sp the form makes (2, 3) the partner of (1, 2))."""
        rng = np.random.default_rng(seed)
        alg = GradedAlgebra(kind, blocks)
        e = alg.element_from_block(1, 2, cls.block(kind, cond, rng))
        if kind == "sl" and len(blocks) == 3:
            e = e + alg.element_from_block(2, 3, cls.block(kind, cond, rng))
        return e

    @pytest.mark.parametrize("kind", ["so", "sp"])
    @pytest.mark.parametrize("cond", [1e8, 1e10])
    @pytest.mark.parametrize("seed", range(6))
    def test_jordan_mp_is_not_an_input_error(self, tmp_path, kind, cond, seed):
        element = self.element(kind, cond, seed)
        code, document = TestScaleFree.run_scaled(tmp_path, "jordan-mp", kind, (4, 4), element, 1.0)
        assert code in (EXIT_OK, EXIT_VERIFY), document

    @pytest.mark.parametrize("command", ["sl2-complete", "mp-element"])
    @pytest.mark.parametrize("kind", ["sl", "so", "sp"])
    @pytest.mark.parametrize("cond", [1e3, 1e4])
    @pytest.mark.parametrize("seed", range(6))
    def test_engine_is_not_an_input_error(self, tmp_path, command, kind, cond, seed):
        element = self.element(kind, cond, seed)
        code, document = TestScaleFree.run_scaled(tmp_path, command, kind, (4, 4), element, 1.0)
        assert code in (EXIT_OK, EXIT_VERIFY), document

    @pytest.mark.parametrize("command", ["sl2-complete", "mp-element"])
    @pytest.mark.parametrize("kind", ["sl", "so", "sp"])
    @pytest.mark.parametrize("cond", [1e3, 1e4])
    @pytest.mark.parametrize("seed", range(6))
    def test_engine_on_three_blocks_is_not_an_input_error(self, tmp_path, command, kind, cond,
                                                          seed):
        # (4, 4) takes the closed form; a three-block grading reaches the engine
        element = self.element(kind, cond, seed, (4, 4, 4))
        code, document = TestScaleFree.run_scaled(tmp_path, command, kind, (4, 4, 4), element, 1.0)
        assert code in (EXIT_OK, EXIT_VERIFY), document


class TestUngradedProblemOnGradedAlgebras:
    """``"degree": 0`` asks for the ungraded problem on any grading: a valid nilpotent exits 0."""

    @staticmethod
    def run(tmp_path, command, kind, blocks, element):
        doc = tmp_path / f"{command}-{kind}{len(blocks)}.json"
        doc.write_text(json.dumps({"algebra": kind, "blocks": list(blocks), "degree": 0,
                                   "element": encode_complex_matrix(element).tolist()}))
        return run_job(JobSpec(command, str(doc)))

    @pytest.mark.parametrize("blocks", [(2, 2), (1, 2, 1)])
    def test_sl_verdicts_are_those_of_the_ungraded_algebra(self, tmp_path, blocks):
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 4)))
        e = q @ np.diag(np.ones(3), 1) @ q.T  # the regular nilpotent of sl(4), rotated
        _, want = self.run(tmp_path, "mp-element", "sl", (4,), e)
        code, got = self.run(tmp_path, "mp-element", "sl", blocks, e)
        assert code == EXIT_OK, got
        # the same problem; the bases of the two algebras differ in order, so roundoff does too
        assert got["result"]["is_mp_element"] == want["result"]["is_mp_element"]
        assert got["result"]["hermitian_defect"] <= 1e-12
        assert got["verification"]["orbit_criterion"] == want["verification"]["orbit_criterion"]
        assert self.run(tmp_path, "sl2-complete", "sl", blocks, e)[0] == EXIT_OK

    @pytest.mark.parametrize("kind,blocks,m,height", [
        ("so", (2, 2), 1, 2), ("so", (2, 3, 2), 1, 4), ("so", (2, 3, 2), 2, 2),
        ("so", (1, 2, 2, 1), 1, 4), ("sp", (2, 2), 1, 2), ("sp", (1, 2, 1), 1, 2),
    ])
    def test_so_sp_criterion_is_the_height_criterion(self, tmp_path, kind, blocks, m, height):
        # GradedAlgebra(kind, (n,)) realizes so/sp with another form, so e is compared with
        # its orbit height: on all of g, ad(e) kills the positive part exactly at height 2
        alg = GradedAlgebra(kind, blocks)
        rng = np.random.default_rng(37)
        x, y = alg.random_element(m, rng), alg.random_element(-1, rng)
        e = scipy.linalg.expm(y) @ x @ scipy.linalg.expm(-y)  # a nilpotent of no degree
        assert orbit_height(alg, e) == height
        code, document = self.run(tmp_path, "mp-element", kind, blocks, e)
        assert code == EXIT_OK, document
        assert document["verification"]["orbit_criterion"] == (height == 2)


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e-5, 7.0, -3.0, 1e16, 0.1]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
SHAPES = st.one_of(
    st.sampled_from([(), (0,), (1, 0, 2), (0, 3, 2), (3, 1, 2)]),
    st.integers(0, 5).map(lambda k: (k,)),
    st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
        lambda mn: st.sampled_from([mn, mn + (2,), mn + (4,)])
    ),
)


class TestArrayWriter:
    """The one-pass array writer against the scalar-at-a-time reference writer."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(a=hnp.arrays(float, SHAPES, elements=FLOATS), indent=st.integers(0, 3))
    def test_matches_reference_byte_for_byte(self, a, indent):
        expected = reference_to_json(a.tolist() if a.ndim else float(a), indent)
        assert to_json(a, indent) == expected

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(x=FLOATS, kind=st.sampled_from([float, np.float64]))
    def test_scalar_matches_reference(self, x, kind):
        assert to_json(kind(x)) == reference_format_float(x)

    @pytest.mark.parametrize("x", [np.float32(0.1), np.float32(-0.0), np.float16(3.5)])
    def test_narrow_float_scalar_matches_reference(self, x):
        assert to_json(x) == reference_format_float(x) == to_json(np.asarray(x))

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, np.float64(np.nan), np.float32(np.inf)])
    def test_non_finite_scalar_raises(self, x):
        with pytest.raises(ValueError, match="non-finite"):
            to_json({"residual": x})

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(a=hnp.arrays(float, SHAPES.filter(len), elements=FLOATS))
    def test_matches_reference_inside_documents(self, a):
        document = {"result": {"x": a, "maps": [a, a]}, "residuals": [0.5, -0.0]}
        reference = {"result": {"x": a.tolist(), "maps": [a.tolist()] * 2},
                     "residuals": [0.5, -0.0]}
        assert to_json(document) == reference_to_json(reference)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(a=hnp.arrays(float, SHAPES.filter(lambda s: np.prod(s) > 0), elements=FLOATS),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
    def test_non_finite_raises(self, a, bad, data):
        a = a.copy()
        a.flat[data.draw(st.integers(0, a.size - 1))] = bad
        with pytest.raises(ValueError):
            to_json(a)
