import json

import numpy as np
import pytest

from liepinv.cli import EXIT_OK, EXIT_VERIFY, JobSpec, run_job
from liepinv.errors import ShapeMismatch, SymmetryViolation
from liepinv import forms
from liepinv.forms import (
    SKEW,
    SYMMETRIC,
    BilinearForm,
    PseudoEuclideanSpace,
    form_pinv,
    hermitian_pinv,
    pseudo_euclidean_pinv,
    pseudo_euclidean_triple,
    vector_pinv,
    vector_triple,
    verify_form_pinv,
    verify_hermitian_pinv,
    verify_pseudo_euclidean_pinv,
    verify_vector_pinv,
)
from liepinv.graded import GradedAlgebra, Sl2Triple
from liepinv.numcore import QuaternionMatrix, frob, rank_decomposition

from helpers import (
    form_pinv_annihilator,
    pseudo_euclidean_pinv_formula,
    pseudo_legs_by_hand,
    pseudo_report_by_hand,
    quaternion_adjoint,
    quaternion_matmul,
    random_complex,
    random_matrix_with_rank,
    random_quaternion_matrix,
)


def random_form(rng, symmetry, n, rank):
    a = random_matrix_with_rank(rng, n, n, rank) if rank else np.zeros((n, n), complex)
    gram = a + a.T if symmetry == SYMMETRIC else a - a.T
    return BilinearForm(symmetry, gram)


class TestFormPinv:
    def test_symmetric_diagonal(self):
        form = BilinearForm(SYMMETRIC, np.diag([2.0, 0.0]).astype(complex))
        out = form_pinv(form)
        assert out.symmetry == SYMMETRIC
        assert frob(out.gram - np.diag([0.5, 0.0])) < 1e-12

    def test_skew_invertible(self, tmp_path):
        j = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        out = form_pinv(BilinearForm(SKEW, j))
        assert frob(out.gram + j) < 1e-12
        # Q B Q^T, B with 2x2 blocks +-s: at cond 1e9 roundoff breaks the skew class of
        # pinv(W), and the averaged inverse fails the Penrose gate, a numerical failure
        q = np.linalg.qr(np.random.default_rng(1).standard_normal((12, 12)))[0]
        path = tmp_path / "form.json"
        for top, code in ((7, EXIT_OK), (9, EXIT_VERIFY)):
            b = np.kron(np.diag(np.logspace(0, top, 6)), j.real)
            path.write_text(json.dumps({"symmetry": SKEW, "gram": (q @ b @ q.T).tolist()}))
            assert run_job(JobSpec("form-pinv", str(path)))[0] == code

    def test_zero_form(self):
        out = form_pinv(BilinearForm(SYMMETRIC, np.zeros((3, 3))))
        assert frob(out.gram) == 0.0

    def test_symmetry_validated(self):
        with pytest.raises(SymmetryViolation):
            BilinearForm(SKEW, np.eye(2))

    def test_involution(self):
        rng = np.random.default_rng(70)
        for symmetry in (SYMMETRIC, SKEW):
            for _ in range(10):
                n = int(rng.integers(2, 7))
                rank = int(rng.integers(0, n + 1))
                form = random_form(rng, symmetry, n, rank)
                back = form_pinv(form_pinv(form))
                assert frob(back.gram - form.gram) <= 1e-8 * (1.0 + frob(form.gram))

    def test_agrees_with_annihilator_oracle(self):
        # every rank a form of each size can have: skew forms have even rank
        rng = np.random.default_rng(71)
        for symmetry, step in ((SYMMETRIC, 1), (SKEW, 2)):
            for n in range(1, 7):
                for rank in range(0, n + 1, step):
                    b = random_complex(rng, n, rank)
                    core = np.diag(random_complex(rng, rank)) if step == 1 else np.kron(
                        np.eye(rank // 2), [[0.0, 1.0], [-1.0, 0.0]])
                    form = BilinearForm(symmetry, b @ core @ b.T)
                    assert rank_decomposition(form.gram).rank == rank
                    out = form_pinv(form)
                    expected = form_pinv_annihilator(form.gram)
                    assert frob(out.gram - expected) <= 1e-10 * (1.0 + frob(expected))
                    assert verify_form_pinv(form, out).passed


class TestVectorPinv:
    def test_zero(self):
        assert frob(vector_pinv(np.zeros(3))) == 0.0

    def test_anisotropic(self):
        out = vector_pinv(np.array([3.0, 4.0]))
        assert frob(out - np.array([6.0 / 25.0, 8.0 / 25.0])) < 1e-14

    def test_isotropic(self):
        out = vector_pinv(np.array([1.0, 1.0j]))
        assert frob(out - np.array([0.5, -0.5j])) < 1e-14

    def test_involution_three_cases(self):
        rng = np.random.default_rng(72)
        vectors = [
            random_complex(rng, 4),                      # anisotropic a.s.
            np.array([1.0, 1.0j, 0.0, 0.0]),             # isotropic
            np.zeros(4, dtype=complex),
        ]
        z = random_complex(rng, 1)[0]
        vectors.append(np.array([z, 1j * z, 3.0, 4.0j]))  # random isotropic-ish mix
        for v in vectors:
            assert frob(vector_pinv(vector_pinv(v)) - v) <= 1e-10 * (1.0 + frob(v))

    def test_scaling(self):
        rng = np.random.default_rng(73)
        v = random_complex(rng, 3)
        for _ in range(5):
            c = random_complex(rng, 1)[0]
            assert frob(vector_pinv(c * v) - vector_pinv(v) / c) < 1e-12

    def test_sl2_embedding(self):
        rng = np.random.default_rng(74)
        for v in (random_complex(rng, 3), np.array([1.0, 1.0j]), random_complex(rng, 5)):
            report = verify_vector_pinv(v, vector_pinv(v))
            assert report.passed

    def test_triple_elements_live_in_grading(self):
        rng = np.random.default_rng(75)
        for v in (random_complex(rng, 1), np.array([3.0, 4.0]), random_complex(rng, 5)):
            alg = GradedAlgebra("so", (1, v.size, 1))
            w = vector_pinv(v)
            e, h, f = vector_triple(v, w)
            assert alg.membership_residual(e) < 1e-12
            assert alg.membership_residual(f) < 1e-12
            assert alg.homogeneous_degree(e) == 1
            assert alg.homogeneous_degree(f) == -1
            assert frob(alg.block_component(e, 1, 2) - v.reshape(1, -1)) == 0.0
            assert frob(alg.block_component(f, 2, 1) - w.reshape(-1, 1)) == 0.0
            t = Sl2Triple.from_elements(e, h, f)
            assert t.passes()
            assert frob(h - h.conj().T) < 1e-12


class TestPseudoEuclidean:
    def test_zero(self):
        space = PseudoEuclideanSpace(1, 1)
        assert frob(pseudo_euclidean_pinv(space, [0.0, 0.0])) == 0.0

    def test_timelike_unit(self):
        space = PseudoEuclideanSpace(1, 1)
        out = pseudo_euclidean_pinv(space, [1.0, 0.0])
        assert frob(out - np.array([-1.0, 0.0])) < 1e-14

    def test_null_vector(self):
        space = PseudoEuclideanSpace(1, 1)
        out = pseudo_euclidean_pinv(space, [1.0, 1.0])
        assert frob(out - np.array([-0.25, 0.25])) < 1e-14

    def test_involution(self):
        rng = np.random.default_rng(75)
        space = PseudoEuclideanSpace(2, 2)
        vectors = [rng.standard_normal(4) for _ in range(5)]
        vectors.append(np.array([1.0, 0.0, 1.0, 0.0]))  # null
        for v in vectors:
            back = pseudo_euclidean_pinv(space, pseudo_euclidean_pinv(space, v))
            assert frob(back - v) <= 1e-10 * (1.0 + frob(v))

    def test_sl2_with_symmetric_characteristic(self):
        rng = np.random.default_rng(76)
        for n, m in [(1, 1), (2, 1), (2, 3)]:
            space = PseudoEuclideanSpace(n, m)
            for _ in range(5):
                v = rng.standard_normal(n + m)
                report = verify_pseudo_euclidean_pinv(space, v, pseudo_euclidean_pinv(space, v))
                assert report.passed
            null = np.zeros(n + m)
            null[0] = 1.0
            null[n] = 1.0
            report = verify_pseudo_euclidean_pinv(space, null, pseudo_euclidean_pinv(space, null))
            assert report.passed

    def test_triple_is_real(self):
        space = PseudoEuclideanSpace(2, 1)
        v = np.array([1.0, 2.0, 3.0])
        e, h, f = pseudo_euclidean_triple(space, v, pseudo_euclidean_pinv(space, v))
        assert frob(h.imag) == 0.0
        assert frob(h - h.T) < 1e-12
        assert Sl2Triple.from_elements(e, h, f).passes()


EPS = np.finfo(float).eps
SIGNATURES = [(4, 0), (0, 3), (1, 1), (3, 2), (6, 4), (30, 20)]


def pseudo_cases(space, rng):
    """(v, kind) at unit scale: generic, near the null cone, null and zero vectors.

    A near-cone v has |{v,v}| / |v|^2 about delta, from 1e-4 down to 1e-8.
    """
    n, m = space.n, space.m
    yield rng.standard_normal(n + m), "off"
    yield rng.standard_normal(n + m) * np.repeat([1.0, 1e-3], [n, m]), "off"
    if n and m:
        x, y = rng.standard_normal(n), rng.standard_normal(m)
        x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        for delta in (1e-4, 1e-6, 1e-8):
            yield np.concatenate([x, y * np.sqrt(1.0 - delta)]), "off"
        yield np.concatenate([x, y]), "null"
        yield np.concatenate([[1.0], np.zeros(n - 1), [1.0], np.zeros(m - 1)]), "null"
    yield np.zeros(n + m), "zero"


class TestPseudoEuclideanIsTheVectorRoute:
    """pseudo_euclidean_pinv is Re(-conj(D) vector_pinv(D v) / 2), and its legs are the
    vector legs times S = diag(1, s, 1): both checked against the three-case formula and
    the so(n+1, m+1) legs written out by hand."""

    @pytest.mark.parametrize("n, m", SIGNATURES)
    @pytest.mark.parametrize("scale", [1e-250, 1.0, 1e250])
    def test_inverse_matches_the_three_case_formula(self, n, m, scale):
        space = PseudoEuclideanSpace(n, m)
        for v, kind in pseudo_cases(space, np.random.default_rng(n + 10 * m)):
            v = v * scale
            got, want = pseudo_euclidean_pinv(space, v), pseudo_euclidean_pinv_formula(space, v)
            assert got.dtype == np.float64
            if kind == "zero":
                assert np.array_equal(got, want) and not got.any()
                continue
            if kind == "null":
                # -Iv / (2 (v, v)) is perfectly conditioned: the two routes differ by the
                # order |v|^2 is summed in and by a division taken through its reciprocal
                bound = 8.0 * EPS
            else:
                unit = v / np.abs(v).max()
                bound = 8.0 * EPS * (unit @ unit) / abs(unit[:n] @ unit[:n] - unit[n:] @ unit[n:])
            assert frob(got - want) <= bound * frob(want), (kind, v)

    @pytest.mark.parametrize("n, m", SIGNATURES)
    def test_legs_and_reports_are_bit_identical(self, n, m):
        space = PseudoEuclideanSpace(n, m)
        rng = np.random.default_rng(100 + n + 10 * m)
        for v, _ in pseudo_cases(space, rng):
            for w in (pseudo_euclidean_pinv(space, v), pseudo_euclidean_pinv_formula(space, v),
                      rng.standard_normal(n + m)):
                for got, want in zip(forms._pseudo_legs(space, v, w),
                                     pseudo_legs_by_hand(space, v, w)):
                    assert got.dtype == np.float64 and np.array_equal(got, want)
                report = verify_pseudo_euclidean_pinv(space, v, w)
                assert report == pseudo_report_by_hand(space, v, w)

    @pytest.mark.parametrize("n, m", SIGNATURES)
    def test_triple_is_real_with_symmetric_h(self, n, m):
        space = PseudoEuclideanSpace(n, m)
        for v, _ in pseudo_cases(space, np.random.default_rng(200 + n + 10 * m)):
            e, h, f = pseudo_euclidean_triple(space, v, pseudo_euclidean_pinv(space, v))
            assert all(x.dtype == np.float64 for x in (e, h, f))
            # h = ef - fe is symmetric up to the roundoff of its products
            assert frob(h - h.T) <= 1e-12 * frob(e) * frob(f)


class TestHermitianPinv:
    def test_own_inverse(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        assert frob(hermitian_pinv(a) - a) < 1e-12

    def test_spectral_inversion(self):
        a = np.diag([2.0, 0.0]).astype(complex)
        assert frob(hermitian_pinv(a) - np.diag([0.5, 0.0])) < 1e-12

    def test_real_skew(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert frob(hermitian_pinv(a) - np.array([[0.0, -1.0], [1.0, 0.0]])) < 1e-12

    def test_rejects_unstructured(self):
        with pytest.raises(SymmetryViolation):
            hermitian_pinv(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        rng = np.random.default_rng(76)
        for a in (np.ones((2, 3)), np.zeros((1, 0)), random_quaternion_matrix(rng, 1, 2)):
            with pytest.raises(ShapeMismatch, match="square"):
                hermitian_pinv(a)
            with pytest.raises(ShapeMismatch, match="square"):
                x = quaternion_adjoint(a) if isinstance(a, QuaternionMatrix) else a.T
                verify_hermitian_pinv(a, x)

    def test_commutator_property(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            r = int(rng.integers(1, n + 1))
            base = random_matrix_with_rank(rng, n, r, r)
            a = base @ base.conj().T  # Hermitian, rank r
            x = hermitian_pinv(a)
            assert frob(a @ x - x @ a) <= 1e-9 * (1.0 + frob(a) * frob(x))
            report = verify_hermitian_pinv(a, x)
            assert report.passed

    def test_skew_hermitian_class_preserved(self):
        rng = np.random.default_rng(78)
        base = random_complex(rng, 4, 4)
        a = base - base.conj().T
        x = hermitian_pinv(a)
        assert frob(x + x.conj().T) < 1e-12
        assert verify_hermitian_pinv(a, x).passed

    def test_quaternion_hermitian(self):
        rng = np.random.default_rng(79)
        q = random_quaternion_matrix(rng, 3, 3)
        a = quaternion_matmul(q, quaternion_adjoint(q))
        x = hermitian_pinv(a)
        assert verify_hermitian_pinv(a, x).passed
