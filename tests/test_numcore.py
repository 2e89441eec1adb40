import numpy as np
import pytest

from liepinv import classical, forms, homform, jordan
from liepinv.errors import EmbeddingMismatch, InconsistentConstraints, ShapeMismatch
from liepinv.graded import GradedAlgebra
from liepinv.numcore import (
    DEFAULT_TOL,
    QuaternionMatrix,
    Report,
    Tolerance,
    as_matrix,
    frob,
    rank_decomposition,
    solve_least_squares_constrained,
)

from helpers import (
    quaternion_adjoint,
    quaternion_matmul,
    random_complex,
    random_matrix_with_rank,
    random_quaternion_matrix,
    random_unitary,
)


def vanishing_on_kernel(seed: int):
    """(m, c): c is one unit row, and m vanishes on the line ker c up to roundoff only."""
    rng = np.random.default_rng(seed)
    c = random_unitary(rng, 2)[:, :1].conj().T
    return random_complex(rng, 3, 1) @ c, c


class TestTolerance:
    def test_defaults(self):
        assert DEFAULT_TOL.rank_rtol == 1e-10
        assert DEFAULT_TOL.residual_tol == 1e-9

    @pytest.mark.parametrize("bad", [0.0, -1e-5, 2e-3, 1.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Tolerance(rank_rtol=bad)
        with pytest.raises(ValueError):
            Tolerance(residual_tol=bad)


class TestFrob:
    @pytest.mark.parametrize("t", [1e-320, 1e-300, 1e-200, 1e-150, 1.0, 1e150, 1e200, 1e300])
    def test_any_finite_scale(self, t):
        # complex entries, one of them subnormal at t = 1e-320
        a = np.array([[3.0, 4.0j], [0.0, 0.0]]) * t
        assert abs(frob(a) - 5.0 * t) <= 1e-15 * 5.0 * t

    def test_zero_and_non_finite(self):
        assert frob(np.zeros((2, 2))) == 0.0
        assert frob(np.zeros((0, 3))) == 0.0
        assert frob(np.array([1.0, np.inf])) == np.inf
        assert np.isnan(frob(np.array([1e-200, np.nan])))


class TestReport:
    def test_max_residual_flattens_lists_and_skips_verdicts(self):
        report = Report({"a": 1e-12, "b": [3e-10, 2e-11], "ok": True}, passed=True)
        assert report.max_residual() == 3e-10
        assert Report({}, passed=True).max_residual() == 0.0

    def test_gated_passes_only_when_every_residual_is_within_tolerance(self):
        assert Report.gated({"a": 1e-12, "b": [1e-9, 0.0]}, DEFAULT_TOL).passed is True
        assert Report.gated({"a": 1e-12, "b": [2e-9, 0.0]}, DEFAULT_TOL).passed is False

    def test_nan_fails_wherever_it_sits(self):
        for residuals in ({"a": np.nan, "b": 0.0}, {"a": 0.0, "b": np.nan},
                          {"a": 0.0, "b": [0.0, np.nan]}):
            report = Report.gated(residuals, DEFAULT_TOL)
            assert report.passed is False
            assert np.isnan(report.max_residual())


class TestAsMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 1.0]])


class TestRankDecomposition:
    def test_zero_matrix(self):
        dec = rank_decomposition(np.zeros((2, 3)))
        assert dec.rank == 0
        assert dec.kernel.shape == (3, 3)
        assert dec.image.shape == (2, 0)
        assert frob(dec.kernel.conj().T @ dec.kernel - np.eye(3)) < 1e-14

    def test_identity(self):
        dec = rank_decomposition(np.eye(2))
        assert dec.rank == 2
        assert dec.kernel.shape == (2, 0)

    def test_rank_one_kernel_direction(self):
        dec = rank_decomposition(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert dec.rank == 1
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        v = dec.kernel[:, 0]
        assert min(frob(v - expected), frob(v + expected)) < 1e-14

    def test_empty_shapes(self):
        dec = rank_decomposition(np.zeros((0, 4)))
        assert dec.rank == 0 and dec.kernel.shape == (4, 4)
        dec = rank_decomposition(np.zeros((4, 0)))
        assert dec.rank == 0 and dec.kernel.shape == (0, 0) and dec.image.shape == (4, 0)

    @pytest.mark.parametrize("shape,rank", [((5, 3), 2), ((3, 6), 3), ((4, 4), 1)])
    def test_properties_on_prescribed_rank(self, shape, rank):
        rng = np.random.default_rng(hash(shape) % 2**32)
        a = random_matrix_with_rank(rng, *shape, rank)
        dec = rank_decomposition(a)
        assert dec.rank == rank
        assert dec.rank + dec.kernel.shape[1] == shape[1]
        assert frob(a @ dec.kernel) <= DEFAULT_TOL.residual_tol * (1.0 + frob(a))
        assert frob(dec.image.conj().T @ dec.image - np.eye(rank)) < 1e-13

    @pytest.mark.parametrize("shape,rank", [((5, 3), 2), ((3, 6), 3), ((4, 4), 1), ((3, 3), 0)])
    def test_coimage_complements_the_kernel(self, shape, rank):
        rng = np.random.default_rng(sum(shape) + 10 * rank)
        a = random_matrix_with_rank(rng, *shape, rank)
        dec = rank_decomposition(a)
        assert dec.coimage.shape == (shape[1], rank)
        assert frob(dec.coimage.conj().T @ dec.coimage - np.eye(rank)) < 1e-13
        assert frob(dec.kernel.conj().T @ dec.coimage) < 1e-13
        assert rank_decomposition(a @ dec.coimage).rank == rank

    def test_named_scale_ranks_roundoff_as_zero(self):
        # m @ ker(c) is roundoff: at the scale of m it has rank 0, at its own sigma_max rank 1
        m, c = vanishing_on_kernel(71)
        product = m @ rank_decomposition(c).kernel
        assert 0.0 < frob(product) < 1e-14 * frob(m)
        assert rank_decomposition(product, DEFAULT_TOL, frob(m)).rank == 0
        assert rank_decomposition(product).rank == 1

    @pytest.mark.parametrize("shape", [(5, 3), (3, 6), (4, 4)])
    def test_frobenius_shortcut_is_the_rank_rule(self, shape):
        # |a|_F <= rank_rtol * scale gives rank 0 without an SVD; it is exact, since
        # sigma_max <= |a|_F, and sigma_max just above the cut still counts
        rng = np.random.default_rng(sum(shape))
        a, scale = random_complex(rng, *shape), 3.0
        cut = DEFAULT_TOL.rank_rtol * scale
        dec = rank_decomposition(0.999 * cut / frob(a) * a, DEFAULT_TOL, scale)
        assert dec.rank == 0 and dec.image.shape == (shape[0], 0)
        assert dec.coimage.shape == (shape[1], 0)
        assert frob(dec.kernel.conj().T @ dec.kernel - np.eye(shape[1])) < 1e-14
        top = np.linalg.svd(a, compute_uv=False)[0]
        assert rank_decomposition(1.001 * cut / top * a, DEFAULT_TOL, scale).rank >= 1

    def test_coimage_of_empty_input(self):
        assert rank_decomposition(np.zeros((0, 4))).coimage.shape == (4, 0)
        assert rank_decomposition(np.zeros((4, 0))).coimage.shape == (0, 0)


class TestConstrainedLeastSquares:
    def test_unconstrained_minimal_norm(self):
        x = solve_least_squares_constrained(
            np.eye(3), np.zeros(3), np.zeros((0, 3)), np.zeros(0)
        )
        assert frob(x) == 0.0

    def test_symmetric_projection(self):
        x = solve_least_squares_constrained(
            np.zeros((0, 2)), np.zeros(0), np.array([[1.0, 1.0]]), np.array([2.0])
        )
        assert frob(x - np.array([1.0, 1.0])) < 1e-12

    def test_projection_onto_line(self):
        x = solve_least_squares_constrained(
            np.eye(2), np.array([3.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0])
        )
        assert frob(x - np.array([1.5, 1.5])) < 1e-12

    def test_objective_vanishing_on_a_one_dimensional_kernel(self):
        # the reduced problem is one column of roundoff, ranked 0 at |M|_F: x is the
        # minimal-norm solution of the constraints alone, not roundoff inverted
        m, c = vanishing_on_kernel(71)
        t = random_complex(np.random.default_rng(72), 3)
        x = solve_least_squares_constrained(m, t, c, [2.0])
        assert frob(x - 2.0 * c.conj().reshape(-1)) < 1e-12

    def test_inconsistent_constraints(self):
        with pytest.raises(InconsistentConstraints):
            solve_least_squares_constrained(
                np.eye(2),
                np.zeros(2),
                np.array([[1.0, 0.0], [1.0, 0.0]]),
                np.array([1.0, 2.0]),
            )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            solve_least_squares_constrained(
                np.eye(2), np.zeros(2), np.eye(3), np.zeros(3)
            )

    def test_feasible_perturbations_never_improve(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            p = int(rng.integers(1, 5))
            q = int(rng.integers(0, n))
            m = random_complex(rng, p, n)
            t = random_complex(rng, p)
            c = random_matrix_with_rank(rng, q, n, min(q, n - 1)) if q else np.zeros((0, n))
            x_feas = random_complex(rng, n)
            d = c @ x_feas
            x = solve_least_squares_constrained(m, t, c, d)
            base = frob(m @ x - t)
            kernel = rank_decomposition(c).kernel
            for _ in range(3):
                if kernel.shape[1] == 0:
                    break
                step = kernel @ random_complex(rng, kernel.shape[1])
                assert frob(m @ (x + step) - t) >= base - 1e-9 * (1.0 + base)


class TestQuaternions:
    @staticmethod
    def scalar(a, b, c, d) -> QuaternionMatrix:
        """The quaternion a + b i + c j + d k as a 1x1 matrix."""
        return QuaternionMatrix([[[a, b, c, d]]])

    def test_hamilton_table(self):
        one, i, j, k = (self.scalar(*row) for row in np.eye(4))
        assert np.array_equal(quaternion_matmul(i, j).data, k.data)
        assert np.array_equal(quaternion_matmul(j, k).data, i.data)
        assert np.array_equal(quaternion_matmul(k, i).data, j.data)
        assert np.array_equal(quaternion_matmul(j, i).data, -k.data)
        for unit in (i, j, k):
            assert np.array_equal(quaternion_matmul(unit, unit).data, -one.data)

    def test_conjugation_involution(self):
        q = self.scalar(1.0, -2.0, 3.0, 0.5)
        assert np.array_equal(quaternion_adjoint(q).data, [[[1.0, 2.0, -3.0, -0.5]]])
        assert np.array_equal(quaternion_adjoint(quaternion_adjoint(q)).data, q.data)
        # q q* = |q|^2, real
        square = quaternion_matmul(q, quaternion_adjoint(q))
        assert np.array_equal(square.data, [[[14.25, 0, 0, 0]]])

    def test_embedding_is_homomorphism(self):
        rng = np.random.default_rng(12)
        for rows, inner, cols in [(1, 1, 1), (2, 3, 2), (4, 2, 4), (3, 4, 4)]:
            p = random_quaternion_matrix(rng, rows, inner)
            q = random_quaternion_matrix(rng, inner, cols)
            lhs = quaternion_matmul(p, q).embed()
            rhs = p.embed() @ q.embed()
            assert frob(lhs - rhs) < 1e-12 * (1.0 + frob(rhs))

    def test_embedding_intertwines_adjoints(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            p = random_quaternion_matrix(rng, 3, 4)
            assert frob(quaternion_adjoint(p).embed() - p.embed().conj().T) < 1e-13

    def test_embedding_roundtrip(self):
        rng = np.random.default_rng(14)
        p = random_quaternion_matrix(rng, 2, 3)
        assert frob(QuaternionMatrix.from_embedding(p.embed()).data - p.data) <= 1e-12

    def test_from_embedding_rejects_garbage(self):
        rng = np.random.default_rng(15)
        z = random_complex(rng, 4, 4)
        with pytest.raises(EmbeddingMismatch):
            QuaternionMatrix.from_embedding(z)
        with pytest.raises(EmbeddingMismatch):
            QuaternionMatrix.from_embedding(random_complex(rng, 3, 3))



def _verifier_case(name, rng, t):
    """(verify, t * a, its inverse, a random candidate of the scale of t * a) for one verifier."""
    if name == "penrose":
        a = random_matrix_with_rank(rng, 4, 3, 2)
        a = t * a / frob(a)
        return classical.verify_penrose, a, classical.pinv(a), t * random_complex(rng, 3, 4)
    if name == "hermitian":
        h, x = random_matrix_with_rank(rng, 4, 4, 3), random_complex(rng, 4, 4)
        h, x = h + h.conj().T, x + x.conj().T
        h, x = t * h / frob(h), t * x / frob(x)
        return forms.verify_hermitian_pinv, h, forms.hermitian_pinv(h), x
    if name == "homform":
        form = forms.BilinearForm(forms.SYMMETRIC, np.eye(3))
        f = random_complex(rng, 3, 2)
        f = t * f / frob(f)
        return (lambda a, x: homform.verify_homform(form, a, x), f,
                homform.mp_inverse_homform(form, f)[0], t * random_complex(rng, 2, 3))
    alg = GradedAlgebra("sl", (2, 3))
    pair = jordan.JordanPair(alg)
    inv = jordan.standard_cartan_involution(pair)
    e, y = alg.random_element(1, rng), alg.random_element(-1, rng)
    e, y = t * e / frob(e), t * y / frob(y)
    return (lambda a, x: jordan.verify_jordan_mp(pair, inv, a, x), e,
            jordan.mp_inverse_jordan(pair, inv, e)[0], y)


class TestVerifiersAreNotVacuous:
    """At small scale the inverse passes and a random candidate of the scale of a fails: the
    residuals are taken on the unit-scale pair, not against 1 + |x| at the input's scale.
    verify_form_pinv is verify_penrose on the Gram matrices."""

    @pytest.mark.parametrize("t", [1e-10, 1e-300])
    @pytest.mark.parametrize("name", ["penrose", "hermitian", "homform", "jordan"])
    def test_random_candidate_fails(self, name, t):
        verify, a, inverse, candidate = _verifier_case(name, np.random.default_rng(7), t)
        assert verify(a, inverse).passed
        assert not verify(a, candidate).passed
