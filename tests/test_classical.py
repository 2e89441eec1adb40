import numpy as np
import pytest

from liepinv.classical import (
    pinv,
    pinv_quaternion,
    pinv_real,
    verify_penrose,
)
from liepinv.errors import ShapeMismatch
from liepinv.numcore import QuaternionMatrix, frob, rank_decomposition

from helpers import (
    pinv_factorization,
    random_complex,
    random_matrix_with_rank,
    random_quaternion_matrix,
    random_unitary,
)


class TestPinvExamples:
    def test_identity(self):
        assert frob(pinv(np.eye(2)) - np.eye(2)) < 1e-14

    def test_zero(self):
        out = pinv(np.zeros((2, 3)))
        assert out.shape == (3, 2) and frob(out) == 0.0

    def test_row_vector(self):
        out = pinv([[1.0, 2.0]])
        assert frob(out - np.array([[0.2], [0.4]])) < 1e-14

    def test_empty(self):
        assert pinv(np.zeros((0, 3))).shape == (3, 0)

    def test_real_examples(self):
        assert frob(pinv_real([[3.0, 4.0]]) - np.array([[0.12], [0.16]])) < 1e-14
        proj = np.diag([1.0, 0.0])
        assert frob(pinv_real(proj) - proj) < 1e-14
        assert pinv_real([[0.0]])[0, 0] == 0.0
        assert pinv_real([[3.0, 4.0]]).dtype == float

    def test_quaternion_examples(self):
        out = pinv_quaternion(QuaternionMatrix([[[0, 1, 1, 0]]]))
        assert frob(out.data - [[[0, -0.5, -0.5, 0]]]) <= 1e-12
        eye = QuaternionMatrix(np.eye(2)[:, :, None] * [1.0, 0.0, 0.0, 0.0])
        assert frob(pinv_quaternion(eye).data - eye.data) <= 1e-12
        zero = pinv_quaternion(QuaternionMatrix(np.zeros((1, 2, 4))))
        assert zero.shape == (2, 1)
        assert frob(zero.data) == 0.0


class TestVerifyPenrose:
    def test_identity_pair(self):
        assert verify_penrose(np.eye(2), np.eye(2)).passed

    def test_constructed_pair_and_factorization_oracle(self):
        rng = np.random.default_rng(20)
        a = random_matrix_with_rank(rng, 4, 3, 2)
        assert verify_penrose(a, pinv(a)).passed
        assert verify_penrose(a, pinv_factorization(a)).passed

    def test_adjoint_is_not_an_inverse(self):
        a = np.array([[2.0]])
        report = verify_penrose(a, a.conj().T)
        assert not report.passed
        assert report.residuals["recover_a"] > 0.1  # 2*2*2 = 8 != 2

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            verify_penrose(np.eye(2), np.zeros((3, 2)))

    def test_passed_symmetric_under_swap(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = random_matrix_with_rank(rng, 4, 3, int(rng.integers(0, 4)))
            x = pinv(a) if rng.random() < 0.5 else random_complex(rng, 3, 4)
            assert verify_penrose(a, x).passed == verify_penrose(x, a).passed


class TestPinvProperties:
    def shapes(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            r = int(rng.integers(0, min(m, n) + 1))
            yield rng, random_matrix_with_rank(rng, m, n, r), r

    def test_involution(self):
        for rng, a, _ in self.shapes():
            assert frob(pinv(pinv(a)) - a) <= 1e-8 * (1.0 + frob(a))

    def test_uniqueness_two_routes(self):
        for rng, a, _ in self.shapes():
            x1 = pinv(a)
            x2 = pinv_factorization(a)
            assert frob(x1 - x2) <= 1e-9 * (1.0 + frob(x1))

    def test_unitary_equivariance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            a = random_matrix_with_rank(rng, m, n, int(rng.integers(0, min(m, n) + 1)))
            u = random_unitary(rng, m)
            v = random_unitary(rng, n)
            lhs = pinv(u @ a @ v.conj().T)
            rhs = v @ pinv(a) @ u.conj().T
            assert frob(lhs - rhs) <= 1e-8 * (1.0 + frob(rhs))

    def test_adjoint_commutes(self):
        for rng, a, _ in self.shapes():
            assert frob(pinv(a.conj().T) - pinv(a).conj().T) < 1e-10 * (1.0 + frob(a))

    def test_rank_preserved(self):
        for rng, a, r in self.shapes():
            assert rank_decomposition(pinv(a)).rank == r

    def test_quaternion_matches_embedding(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            q = random_quaternion_matrix(rng, 3, 2)
            assert frob(pinv_quaternion(q).embed() - pinv(q.embed())) < 1e-12
