"""Jordan pairs over short graded algebras: triple products and Moore-Penrose inverses.

A short grading g = g_{-1} + g_0 + g_{+1} makes (g_{+1}, g_{-1}) a Jordan
pair under {x, y, z} = [[x, y], z] / 2.  The module provides the Killing
pairing Tr{x, y, .}, Cartan involutions (antilinear maps exchanging the two
components), the positive Hermitian form H(x, y) = B(x, omega(y)), and the
Moore-Penrose inverse characterized by

    (*)   {A A+ A} = A,  {A+ A A+} = A+,
    (**)  {A A+ .} and {A+ A .} are Hermitian for H.

The inverse is the third leg of an sl2-triple with Hermitian characteristic,
taken in closed form from :func:`graded.mp_inverse_short` and then verified
against the pair equations.  An independent solver of the pair equations (a
guarded Newton-Schulz iteration) lives with the tests as a uniqueness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotShortGrading, WrongComponent
from .graded import GradedAlgebra, _bracket_coords, _IndexBasis, bracket, mp_inverse_short
from .numcore import Report, Tolerance, as_matrix, frob

__all__ = [
    "JordanPair",
    "CartanInvolution",
    "triple_product",
    "killing_pairing",
    "pairing_matrix",
    "standard_cartan_involution",
    "cartan_involution_from_group",
    "mp_inverse_jordan",
    "verify_jordan_mp",
]


class JordanPair:
    """The pair (V+, V-) = (g_{+1}, g_{-1}) of a short graded algebra."""

    def __init__(self, algebra: GradedAlgebra):
        if not algebra.is_short:
            raise NotShortGrading(f"{algebra!r} has degrees {algebra.degrees}")
        if algebra.degree_dimension(1) == 0:
            raise NotShortGrading(f"{algebra!r} has trivial degree +1 part")
        self.algebra = algebra
        self.index_plus, self.index_minus = algebra._index_basis(1), algebra._index_basis(-1)
        self.basis_plus, self.basis_minus = self.index_plus.dense(), self.index_minus.dense()
        self.pairing = pairing_matrix(self)

    @property
    def dim(self) -> int:
        return self.index_plus.count

    def component_of(self, x, tol: Tolerance | None = None) -> int:
        """+1 or -1 depending on which component x lies in (0 for zero)."""
        degree = self.algebra.homogeneous_degree(x, tol)
        if degree is None:
            return 0
        if degree not in (-1, 1):
            raise WrongComponent(f"element has degree {degree}, not +-1")
        return degree

    def require_component(self, x, sign: int, tol: Tolerance | None = None) -> np.ndarray:
        x = as_matrix(x)
        got = self.component_of(x, tol)
        if got not in (0, sign):
            raise WrongComponent(f"element lies in V_{got:+d}, expected V_{sign:+d}")
        return x

    def _index(self, sign: int) -> _IndexBasis:
        return self.index_plus if sign > 0 else self.index_minus

    def coords(self, x, sign: int) -> np.ndarray:
        return self._index(sign).coords(as_matrix(x))

    def from_coords(self, v, sign: int) -> np.ndarray:
        return self._index(sign).combine(np.asarray(v, dtype=complex))

    def operator_matrix(self, x, y, sign: int) -> np.ndarray:
        """Coordinate matrix of z -> {x, y, z} on V_sign (x in V_sign, y opposite)."""
        basis = self._index(sign)
        xy = bracket(as_matrix(x), as_matrix(y))
        # column k holds the coordinates of the image of the k-th basis element
        return 0.5 * _bracket_coords(xy, basis, basis)


def triple_product(pair: JordanPair, x, y, z, tol: Tolerance | None = None) -> np.ndarray:
    """{x, y, z} = [[x, y], z] / 2 with x, z in one component and y in the other."""
    zero = np.zeros((pair.algebra.ambient_dim,) * 2, dtype=complex)
    sign = pair.component_of(x, tol) or pair.component_of(z, tol)
    if sign == 0:
        sign = 1
    x = pair.require_component(x, sign, tol)
    z = pair.require_component(z, sign, tol)
    y = pair.require_component(y, -sign, tol)
    if frob(x) == 0.0 or frob(y) == 0.0:
        # [[x,y],z] already vanishes; avoid needless work
        if frob(z) == 0.0:
            return zero
    return 0.5 * bracket(bracket(x, y), z)


def killing_pairing(pair: JordanPair, x, y, tol: Tolerance | None = None) -> complex:
    """B(x, y) = Tr of z -> {x, y, z} on the component of x."""
    sign = pair.component_of(x, tol)
    if sign == 0:
        return 0.0 + 0.0j
    x = pair.require_component(x, sign, tol)
    y = pair.require_component(y, -sign, tol)
    return complex(np.trace(pair.operator_matrix(x, y, sign)))


def pairing_matrix(pair: JordanPair) -> np.ndarray:
    """Matrix K[i, j] = B(b+_i, b-_j) of the Killing pairing in the fixed bases.

    Closed form K[i, j] = Tr(b-_j [P, b+_i]) / 2 with P = sum_k [b+_k, b+_k*],
    the trace of z -> [[x, y], z] / 2 over the orthonormal basis of V+.
    """
    plus = pair.basis_plus
    plus_h = plus.conj().transpose(0, 2, 1)
    p = (plus @ plus_h - plus_h @ plus).sum(axis=0)
    # the basis is real, so Tr(b M) is the coordinate along b of M^T
    return 0.5 * pair.index_minus.coords(pair.index_plus.brackets(p).transpose(0, 2, 1))


@dataclass(frozen=True)
class CartanInvolution:
    """Antilinear involution exchanging V+ and V-, stored as coordinate matrices.

    omega(x) for x in V+ has V- coordinates omega_plus @ conj(coords(x)), and
    symmetrically for omega_minus; omega is triple-product equivariant and
    H(x) = B(x, omega(x)) is positive definite.
    """

    omega_plus: np.ndarray
    omega_minus: np.ndarray

    def apply(self, pair: JordanPair, x, tol: Tolerance | None = None) -> np.ndarray:
        sign = pair.component_of(x, tol)
        if sign == 0:
            return np.zeros_like(as_matrix(x))
        mat = self.omega_plus if sign > 0 else self.omega_minus
        return pair.from_coords(mat @ pair.coords(x, sign).conj(), -sign)


def _involution_from_map(pair: JordanPair, apply) -> CartanInvolution:
    """Coordinate matrices of a map that takes a stack of V+ or V- basis matrices across."""
    return CartanInvolution(
        pair.index_minus.coords(apply(pair.basis_plus)).T,
        pair.index_plus.coords(apply(pair.basis_minus)).T,
    )


def standard_cartan_involution(pair: JordanPair) -> CartanInvolution:
    """The involution induced by the compact conjugation: omega(x) = adjoint(x)."""
    return _involution_from_map(pair, lambda x: x.conj().swapaxes(-1, -2))


def cartan_involution_from_group(pair: JordanPair, g) -> CartanInvolution:
    """Involution induced by the compact form conjugated with a Levi group element g."""
    g = as_matrix(g)
    g_inv = np.linalg.inv(g)
    return _involution_from_map(pair, lambda x: g @ (g_inv @ x @ g).conj().swapaxes(-1, -2) @ g_inv)


def gram_matrix(pair: JordanPair, inv: CartanInvolution, sign: int = 1) -> np.ndarray:
    """Gram matrix of H(x, y) = B(x, omega(y)) on the chosen component."""
    k = pair.pairing
    return k @ inv.omega_plus if sign > 0 else k.T @ inv.omega_minus


def mp_inverse_jordan(
    pair: JordanPair, inv: CartanInvolution, a, tol: Tolerance | None = None
) -> tuple[np.ndarray, Report]:
    """The unique element satisfying (*) and (**), via the short-grading closed form.

    Existence and uniqueness come with the short grading; the result is
    verified against the pair equations and returned with that report (a
    failing report raises ArithmeticError instead).
    """
    tol = tol or pair.algebra.tol
    pair.component_of(a, tol)  # WrongComponent unless a lies in V+ or V-
    x = mp_inverse_short(pair.algebra, a, tol)
    report = verify_jordan_mp(pair, inv, a, x, tol)
    if not report.passed:
        raise ArithmeticError(
            f"closed-form inverse failed the pair equations: {report.residuals}"
        )
    return x, report


def verify_jordan_mp(
    pair: JordanPair, inv: CartanInvolution, a, x, tol: Tolerance | None = None
) -> Report:
    """Residuals of (*) and the Hermitian defects of the two operators in (**)."""
    tol = tol or pair.algebra.tol
    a = as_matrix(a)
    x = as_matrix(x)
    sign = pair.component_of(a, tol)
    if sign == 0:
        sign = -pair.component_of(x, tol) or 1
    r1 = frob(triple_product(pair, a, x, a, tol) - a) / (1.0 + frob(a))
    r2 = frob(triple_product(pair, x, a, x, tol) - x) / (1.0 + frob(x))

    op_ax = pair.operator_matrix(a, x, sign)
    op_xa = pair.operator_matrix(x, a, -sign)
    gram_a = gram_matrix(pair, inv, sign)
    gram_x = gram_matrix(pair, inv, -sign)
    d1 = op_ax.T @ gram_a - gram_a @ op_ax.conj()
    d2 = op_xa.T @ gram_x - gram_x @ op_xa.conj()
    return Report.gated(
        {
            "recover_a": r1,
            "recover_x": r2,
            "hermitian_ax": frob(d1) / (1.0 + frob(gram_a) * frob(op_ax)),
            "hermitian_xa": frob(d2) / (1.0 + frob(gram_x) * frob(op_xa)),
        },
        tol,
    )
