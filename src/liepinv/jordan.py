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
from .graded import GradedAlgebra, _bracket, _mp_inverse_short, bracket
from .numcore import DEFAULT_TOL, Report, Tolerance, _ldexp, as_matrix, frob

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
    """The pair (V+, V-) = (g_{+1}, g_{-1}) of a short graded algebra.

    The dense bases ``basis_plus`` and ``basis_minus`` and the ``pairing`` depend on
    the algebra alone: they are built once per process and shared, read-only.
    """

    def __init__(self, algebra: GradedAlgebra):
        if not algebra.is_short:
            raise NotShortGrading(f"{algebra!r} has degrees {algebra.degrees}")
        if algebra.degree_dimension(1) == 0:
            raise NotShortGrading(f"{algebra!r} has trivial degree +1 part")
        self.algebra = algebra
        self.index_plus, self.index_minus = algebra._index_basis(1), algebra._index_basis(-1)
        self.basis_plus, self.basis_minus = algebra._derived(
            "jordan.bases", lambda: (self.index_plus.dense(), self.index_minus.dense()))
        self.pairing = pairing_matrix(self)

    def component_of(self, x, tol: Tolerance = DEFAULT_TOL) -> int:
        """+1 or -1 depending on which component x lies in (0 for zero)."""
        return self._component(self.algebra._unit_member(x, tol)[1], tol)

    def require_component(self, x, sign: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        x, unit, _ = self.algebra._unit_member(x, tol)
        self._component(unit, tol, sign)
        return x

    def _component(self, x: np.ndarray, tol: Tolerance, expect: int = 0) -> int:
        """component_of a member at unit scale; WrongComponent if it is nonzero outside V_expect."""
        degree = self.algebra._degree(x, tol)
        if degree is None:
            return 0
        if degree not in (-1, 1):
            raise WrongComponent(f"element has degree {degree}, not +-1")
        if expect and degree != expect:
            raise WrongComponent(f"element lies in V_{degree:+d}, expected V_{expect:+d}")
        return degree

    def _index(self, sign: int):
        return self.index_plus if sign > 0 else self.index_minus

    def coords(self, x, sign: int) -> np.ndarray:
        return self._index(sign).coords(as_matrix(x))

    def from_coords(self, v, sign: int) -> np.ndarray:
        return self._index(sign).combine(np.asarray(v, dtype=complex))

    def operator_matrix(self, x, y, sign: int) -> np.ndarray:
        """Coordinate matrix of z -> {x, y, z} on V_sign (x in V_sign, y opposite):
        column k holds the coordinates of [[x, y], b_k] / 2."""
        return 0.5 * self._index(sign).ad(bracket(x, y))


def triple_product(pair: JordanPair, x, y, z, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """{x, y, z} = [[x, y], z] / 2 with x, z in one component and y in the other."""
    (x, ux, _), (y, uy, _), (z, uz, _) = (pair.algebra._unit_member(m, tol) for m in (x, y, z))
    sign = pair._component(ux, tol)
    sign = pair._component(uz, tol, sign) or sign or 1  # x = 0 takes the side of z
    pair._component(uy, tol, -sign)
    return 0.5 * _bracket(_bracket(x, y), z)


def killing_pairing(pair: JordanPair, x, y, tol: Tolerance = DEFAULT_TOL) -> complex:
    """B(x, y) = Tr of z -> {x, y, z} on the component of x: c Tr(xy) / 4, as in
    :func:`pairing_matrix`."""
    (x, ux, _), (y, uy, _) = (pair.algebra._unit_member(m, tol) for m in (x, y))
    sign = pair._component(ux, tol)
    pair._component(uy, tol, -sign)  # y lies in V+ or V- even when x = 0
    return complex(pair.algebra.killing_constant / 4.0 * np.sum(x * y.T))


def pairing_matrix(pair: JordanPair) -> np.ndarray:
    """Matrix K[i, j] = B(b+_i, b-_j) of the Killing pairing in the fixed bases.

    Closed form K[i, j] = c Tr(b+_i b-_j) / 4: a short grading has no degree +-2,
    so B is a quarter of the Killing form c Tr(xy).  K depends on the algebra alone:
    it is built once per process and shared, read-only.
    """
    # the basis is real, so Tr(b M) is the coordinate along b of M^T
    c = pair.algebra.killing_constant
    return pair.algebra._derived(
        "jordan.pairing", lambda: c / 4.0 * pair.index_minus.coords(pair.basis_plus.transpose(0, 2, 1)))


@dataclass(frozen=True)
class CartanInvolution:
    """Antilinear involution exchanging V+ and V-, stored as coordinate matrices.

    omega(x) for x in V+ has V- coordinates omega_plus @ conj(coords(x)), and
    symmetrically for omega_minus; omega is triple-product equivariant and
    H(x) = B(x, omega(x)) is positive definite.
    """

    omega_plus: np.ndarray
    omega_minus: np.ndarray

    def apply(self, pair: JordanPair, x, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        x, unit, _ = pair.algebra._unit_member(x, tol)
        sign = pair._component(unit, tol)
        if sign == 0:
            return np.zeros_like(x)
        mat = self.omega_plus if sign > 0 else self.omega_minus
        return pair.from_coords(mat @ pair._index(sign).coords(x).conj(), -sign)


def _involution_matrices(pair: JordanPair, apply) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate matrices of a map that takes a stack of V+ or V- basis matrices across."""
    return (
        pair.index_minus.coords(apply(pair.basis_plus)).T,
        pair.index_plus.coords(apply(pair.basis_minus)).T,
    )


def standard_cartan_involution(pair: JordanPair) -> CartanInvolution:
    """The involution induced by the compact conjugation: omega(x) = x*, the adjoint.

    Its matrices depend on the algebra alone: they are built once per process and
    shared, read-only.
    """
    return CartanInvolution(*pair.algebra._derived(
        "jordan.omega", lambda: _involution_matrices(pair, lambda x: x.conj().swapaxes(-1, -2))))


def cartan_involution_from_group(pair: JordanPair, g) -> CartanInvolution:
    """Involution induced by the compact form conjugated with a Levi group element g."""
    g = as_matrix(g)
    g_inv = np.linalg.inv(g)
    return CartanInvolution(*_involution_matrices(
        pair, lambda x: g @ (g_inv @ x @ g).conj().swapaxes(-1, -2) @ g_inv))


def gram_matrix(pair: JordanPair, inv: CartanInvolution, sign: int = 1) -> np.ndarray:
    """Gram matrix of H(x, y) = B(x, omega(y)) on the chosen component."""
    k = pair.pairing
    return k @ inv.omega_plus if sign > 0 else k.T @ inv.omega_minus


def mp_inverse_jordan(
    pair: JordanPair, inv: CartanInvolution, a, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, Report]:
    """The unique element satisfying (*) and (**), via the short-grading closed form.

    Existence and uniqueness come with the short grading; the result is
    verified against the pair equations and returned with that report (a
    failing report raises ArithmeticError instead).
    """
    a, unit, k = pair.algebra._unit_member(a, tol)
    sign = pair._component(unit, tol)  # WrongComponent unless a lies in V+ or V-
    x = _ldexp(_mp_inverse_short(pair.algebra, unit, sign or None, tol), -k)
    report = verify_jordan_mp(pair, inv, a, x, tol)
    if not report.passed:
        raise ArithmeticError(
            f"closed-form inverse failed the pair equations: {report.residuals}"
        )
    return x, report


def verify_jordan_mp(
    pair: JordanPair, inv: CartanInvolution, a, x, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Residuals of (*) and the Hermitian defects of the two operators in (**).

    The component of a is decided once and that of x is required once; then
    {a x a} and {x a x} come from the one commutator [a, x] of the unit pair.
    """
    (a, ua, k), (x, ux, _) = (pair.algebra._unit_member(m, tol) for m in (a, x))
    sign = pair._component(ua, tol)
    sign = -pair._component(ux, tol, -sign) or sign or 1  # a = 0 takes the side opposite x
    a, x = ua, x * np.ldexp(1.0, k)  # the unit pair (a / 2**k, x * 2**k)
    ax = _bracket(a, x)
    residuals = {
        "recover_a": frob(0.5 * _bracket(ax, a) - a) / (1.0 + frob(a)),
        "recover_x": frob(0.5 * _bracket(-ax, x) - x) / (1.0 + frob(x)),  # -ax is x a - a x
    }
    for name, y, z, side in (("hermitian_ax", a, x, sign), ("hermitian_xa", x, a, -sign)):
        op, gram = pair.operator_matrix(y, z, side), gram_matrix(pair, inv, side)
        residuals[name] = frob(op.T @ gram - gram @ op.conj()) / (1.0 + frob(gram) * frob(op))
    return Report.gated(residuals, tol)
