"""Jordan pairs over short graded algebras: triple products and Moore-Penrose inverses.

A short grading g = g_{-1} + g_0 + g_{+1} makes (g_{+1}, g_{-1}) a Jordan
pair under {x, y, z} = [[x, y], z] / 2.  The module provides the Killing
pairing Tr{x, y, .}, Cartan involutions omega(z) = P z* P^-1 (antilinear
maps exchanging the two components, P an ambient positive form), the
positive Hermitian form H(x, y) = B(x, omega(y)), and the Moore-Penrose
inverse characterized by

    (*)   {A A+ A} = A,  {A+ A A+} = A+,
    (**)  {A A+ .} and {A+ A .} are Hermitian for H.

The operators of (**) are +-ad(m) / 2 on V+ and V- for m = [A, A+], so they
are Hermitian exactly when m - P m* P^-1, which lies in [V+, V-], kills V+
and V-; no nonzero element of [V+, V-] does, so (**) is m = P m* P^-1, one
n x n check.  The inverse is the third leg of an sl2-triple with Hermitian
characteristic, taken in closed form from :func:`graded.mp_inverse_short`
and verified against the pair equations.  The tests keep the operator form
of (**) and a guarded Newton-Schulz solver of the pair equations as oracles.
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
        column k holds the coordinates of [[x, y], b_k] / 2; no command calls it."""
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
    """Antilinear involution exchanging V+ and V-: omega(z) = P z* P^-1, stored as the
    ambient positive form P (``form``, |P|_2 = 1) and as coordinate matrices.

    omega(x) for x in V+ has V- coordinates omega_plus @ conj(coords(x)), and symmetrically
    for omega_minus; omega is triple-product equivariant and H(x) = B(x, omega(x)) is
    positive definite.  The verifiers decide (**) through P, so every field is required.
    """

    omega_plus: np.ndarray
    omega_minus: np.ndarray
    form: np.ndarray

    def apply(self, pair: JordanPair, x, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        x, unit, _ = pair.algebra._unit_member(x, tol)
        sign = pair._component(unit, tol)
        if sign == 0:
            return np.zeros_like(x)
        mat = self.omega_plus if sign > 0 else self.omega_minus
        return pair.from_coords(mat @ pair._index(sign).coords(x).conj(), -sign)


def _involution(pair: JordanPair, p: np.ndarray, p_inv: np.ndarray) -> tuple[np.ndarray, ...]:
    """The coordinate matrices of omega(z) = p z* p_inv on V+ and V-, and p."""
    plus, minus = (p @ b.conj().swapaxes(1, 2) @ p_inv for b in (pair.basis_plus, pair.basis_minus))
    return pair.index_minus.coords(plus).T, pair.index_plus.coords(minus).T, p


def standard_cartan_involution(pair: JordanPair) -> CartanInvolution:
    """The involution induced by the compact conjugation: omega(x) = x*, the adjoint, P = 1.

    Its matrices depend on the algebra alone: they are built once per process and
    shared, read-only.
    """
    n = pair.algebra.ambient_dim
    return CartanInvolution(*pair.algebra._derived(
        "jordan.omega", lambda: _involution(pair, *(np.eye(n, dtype=complex),) * 2)))


def cartan_involution_from_group(pair: JordanPair, g) -> CartanInvolution:
    """Involution induced by the compact form conjugated with a Levi group element g:
    omega(x) = g (g^-1 x g)* g^-1 = P x* P^-1 with P = g g* / |g g*|_2."""
    g = as_matrix(g)
    p = g @ g.conj().T / np.linalg.norm(g, 2) ** 2
    return CartanInvolution(*_involution(pair, p, np.linalg.inv(p)))


def mp_inverse_jordan(
    pair: JordanPair, inv: CartanInvolution, a, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, Report]:
    """The unique element satisfying (*) and (**), via the short-grading closed form.

    Existence and uniqueness come with the short grading; the result is
    verified against the pair equations on the unit pair it was found on, and
    returned with that report (a failing report raises ArithmeticError instead).
    """
    _, unit, k = pair.algebra._unit_member(a, tol)
    sign = pair._component(unit, tol)  # WrongComponent unless a lies in V+ or V-
    x = _mp_inverse_short(pair.algebra, unit, sign or None, tol)
    out, report = _ldexp(x, -k), _pair_report(unit, x, inv.form, tol)
    if not report.passed:
        raise ArithmeticError(f"closed-form inverse failed the pair equations: {report.residuals}")
    return out, report


def verify_jordan_mp(
    pair: JordanPair, inv: CartanInvolution, a, x, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Residuals of (*) and the Hermitian defect of (**), taken on m = [a, x] itself.

    a lies in V+ or V- (or is zero) and x in the other component; the residuals are
    :func:`_pair_report` on the unit pair (a / 2**k, x * 2**k), k the scale of a.
    """
    (a, ua, k), (x, ux, _) = (pair.algebra._unit_member(m, tol) for m in (a, x))
    pair._component(ux, tol, -pair._component(ua, tol))  # a = 0: x may lie in either
    return _pair_report(ua, x * np.ldexp(1.0, k), inv.form, tol)


def _pair_report(a: np.ndarray, x: np.ndarray, p: np.ndarray, tol: Tolerance) -> Report:
    """verify_jordan_mp of a checked unit pair for the involution of the form p: the
    residuals of (*), with {a x a} and {x a x} from the one commutator m = [a, x], and
    ``hermitian``, the defect |m p - p m*|_F / (1 + |a|_F |x|_F) of (**)."""
    ax = _bracket(a, x)
    norm_a, norm_x = frob(a), frob(x)
    return Report.gated({
        "recover_a": frob(0.5 * _bracket(ax, a) - a) / (1.0 + norm_a),
        "recover_x": frob(0.5 * _bracket(-ax, x) - x) / (1.0 + norm_x),  # -ax is x a - a x
        "hermitian": frob(ax @ p - p @ ax.conj().T) / (1.0 + norm_a * norm_x),
    }, tol)
