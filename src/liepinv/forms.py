"""Closed-form Moore-Penrose inverses for forms, vectors and Hermitian matrices.

Covers the intrinsic constructions that accompany the short gradings of the
orthogonal and symplectic algebras: symmetric/skew bilinear forms, vectors in
a space with a bilinear scalar product, vectors in a real pseudo-Euclidean
space (the same vectors in the coordinates (x, i y)), and (skew-)Hermitian
matrices over R, C and H.  Each inverse is built on ``numcore._pinv`` or on
``graded._vector_pinv``, and comes with a verifier that evaluates its defining
conditions, most of them through an explicit sl2-triple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classical
from .errors import ShapeMismatch, SymmetryViolation
from .graded import _as_vector, _bracket, _certificate, _vector_pinv
from .numcore import (
    DEFAULT_TOL,
    QuaternionMatrix,
    Report,
    Tolerance,
    _ldexp,
    _pinv,
    _unit_pair,
    _unit_scale,
    as_matrix,
    frob,
    rank_decomposition,
)

__all__ = [
    "SYMMETRIC",
    "SKEW",
    "BilinearForm",
    "form_pinv",
    "verify_form_pinv",
    "vector_pinv",
    "vector_triple",
    "verify_vector_pinv",
    "PseudoEuclideanSpace",
    "pseudo_euclidean_pinv",
    "pseudo_euclidean_triple",
    "verify_pseudo_euclidean_pinv",
    "hermitian_pinv",
    "verify_hermitian_pinv",
]

SYMMETRIC = "symmetric"
SKEW = "skew"


@dataclass(frozen=True)
class BilinearForm:
    """A symmetric or skew-symmetric bilinear form given by its Gram matrix."""

    symmetry: str
    gram: np.ndarray

    def __post_init__(self):
        if self.symmetry not in (SYMMETRIC, SKEW):
            raise ValueError(f"symmetry must be {SYMMETRIC!r} or {SKEW!r}")
        gram = as_matrix(self.gram)
        if gram.shape[0] != gram.shape[1]:
            raise ShapeMismatch("Gram matrix must be square")
        sign = 1.0 if self.symmetry == SYMMETRIC else -1.0
        unit, _ = _unit_scale(gram)
        defect = frob(unit.T - sign * unit)
        if defect > DEFAULT_TOL.residual_tol * (1.0 + frob(unit)):
            raise SymmetryViolation(
                f"Gram matrix is not {self.symmetry} (defect {defect:.3e})"
            )
        object.__setattr__(self, "gram", gram)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def is_nondegenerate(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Full numerical rank of the Gram matrix, decided once per tolerance."""
        ranks = self.__dict__.setdefault("_ranks", {})
        if tol not in ranks:
            ranks[tol] = rank_decomposition(self.gram, tol).rank
        return ranks[tol] == self.dim


def form_pinv(form: BilinearForm, tol: Tolerance = DEFAULT_TOL) -> BilinearForm:
    """Moore-Penrose inverse form: ``classical.pinv`` of the Gram matrix W.

    The inverse of the form W induces on the annihilator of its kernel,
    extended by zero, satisfies the Penrose conditions with W, so by
    uniqueness it is pinv(W); its symmetry class, kept up to roundoff, is
    imposed on pinv(W / 2**k) by averaging.  Where roundoff has broken the
    class, the average fails the Penrose gate of :func:`verify_form_pinv`.
    """
    unit, k = _unit_scale(form.gram)
    w_plus = _pinv(unit, tol)[0]
    sign = 1.0 if form.symmetry == SYMMETRIC else -1.0
    return BilinearForm(form.symmetry, _ldexp((w_plus + sign * w_plus.T) / 2.0, -k))


def verify_form_pinv(
    form: BilinearForm, candidate: BilinearForm, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Penrose residuals of the Gram matrices W and W+ (symmetry classes must match)."""
    if candidate.symmetry != form.symmetry:
        raise SymmetryViolation("candidate inverse has the wrong symmetry class")
    report = classical.verify_penrose(form.gram, candidate.gram, tol)
    names = ("recover_w", "recover_w_plus", "hermitian_w_wplus", "hermitian_wplus_w")
    return Report(dict(zip(names, report.residuals.values())), report.passed)


# ---------------------------------------------------------------------------
# Vectors with a bilinear scalar product
# ---------------------------------------------------------------------------


def vector_pinv(v, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse of a vector for the standard bilinear product.

    Three cases: 2v/(v,v) when (v,v) is nonzero; conj(v)/(conj(v),v) for a
    nonzero isotropic v; zero at zero.  The isotropy decision is relative:
    |(v,v)| <= residual_tol * (conj(v), v).  Near-isotropic vectors are
    genuine discontinuity points of the formula.  This is the closed form of
    the short grading so(1, d, 1), whose degree +-1 blocks are vectors.
    """
    v, exp = _unit_scale(_as_vector(v))
    return _ldexp(_vector_pinv(v, tol), -exp)


def _vector_legs(v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e_v and f_w, of the dtype of v and w, in the short grading of so_{d+2}."""
    # blocks (1, 2) and (2, 1) with their partners under the split form
    n = v.size + 2
    e = np.zeros((n, n), dtype=np.result_type(v, w))
    e[0, 1:-1] = v
    e[1:-1, -1] = -v
    f = np.zeros_like(e)
    f[1:-1, 0] = w
    f[-1, 1:-1] = -w
    return e, f


def _legs_report(e: np.ndarray, f: np.ndarray, tol: Tolerance) -> Report:
    """Certificate of the legs e, f: triple residual and characteristic defect, gated."""
    triple, defect = _certificate(*_unit_pair(e, f))
    residuals = {"triple_residual": triple.max_residual(), "characteristic_defect": defect}
    return Report.gated(residuals, tol)


def _vector_pair(v, w, empty_ok: bool) -> tuple[np.ndarray, np.ndarray]:
    """Checked vectors of one shape; that shape may be empty only with ``empty_ok``."""
    v, w = _as_vector(v), _as_vector(w)
    if v.shape != w.shape or (v.size == 0 and not empty_ok):
        raise ShapeMismatch("vectors must share a positive dimension")
    return v, w


def vector_triple(v, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The triple (e_v, [e_v, f_w], f_w) in the short vector grading of so_{d+2}."""
    e, f = _vector_legs(*_vector_pair(v, w, empty_ok=False))
    return e, _bracket(e, f), f


def verify_vector_pinv(v, w, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Check that w inverts v: homogeneous sl2-triple with Hermitian h (empty vectors pass)."""
    return _legs_report(*_vector_legs(*_vector_pair(v, w, empty_ok=True)), tol)


# ---------------------------------------------------------------------------
# Pseudo-Euclidean vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PseudoEuclideanSpace:
    """R^{n+m} with the product {u, v} = (u, I v), I = diag(Id_n, -Id_m).

    D = diag(Id_n, i Id_m) squares to I, so {u, v} = (Du) . (Dv): in the
    coordinates (x, i y) the space is the vector pair of so(1, n+m, 1).
    """

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0 or self.n + self.m == 0:
            raise ValueError("signature must be nonnegative with positive total dimension")

    @property
    def dim(self) -> int:
        return self.n + self.m


def _as_real_vector(space: PseudoEuclideanSpace, v) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != space.dim:
        raise ShapeMismatch(f"vector must have dimension {space.dim}, got {v.shape[0]}")
    if v.size and not np.all(np.isfinite(v)):
        raise ValueError("vector contains non-finite entries")
    return v


def pseudo_euclidean_pinv(
    space: PseudoEuclideanSpace, v, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Inverse of a pseudo-Euclidean vector: Re(-conj(D) vector_pinv(D v) / 2).

    That is -v/{v,v} off the null cone, -Iv/(2(v,v)) for nonzero null vectors
    and zero at zero; the cone test |{v,v}| <= residual_tol (v,v) is the
    isotropy test of :func:`vector_pinv`.  Multiplying by +-i is exact, so the
    imaginary part dropped is exactly zero.  Signs follow the source convention
    for this grading; see :func:`pseudo_euclidean_triple` for the normalization
    that realizes them as an sl2-triple.
    """
    v, exp = _unit_scale(_as_real_vector(space, v))
    d = np.repeat([1.0, 1j], [space.n, space.m])
    return _ldexp(-0.5 * (d.conj() * _vector_pinv(d * v, tol)).real, -exp)


def _pseudo_legs(space: PseudoEuclideanSpace, v: np.ndarray, w: np.ndarray):
    """e and f of :func:`pseudo_euclidean_triple` for checked vectors: S e(v) and
    f(-2 s w) S, where S = diag(1, s, 1), s = (1_n, -1_m), and e, f are the vector legs."""
    s = np.repeat([1.0, 1.0, -1.0, 1.0], [1, space.n, space.m, 1])
    e, f = _vector_legs(v, -2.0 * s[1:-1] * w)
    return s[:, None] * e, f * s


def pseudo_euclidean_triple(
    space: PseudoEuclideanSpace, v, w
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Realize (v, w) as (e, [e, f], f) in the graded realization of so(n+1, m+1).

    The ambient form is [[0,0,1],[0,I,0],[1,0,0]] on R^{1+(n+m)+1}; a vector
    v enters degree +1 as (row v, column -Iv), and the degree -1 leg of the
    inverse w is labeled by p = -2 I w, the normalization under which the
    stated inverse formulas satisfy the sl2 relations with h in the symmetric
    part of the Levi.
    """
    e, f = _pseudo_legs(space, _as_real_vector(space, v), _as_real_vector(space, w))
    return e, _bracket(e, f), f


def verify_pseudo_euclidean_pinv(
    space: PseudoEuclideanSpace, v, w, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Check the defining conditions: sl2 relations with real symmetric h."""
    v, w = _as_real_vector(space, v), _as_real_vector(space, w)
    return _legs_report(*_pseudo_legs(space, v, w), tol)


# ---------------------------------------------------------------------------
# Hermitian and skew-Hermitian matrices over R, C, H
# ---------------------------------------------------------------------------


def _hermitian_sign(a: np.ndarray, tol: Tolerance) -> float:
    """1.0 for a Hermitian, -1.0 for a skew-Hermitian checked matrix at unit scale."""
    if a.shape[0] != a.shape[1]:
        # a quaternion matrix arrives embedded, so its size would read doubled
        raise ShapeMismatch("matrix must be square")
    scale = 1.0 + frob(a)
    herm = frob(a - a.conj().T)
    skew = frob(a + a.conj().T)
    if herm <= tol.residual_tol * scale:
        return 1.0
    if skew <= tol.residual_tol * scale:
        return -1.0
    raise SymmetryViolation(
        f"matrix is neither Hermitian nor skew-Hermitian "
        f"(defects {herm:.3e} / {skew:.3e})"
    )


def hermitian_pinv(a, tol: Tolerance = DEFAULT_TOL):
    """Pseudoinverse of a (skew-)Hermitian matrix, staying in its class.

    Accepts a complex/real ndarray or a QuaternionMatrix (handled through the
    complex embedding, which translates the symmetry class verbatim).  The
    result commutes with the input because both are functions of the same
    normal matrix.
    """
    if isinstance(a, QuaternionMatrix):
        return QuaternionMatrix.from_embedding(hermitian_pinv(a.embed(), tol), tol)
    unit, k = _unit_scale(as_matrix(a))
    sign = _hermitian_sign(unit, tol)
    x = _pinv(unit, tol)[0]
    return _ldexp((x + sign * x.conj().T) / 2.0, -k)


def verify_hermitian_pinv(a, x, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Residuals of A A+ A = A, A+ A A+ = A+, [A, A+] = 0 plus the class defect of A+."""
    if isinstance(a, QuaternionMatrix):
        a = a.embed()
    if isinstance(x, QuaternionMatrix):
        x = x.embed()
    a = as_matrix(a)
    x = as_matrix(x)
    if x.shape != (a.shape[1], a.shape[0]):
        raise ShapeMismatch("candidate inverse has the wrong shape")
    a, x = _unit_pair(a, x)
    sign = _hermitian_sign(a, tol)
    return Report.gated(
        {
            "recover_a": frob(a @ x @ a - a) / (1.0 + frob(a)),
            "recover_x": frob(x @ a @ x - x) / (1.0 + frob(x)),
            "commutator": frob(a @ x - x @ a) / (1.0 + frob(a) * frob(x)),
            "class_defect": frob(x - sign * x.conj().T) / (1.0 + frob(x)),
        },
        tol,
    )
