"""Closed-form Moore-Penrose inverses for forms, vectors and Hermitian matrices.

Covers the intrinsic constructions that accompany the short gradings of the
orthogonal and symplectic algebras: symmetric/skew bilinear forms, vectors in
a space with a bilinear scalar product, vectors in a real pseudo-Euclidean
space, and (skew-)Hermitian matrices over R, C and H.  Each inverse comes
with a verifier that evaluates its defining conditions, most of them through
an explicit sl2-triple in the matching block realization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classical
from .errors import ShapeMismatch, SymmetryViolation
from .graded import _as_vector, _bracket, _certificate, vector_pinv
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
    checked on pinv(W / 2**k) and then imposed.
    """
    unit, k = _unit_scale(form.gram)
    w_plus = _pinv(unit, tol)[0]
    sign = 1.0 if form.symmetry == SYMMETRIC else -1.0
    sym_defect = frob(w_plus.T - sign * w_plus)
    if sym_defect > tol.residual_tol * (1.0 + frob(w_plus)):
        raise SymmetryViolation(
            f"inverse form lost its symmetry class (defect {sym_defect:.3e})"
        )
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


def _vector_legs(v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e_v and f_w of checked vectors of one shape in the short grading of so_{d+2}."""
    # blocks (1, 2) and (2, 1) with their partners under the split form
    n = v.size + 2
    e = np.zeros((n, n), dtype=complex)
    e[0, 1:-1] = v
    e[1:-1, -1] = -v
    f = np.zeros_like(e)
    f[1:-1, 0] = w
    f[-1, 1:-1] = -w
    return e, f


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
    triple, defect = _certificate(*_unit_pair(*_vector_legs(*_vector_pair(v, w, empty_ok=True))))
    residuals = {"triple_residual": triple.max_residual(), "characteristic_defect": defect}
    return Report.gated(residuals, tol)


# ---------------------------------------------------------------------------
# Pseudo-Euclidean vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PseudoEuclideanSpace:
    """R^{n+m} with the product {u, v} = (u, I v), I = diag(Id_n, -Id_m)."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0 or self.n + self.m == 0:
            raise ValueError("signature must be nonnegative with positive total dimension")

    @property
    def dim(self) -> int:
        return self.n + self.m

    @property
    def signature_matrix(self) -> np.ndarray:
        return np.diag(np.concatenate([np.ones(self.n), -np.ones(self.m)]))


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
    """Three-case inverse for pseudo-Euclidean vectors.

    -v/{v,v} off the null cone; -Iv/(2(v,v)) for nonzero null vectors; zero
    at zero.  Signs follow the source convention for this grading; see
    :func:`pseudo_euclidean_triple` for the normalization that realizes them
    as an sl2-triple.
    """
    v, exp = _unit_scale(_as_real_vector(space, v))
    euclid = float(v @ v)
    if euclid == 0.0:
        return np.zeros_like(v)
    ivector = space.signature_matrix @ v
    pseudo = float(v @ ivector)
    w = -v / pseudo if abs(pseudo) > tol.residual_tol * euclid else -ivector / (2.0 * euclid)
    return _ldexp(w, -exp)


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


def _pseudo_legs(space, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e and f of :func:`pseudo_euclidean_triple` for checked vectors."""
    d = space.dim
    ivec = space.signature_matrix
    e = np.zeros((d + 2, d + 2))
    e[0, 1 : d + 1] = v
    e[1 : d + 1, d + 1] = -ivec @ v
    p = -2.0 * (ivec @ w)
    f = np.zeros((d + 2, d + 2))
    f[1 : d + 1, 0] = p
    f[d + 1, 1 : d + 1] = -(ivec @ p)
    return e, f


def verify_pseudo_euclidean_pinv(
    space: PseudoEuclideanSpace, v, w, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Check the defining conditions: sl2 relations with real symmetric h."""
    v = _as_real_vector(space, v)
    w = _as_real_vector(space, w)
    triple, defect = _certificate(*_unit_pair(*_pseudo_legs(space, v, w)))
    residuals = {"triple_residual": triple.max_residual(), "characteristic_defect": defect}
    return Report.gated(residuals, tol)


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
