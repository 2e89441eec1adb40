"""Deterministic dense linear algebra over complex scalars.

Everything here is a thin, tolerance-aware layer over LAPACK (through
numpy): numerical ranks, orthonormal kernel/image/coimage bases, the
pseudoinverse built on them, exact power-of-two unit scaling, and the
integer check of sizes.  Quaternion matrices are supported
through their standard complex embedding; there is deliberately no native
quaternion factorization.

One rank rule: every numerical rank of the package is decided by
:func:`rank_decomposition` (or its core ``_rank_decomposition``, on a checked
matrix) at a named scale (sigma <= rank_rtol * scale is
zero); residual_tol judges residuals, never a rank.  |a|_F <= rank_rtol *
scale decides rank 0 without an SVD, by the same rule: sigma_max <= |a|_F.

All inputs must be finite; all outputs are fresh arrays.  Every function is
pure, so concurrent use is safe.

Throughout the package each public function checks its arguments once,
where they enter (finite entries, shapes, membership, degree or component),
and at unit scale: every decision on ``_unit_scale(a)``, every residual on
the pair ``_unit_pair(a, x)``.  The problems are homogeneous, so nothing
depends on the scale; constructors rescale their answers exactly, and no
other module computes a scale.  ``_``-prefixed helpers take checked
unit-scale ndarrays and neither check nor scale again.  A few public calls
stay inside those chains so that their counted metrics keep their meaning:
``classify_orbit``, ``verify_homform``, ``certify_complex`` and
``rank_decomposition``.  The tolerance is each call's argument, never the
state of an object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmbeddingMismatch, ShapeMismatch

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "Report",
    "as_matrix",
    "frob",
    "RankDecomposition",
    "rank_decomposition",
    "QuaternionMatrix",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical policy: rank cutoff and residual acceptance.

    rank_rtol decides every rank, orbit heights included: sigma <=
    rank_rtol * scale counts as zero, at the scale :func:`rank_decomposition`
    is given (sigma_max by default).  residual_tol is the relative residual
    below which a verification condition is accepted.  Both must lie in
    (0, 1e-3].
    """

    rank_rtol: float = 1e-10
    residual_tol: float = 1e-9

    def __post_init__(self):
        for name in ("rank_rtol", "residual_tol"):
            value = getattr(self, name)
            if not (0.0 < value <= 1e-3):
                raise ValueError(f"{name} must be in (0, 1e-3], got {value!r}")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class Report:
    """Named verification residuals and the verdict a verifier drew from them.

    ``residuals`` maps each check, in output order, to a relative residual
    (a float or a list of floats) or to a boolean verdict.  ``passed`` is
    set by the verifier, because not every entry gates it: a Hermitian defect
    or a margin can be reported as a finding only.
    """

    residuals: dict
    passed: bool

    @classmethod
    def gated(cls, residuals: dict, tol: Tolerance) -> "Report":
        """A report that passes when every residual is at most ``tol.residual_tol``."""
        return cls(residuals, all(v <= tol.residual_tol for v in _numbers(residuals)))

    def max_residual(self) -> float:
        """Largest numeric entry, gating or not (0.0 when there is none, nan if any is)."""
        return float(np.max([0.0, *_numbers(self.residuals)]))


def _numbers(residuals: dict):
    """The numeric entries of a residual dict, lists flattened, verdicts skipped."""
    for value in residuals.values():
        if not isinstance(value, bool):
            yield from value if isinstance(value, list) else (value,)


def as_matrix(a, dtype=complex) -> np.ndarray:
    """Coerce to a 2-d array of the given dtype, rejecting non-finite entries."""
    m = np.array(a, dtype=dtype, order="C")
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def _checked_int(value, name: str) -> int:
    """``value`` as an int if it is a whole real number (3, 3.0, a numpy integer), not a bool."""
    real = isinstance(value, (int, float, np.integer, np.floating))
    if isinstance(value, bool) or not (real and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def frob(a) -> float:
    """Frobenius norm, 0.0 for empty arrays, at any finite scale.

    Squares under- or overflow outside about (1e-160, 1e154), so a norm
    outside (1e-150, 1e150) is recomputed on |a| / max|a|; abs comes first,
    as a complex entry over a subnormal maximum gives nan.  vdot raises no
    floating-point warning when the squares overflow.
    """
    a = np.asarray(a)
    norm = float(np.sqrt(np.vdot(a, a).real))
    if 1e-150 < norm < 1e150 or not a.size:
        return norm
    mag = np.abs(a)
    top = float(np.max(mag))  # nan or inf when an entry is: the norm then is too
    return top * float(np.sqrt(np.vdot(mag / top, mag / top))) if 0.0 < top < np.inf else top


class RankDecomposition(NamedTuple):
    """Numerical rank with orthonormal kernel, image and coimage bases (as columns)."""

    rank: int
    kernel: np.ndarray   # shape (cols, cols - rank)
    image: np.ndarray    # shape (rows, rank)
    coimage: np.ndarray  # shape (cols, rank), the orthocomplement of the kernel


def rank_decomposition(
    a, tol: Tolerance = DEFAULT_TOL, scale: float | None = None
) -> RankDecomposition:
    """Rank, kernel basis and image basis of ``a`` by SVD, at the package's one rank rule.

    sigma <= rank_rtol * scale is zero, scale = sigma_max unless named: where the
    operator ``a`` was taken from vanishes, ``a`` is roundoff, and sigma_max would
    count it.  Kernel columns are the right singular vectors of the discarded values,
    image and coimage columns the left and right ones of the kept values, all
    orthonormal.  A zero (or empty) matrix has rank 0 and full kernel, and so,
    without an SVD, has ``a`` with |a|_F <= rank_rtol * a named scale: sigma_max <= |a|_F.
    """
    return _rank_decomposition(as_matrix(a), tol, scale)


def _rank_decomposition(a: np.ndarray, tol: Tolerance, scale: float | None) -> RankDecomposition:
    """rank_decomposition of a checked complex matrix, which it neither copies nor scans."""
    m, n = a.shape
    if m == 0 or n == 0 or (scale is not None and frob(a) <= tol.rank_rtol * scale):
        return RankDecomposition(
            0, np.eye(n, dtype=complex), np.zeros((m, 0), complex), np.zeros((n, 0), complex)
        )
    u, s, vh = np.linalg.svd(a, full_matrices=m < n)  # all of V only when the kernel needs it
    rank = int(np.sum(s > tol.rank_rtol * (s[0] if scale is None else scale)))
    v = vh.conj().T
    return RankDecomposition(rank, v[:, rank:].copy(), u[:, :rank].copy(), v[:, :rank].copy())


def _pinv(
    a: np.ndarray, tol: Tolerance, scale: float | None = None
) -> tuple[np.ndarray, RankDecomposition]:
    """pinv of a checked matrix, ranked at ``scale``, and the one decomposition it is built from."""
    dec = rank_decomposition(a, tol, scale)
    if dec.rank == 0:
        return np.zeros(a.shape[::-1], dtype=complex), dec
    restricted = dec.image.conj().T @ a @ dec.coimage  # (r, r), invertible
    return dec.coimage @ np.linalg.solve(restricted, dec.image.conj().T), dec


def _unit_scale(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a * 2**-k, k) with the largest real or imaginary part of a * 2**-k in [1, 2); k = 0 at 0."""
    parts = np.ascontiguousarray(a).view(float)
    top = np.max(np.abs(parts), initial=0.0)
    k = int(np.frexp(top)[1]) - 1 if top else 0
    return np.ldexp(parts, -k).view(a.dtype), k


def _unit_pair(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a * 2**-k, x * 2**k), a * 2**-k at unit scale; x pushed past the float range reads inf."""
    unit, k = _unit_scale(a)
    return unit, x * np.ldexp(1.0, k)


def _ldexp(a: np.ndarray, k: int) -> np.ndarray:
    """a * 2**k, exact on the real and imaginary parts; OverflowError past the float range.

    Complex division by a subnormal 2**-k would form its overflowing reciprocal.
    """
    parts = np.ascontiguousarray(a).view(float)
    if np.frexp(np.max(np.abs(parts), initial=0.0))[1] + k > 1024:
        raise OverflowError("inverse is non-finite: its entries exceed the float range")
    return np.ldexp(parts, k).view(a.dtype)


# ---------------------------------------------------------------------------
# Quaternion matrices and their complex embedding
# ---------------------------------------------------------------------------


class QuaternionMatrix:
    """Dense quaternion matrix stored as a (rows, cols, 4) float array.

    Entry (i, j) is data[i, j] = (a, b, c, d) for a + b*i + c*j + d*k.  The
    complex embedding maps each entry to the 2x2 block
    ``[[a+bi, c+di], [-c+di, a-bi]]``; it is an algebra homomorphism and
    intertwines quaternionic conjugate-transposition with the complex adjoint.
    """

    def __init__(self, data):
        arr = np.array(data, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != 4:
            raise ShapeMismatch("expected an array of shape (rows, cols, 4)")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("quaternion matrix contains non-finite entries")
        self.data = arr
        self.data.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape[0], self.data.shape[1]

    def embed(self) -> np.ndarray:
        """Complex matrix of shape (2*rows, 2*cols) realizing this matrix."""
        rows, cols = self.shape
        a, b, c, d = np.moveaxis(self.data, -1, 0)
        z = a + 1j * b
        w = c + 1j * d
        out = np.empty((2 * rows, 2 * cols), dtype=complex)
        out[0::2, 0::2] = z
        out[0::2, 1::2] = w
        out[1::2, 0::2] = -w.conj()
        out[1::2, 1::2] = z.conj()
        return out

    @classmethod
    def from_embedding(cls, m, tol: Tolerance = DEFAULT_TOL) -> "QuaternionMatrix":
        """Invert :meth:`embed`, checking the block structure numerically.

        Raises EmbeddingMismatch if ``m`` is not within tolerance of the image
        of the embedding.
        """
        m = as_matrix(m)
        if m.shape[0] % 2 or m.shape[1] % 2:
            raise EmbeddingMismatch("embedded matrix must have even dimensions")
        unit, _ = _unit_scale(m)
        z, w = unit[0::2, 0::2], unit[0::2, 1::2]
        defect = max(frob(unit[1::2, 1::2] - z.conj()), frob(unit[1::2, 0::2] + w.conj()))
        if defect > tol.residual_tol * (1.0 + frob(unit)):
            raise EmbeddingMismatch(
                f"block-structure defect {defect:.3e} exceeds tolerance"
            )
        z, w = m[0::2, 0::2], m[0::2, 1::2]
        data = np.stack([z.real, z.imag, w.real, w.imag], axis=-1)
        return cls(data)
