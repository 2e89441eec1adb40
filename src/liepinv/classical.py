"""Classical Moore-Penrose inverse over C, R and H, with a four-condition verifier.

:func:`pinv` restricts the map to its coimage (the Hermitian orthocomplement
of its kernel), inverts that bijection onto the image, and extends by zero on
the orthocomplement of the image; one SVD gives the rank and all three bases.
It is one of the package's two Moore-Penrose constructions, the one for
matrices: the real and quaternion variants, the inverse form of
``forms.form_pinv`` and the Hom(U, V) inverse of ``homform`` are built on it.
The other is ``graded._vector_pinv`` for the vectors of so(1, d, 1), which
also gives the pseudo-Euclidean inverse of ``forms``.  Independent routes (a
QR rank factorization, the kernel/annihilator construction of the inverse
form, and the basis solve of the Hom(U, V) inverse) live with the tests, where
their agreement turns the uniqueness of each inverse into a test instead of
an assumption.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
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
)

__all__ = [
    "pinv",
    "verify_penrose",
    "pinv_real",
    "pinv_quaternion",
]


def pinv(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse built intrinsically from the coimage and image bases.

    It is built at unit scale, so entries near 1e308 are answered;
    OverflowError when pinv(a) itself leaves the float range.
    """
    unit, k = _unit_scale(as_matrix(a))
    return _ldexp(_pinv(unit, tol)[0], -k)


def verify_penrose(a, x, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Relative residuals of the four Penrose conditions for the pair (a, x).

    recover_a     |AXA - A| / (1 + |A|)
    recover_x     |XAX - X| / (1 + |X|)
    hermitian_ax  |AX - (AX)*| / (1 + |AX|)
    hermitian_xa  |XA - (XA)*| / (1 + |XA|)

    Each residual is normalized by its own natural scale so that ``passed``
    is symmetric under swapping A and X.
    """
    a = as_matrix(a)
    x = as_matrix(x)
    if x.shape != (a.shape[1], a.shape[0]):
        raise ShapeMismatch(
            f"candidate inverse must have shape {(a.shape[1], a.shape[0])}, got {x.shape}"
        )
    a, x = _unit_pair(a, x)
    ax = a @ x
    xa = x @ a
    return Report.gated(
        {
            "recover_a": frob(ax @ a - a) / (1.0 + frob(a)),
            "recover_x": frob(xa @ x - x) / (1.0 + frob(x)),
            "hermitian_ax": frob(ax - ax.conj().T) / (1.0 + frob(ax)),
            "hermitian_xa": frob(xa - xa.conj().T) / (1.0 + frob(xa)),
        },
        tol,
    )


def pinv_real(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse of a real matrix, returned as a real matrix.

    Computed through the complex engine; the discarded imaginary mass must be
    below tolerance (it is zero in exact arithmetic).
    """
    unit, k = _unit_scale(as_matrix(np.asarray(a, dtype=float)))
    result = _pinv(unit, tol)[0]
    drift = frob(result.imag)
    if drift > tol.residual_tol * (1.0 + frob(result)):
        raise ArithmeticError(f"imaginary drift {drift:.3e} on a real input")
    return _ldexp(result.real, -k)


def pinv_quaternion(q: QuaternionMatrix, tol: Tolerance = DEFAULT_TOL) -> QuaternionMatrix:
    """Moore-Penrose inverse of a quaternion matrix via the complex embedding.

    The embedding intertwines quaternionic adjoints with complex adjoints, so
    the complex Penrose inverse of the embedded matrix is the embedding of the
    quaternionic one; EmbeddingMismatch from the un-embedding would signal an
    internal bug.
    """
    return QuaternionMatrix.from_embedding(pinv(q.embed(), tol), tol)
