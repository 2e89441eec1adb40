"""Varieties of complexes for block parabolics of sl_n.

A chain tuple is a sequence of composable linear maps

    C^{d_1} <- C^{d_2} <- ... <- C^{d_k}

and it is a complex when consecutive compositions vanish.  Componentwise
pseudoinversion sends a complex to a complex, and the assembled block
matrices (maps on the superdiagonal, pseudoinverses on the subdiagonal) form
an sl2-triple with block-diagonal Hermitian characteristic: componentwise
pseudoinversion is the graded Moore-Penrose inverse of the tuple, which
:func:`verify_complex_pinv` checks on the assembled triple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAComplex, ShapeMismatch
from .graded import _certificate
from .numcore import (DEFAULT_TOL, Report, Tolerance, _ldexp, _pinv, _unit_pair, _unit_scale,
                      as_matrix, frob, rank_decomposition)

__all__ = [
    "ChainTuple",
    "ComplexCertificate",
    "certify_complex",
    "complex_pinv",
    "verify_complex_pinv",
    "assemble_raising",
    "assemble_lowering",
]


@dataclass(frozen=True)
class ChainTuple:
    """Sizes d_1..d_k and maps f_i of shape d_i x d_{i+1}."""

    sizes: tuple[int, ...]
    maps: tuple[np.ndarray, ...]

    def __post_init__(self):
        sizes = tuple(int(d) for d in self.sizes)
        if len(sizes) < 2 or any(d <= 0 for d in sizes):
            raise ValueError(f"need at least two positive sizes, got {sizes}")
        maps = tuple(as_matrix(m) for m in self.maps)
        if len(maps) != len(sizes) - 1:
            raise ShapeMismatch(f"{len(sizes)} sizes require {len(sizes) - 1} maps")
        for i, m in enumerate(maps):
            want = (sizes[i], sizes[i + 1])
            if m.shape != want:
                raise ShapeMismatch(f"map {i + 1} must be {want}, got {m.shape}")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "maps", maps)

    @classmethod
    def _of_checked(cls, sizes: tuple[int, ...], maps: tuple[np.ndarray, ...]) -> "ChainTuple":
        """A tuple of checked sizes and maps, built without checking them again."""
        t = object.__new__(cls)
        object.__setattr__(t, "sizes", sizes)
        object.__setattr__(t, "maps", maps)
        return t


@dataclass(frozen=True)
class ComplexCertificate:
    """Composition residuals |f_{i-1} f_i| and numerical ranks per map."""

    is_complex: bool
    composition_residuals: tuple[float, ...]
    ranks: tuple[int, ...]


def _compositions(maps, tol: Tolerance) -> tuple[tuple[float, ...], bool]:
    """Residuals |f_{i-1} f_i| of checked maps, each at unit scale, and whether each is small."""
    units = [_unit_scale(m)[0] for m in maps]
    pairs = list(zip(units, units[1:]))
    residuals = tuple(frob(left @ right) for left, right in pairs)
    bounds = [tol.residual_tol * (1.0 + frob(left) * frob(right)) for left, right in pairs]
    return residuals, not any(res > bound for res, bound in zip(residuals, bounds))


def certify_complex(t: ChainTuple, tol: Tolerance = DEFAULT_TOL) -> ComplexCertificate:
    """Check zero consecutive compositions, relative to the factor norms, each map at unit scale."""
    residuals, ok = _compositions(t.maps, tol)
    ranks = tuple(rank_decomposition(m, tol).rank for m in t.maps)
    return ComplexCertificate(ok, residuals, ranks)


def _place(sizes, maps, lower: bool) -> np.ndarray:
    """Checked maps on the block superdiagonal, or with ``lower`` on the subdiagonal."""
    starts = np.concatenate([[0], np.cumsum(sizes)])
    out = np.zeros((starts[-1], starts[-1]), dtype=complex)
    for i, m in enumerate(maps):
        near, far = slice(starts[i], starts[i + 1]), slice(starts[i + 1], starts[i + 2])
        out[(far, near) if lower else (near, far)] = m
    return out


def assemble_raising(t: ChainTuple) -> np.ndarray:
    """Superdiagonal block matrix with the chain maps: an element of degree +1."""
    return _place(t.sizes, t.maps, lower=False)


def assemble_lowering(t: ChainTuple, lowering_maps) -> np.ndarray:
    """Subdiagonal block matrix carrying maps C^{d_i} -> C^{d_{i+1}}."""
    return _lowering(t.sizes, [as_matrix(m) for m in lowering_maps])


def _lowering(sizes, maps) -> np.ndarray:
    """assemble_lowering of checked matrices."""
    for i, m in enumerate(maps):
        want = (sizes[i + 1], sizes[i])
        if m.shape != want:
            raise ShapeMismatch(f"lowering map {i + 1} must be {want}, got {m.shape}")
    return _place(sizes, maps, lower=True)


def complex_pinv(
    t: ChainTuple, tol: Tolerance = DEFAULT_TOL
) -> tuple[ChainTuple, ComplexCertificate]:
    """Componentwise Moore-Penrose inverse of a complex, as a reversed tuple.

    The result has sizes (d_k, ..., d_1) and maps (f_{k-1}+, ..., f_1+); it is
    itself a complex because the image of each pseudoinverse is the
    orthocomplement of the kernel of its map, which the next pseudoinverse
    kills.  Applying the operation twice returns the original tuple.  The
    certificate of ``t`` comes back with the result.
    """
    cert = certify_complex(t, tol)
    if not cert.is_complex:
        raise NotAComplex(
            f"composition residuals {cert.composition_residuals} exceed tolerance"
        )
    inverted = [_ldexp(_pinv(unit, tol)[0], -k) for unit, k in map(_unit_scale, t.maps)]
    return ChainTuple._of_checked(t.sizes[::-1], tuple(inverted[::-1])), cert


def verify_complex_pinv(
    t: ChainTuple, cert: ComplexCertificate, out: ChainTuple, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Check that ``out`` is the graded Moore-Penrose inverse of the complex ``t``.

    ``cert`` is the certificate of ``t`` (as :func:`complex_pinv` returns it);
    its composition residuals are reported and do not gate ``passed``.  The
    result passes when ``out`` is a complex and (e, [e, f], f), with e carrying
    the maps of ``t`` and f those of ``out``, is an sl2-triple whose
    characteristic is Hermitian.
    """
    if len(out.sizes) != len(t.sizes):
        raise ShapeMismatch(f"inverse tuple must have sizes {t.sizes[::-1]}, got {out.sizes}")
    raising, lowering = assemble_raising(t), _lowering(t.sizes, out.maps[::-1])
    triple, defect = _certificate(*_unit_pair(raising, lowering))
    out_residuals, out_is_complex = _compositions(out.maps, tol)
    residuals = {
        "composition_residuals": list(cert.composition_residuals),
        "inverse_composition_residuals": list(out_residuals),
        "triple_residuals": list(triple.residuals),
        "characteristic_defect": defect,
    }
    passed = out_is_complex and triple.passes(tol) and defect <= tol.residual_tol
    return Report(residuals, passed)
