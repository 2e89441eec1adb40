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

from . import classical
from .errors import NotAComplex, ShapeMismatch
from .graded import Sl2Triple, bracket
from .numcore import DEFAULT_TOL, Report, Tolerance, as_matrix, frob, rank_decomposition

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

    def __len__(self) -> int:
        return len(self.maps)


@dataclass(frozen=True)
class ComplexCertificate:
    """Composition residuals |f_{i-1} f_i| and numerical ranks per map."""

    is_complex: bool
    composition_residuals: tuple[float, ...]
    ranks: tuple[int, ...]


def certify_complex(t: ChainTuple, tol: Tolerance = DEFAULT_TOL) -> ComplexCertificate:
    """Check zero consecutive compositions, relative to the factor norms."""
    residuals = []
    ok = True
    for left, right in zip(t.maps, t.maps[1:]):
        res = frob(left @ right)
        residuals.append(res)
        if res > tol.residual_tol * (1.0 + frob(left) * frob(right)):
            ok = False
    ranks = tuple(rank_decomposition(m, tol).rank for m in t.maps)
    return ComplexCertificate(ok, tuple(residuals), ranks)


def assemble_raising(t: ChainTuple) -> np.ndarray:
    """Superdiagonal block matrix with the chain maps: an element of degree +1."""
    n = sum(t.sizes)
    out = np.zeros((n, n), dtype=complex)
    starts = np.concatenate([[0], np.cumsum(t.sizes)])
    for i, m in enumerate(t.maps):
        out[starts[i] : starts[i + 1], starts[i + 1] : starts[i + 2]] = m
    return out


def assemble_lowering(t: ChainTuple, lowering_maps) -> np.ndarray:
    """Subdiagonal block matrix carrying maps C^{d_i} -> C^{d_{i+1}}."""
    n = sum(t.sizes)
    out = np.zeros((n, n), dtype=complex)
    starts = np.concatenate([[0], np.cumsum(t.sizes)])
    for i, m in enumerate(lowering_maps):
        m = as_matrix(m)
        want = (t.sizes[i + 1], t.sizes[i])
        if m.shape != want:
            raise ShapeMismatch(f"lowering map {i + 1} must be {want}, got {m.shape}")
        out[starts[i + 1] : starts[i + 2], starts[i] : starts[i + 1]] = m
    return out


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
    inverted = [classical.pinv(m, tol) for m in t.maps]
    return ChainTuple(t.sizes[::-1], tuple(inverted[::-1])), cert


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
    cert_out = certify_complex(out, tol)
    e = assemble_raising(t)
    f = assemble_lowering(t, out.maps[::-1])
    h = bracket(e, f)
    triple = Sl2Triple.from_elements(e, h, f)
    defect = frob(h - h.conj().T) / (1.0 + frob(h))
    residuals = {
        "composition_residuals": list(cert.composition_residuals),
        "inverse_composition_residuals": list(cert_out.composition_residuals),
        "triple_residuals": list(triple.residuals),
        "characteristic_defect": defect,
    }
    passed = cert_out.is_complex and triple.passes(tol) and defect <= tol.residual_tol
    return Report(residuals, passed)


