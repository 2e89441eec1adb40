"""Block-graded classical matrix Lie algebras and their Moore-Penrose theory.

A :class:`GradedAlgebra` is sl_n, so_n or sp_n realized as ambient complex
matrices, together with a Z-grading by block position: entry block (i, j)
carries degree j - i.  For so/sp the defining bilinear form is the split
(anti-block-diagonal) one adapted to the block structure, which is what makes
every graded component nonzero and turns the compact-form condition
"h in i*k0" into a plain Hermitian-defect test: the conjugation
theta(X) = -X* preserves the algebra, swaps degrees m and -m, and fixes the
compact form of the degree-0 part.  The split form is a signed permutation,
so the orthonormal homogeneous basis comes from index arithmetic: unit
matrices, unit pairs tied by the form, and for sl the Helmert rows of the
traceless diagonal.  Coordinates are gathers, and a bracket with a basis
element touches one row and one column.

On top of the algebra the module provides: brackets, Killing forms c Tr(xy),
completion of a homogeneous nilpotent to the norm-minimal sl2-triple and the
direction space of its characteristics, Moore-Penrose inverses in short
gradings, the raising-space criterion for Moore-Penrose orbits, nilpotent
orbit heights, and the per-block multidegree check for parabolics of sl_n.
h is split once into its integer levels, where it is made, one diagonal block at
a time: by one eigh when h is Hermitian within the cut, else from the kernels of
h - k.  The result carries that split.  The engine reads f off it as a weight part,
and the criterion and the direction space read the positive ad(h)-part of g_0 off
it (the direction space is ker ad(e) on it).

Two routes complete e.  In a short grading every nonzero e of degree +-1 has
its Moore-Penrose inverse in closed form (the classical pseudoinverse of the
degree +-1 block, or the vector formula of so(1, d, 1)), and its Hermitian
characteristic is the norm-minimal one; a closed form that fails its triple
check or is not Hermitian is a numerical failure (ArithmeticError).  Every
other problem (longer gradings, degree 0, single blocks) goes to the
minimal-characteristic engine: one constrained least-squares solve for y, then
f as the ad(h)-weight -2 part of y.  The tests certify the closed form with it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    NoTriple,
    NotCharacteristic,
    NotInAlgebra,
    NotNilpotent,
    NotShortGrading,
    ShapeMismatch,
    SymmetryViolation,
    UnsupportedBlock,
    ZeroElement,
)
from .numcore import (
    DEFAULT_TOL,
    Tolerance,
    _ldexp,
    _pinv,
    _unit_pair,
    _unit_scale,
    as_matrix,
    frob,
    rank_decomposition,
    solve_least_squares_constrained,
)

__all__ = [
    "GradedAlgebra",
    "Sl2Triple",
    "CharacteristicResult",
    "bracket",
    "compact_conjugation",
    "minimal_characteristic",
    "mp_inverse_short",
    "vector_pinv",
    "annihilates_positive_part",
    "is_mp_element",
    "orbit_height",
    "is_mp_orbit",
    "multidegree_characteristic",
    "mp_check_multidegree",
]


def bracket(x, y) -> np.ndarray:
    """Matrix commutator [x, y] = xy - yx."""
    x, y = as_matrix(x), as_matrix(y)
    _square_pair(x, y)
    return _bracket(x, y)


def _bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def _square_pair(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape or x.shape[0] != x.shape[1]:
        raise ShapeMismatch(f"bracket needs equal square shapes, got {x.shape}, {y.shape}")


def compact_conjugation(x) -> np.ndarray:
    """Conjugation theta(X) = -X* fixing the compact real form."""
    return -as_matrix(x).conj().T


class _IndexBasis:
    """An orthonormal basis of real n x n matrices stored as index arrays.

    Element k < units is weight_k E[pos_k] + pweight_k E[partner_k], positions
    flat and row-major: a unit matrix (pweight 0, partner = pos) or a unit
    paired with its signed form partner (weights +-1/sqrt(2)).  The elements
    after them are the rows of the dense block ``cartan`` put on the diagonal
    (for sl, the Helmert rows of the traceless diagonal).  Coordinates are
    gathers, combinations scatters, and the bracket with a matrix touches one
    row and one column per unit.
    """

    def __init__(self, n: int, pos, partner, weight, pweight, cartan=None):
        self.pos, self.partner, self.weight, self.pweight = pos, partner, weight, pweight
        self.cartan = np.zeros((0, n)) if cartan is None else cartan
        self.n, self.units, self.count = n, pos.size, pos.size + self.cartan.shape[0]
        self.paired = bool(np.any(pweight))

    def coords(self, stack: np.ndarray) -> np.ndarray:
        """Coordinates of each matrix of a (..., n, n) stack, shape (..., count)."""
        flat = stack.reshape(*stack.shape[:-2], self.n * self.n)
        units = np.take(flat, self.pos, axis=-1)
        units *= self.weight
        if self.paired:
            units += np.take(flat, self.partner, axis=-1) * self.pweight
        if not self.cartan.size:
            return units
        return np.concatenate([units, flat[..., :: self.n + 1] @ self.cartan.T], axis=-1)

    def combine(self, v) -> np.ndarray:
        """The matrix sum_k v_k b_k."""
        flat = np.zeros(self.n * self.n, dtype=complex)
        flat[self.pos] = self.weight * v[: self.units]
        flat[self.partner] += self.pweight * v[: self.units]
        flat[:: self.n + 1] += self.cartan.T @ v[self.units:]
        return flat.reshape(self.n, self.n)

    def brackets(self, x: np.ndarray) -> np.ndarray:
        """The stack of [x, b_k]: x E_ab is column a of x put in column b, E_ab x row b in row a."""
        out = np.zeros((self.count, self.n, self.n), dtype=complex)
        k = np.arange(self.units)
        for pos, w in ((self.pos, self.weight), (self.partner, self.pweight))[: 1 + self.paired]:
            a, b = np.divmod(pos, self.n)
            out[k, :, b] += w[:, None] * x[:, a].T
            out[k, a, :] -= w[:, None] * x[b, :]
        d = self.cartan  # [x, diag(d)] = x_ij (d_j - d_i)
        out[self.units:] = x * (d[:, None, :] - d[:, :, None])
        return out

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of [x, .] on this basis: column k holds the coordinates of [x, b_k]."""
        return self.coords(self.brackets(x)).T

    def dense(self) -> np.ndarray:
        out = np.zeros((self.count, self.n * self.n), dtype=complex)
        out[np.arange(self.units), self.pos] = self.weight
        out[np.arange(self.units), self.partner] += self.pweight
        out[self.units:, :: self.n + 1] = self.cartan
        return out.reshape(self.count, self.n, self.n)


class GradedAlgebra:
    """A classical matrix Lie algebra with a block Z-grading.

    Parameters
    ----------
    kind : {"sl", "so", "sp"}
    blocks : sequence of positive block sizes d_1..d_k (1-based positions in
        the API).  For so/sp the sizes must be palindromic, and for sp an odd
        middle block must have even size; the defining form pairs block i
        with block k+1-i.

    The basis of g_m: for so/sp each unit E_ab of degree m that the signed
    unit map tau(E_ab) = -J^-1 E_ba J fixes, and (E_ab + tau(E_ab)) / sqrt(2)
    for each other tau-pair; for sl the off-diagonal units of degree m and, at
    m = 0, the n - 1 Helmert rows of the traceless diagonal.

    Construction takes the dimension of every degree from one count of the
    unit table; the basis of a degree (or of the whole algebra) is built on
    first use and kept on the instance.  Threads sharing one algebra may
    build a basis twice; the two copies are identical arrays.
    """

    def __init__(self, kind: str, blocks):
        kind = str(kind).lower()
        if kind not in ("sl", "so", "sp"):
            raise ValueError(f"kind must be 'sl', 'so' or 'sp', got {kind!r}")
        blocks = tuple(int(d) for d in blocks)
        if not blocks or any(d <= 0 for d in blocks):
            raise ValueError(f"block sizes must be positive, got {blocks}")
        self.kind = kind
        self.blocks = blocks
        self.ambient_dim = sum(blocks)

        k = len(blocks)
        if kind in ("so", "sp"):
            if blocks != blocks[::-1]:
                raise ValueError(f"{kind} grading needs palindromic blocks, got {blocks}")
            if kind == "sp" and k % 2 == 1 and blocks[k // 2] % 2 != 0:
                raise ValueError("sp grading needs an even-sized middle block")

        starts = np.concatenate([[0], np.cumsum(blocks)])
        self._starts = starts
        self._block_of = np.repeat(np.arange(k), blocks)
        self._build_basis()

    # -- construction helpers ------------------------------------------------

    def _split_form(self) -> tuple[np.ndarray, np.ndarray]:
        """The split form J as a signed permutation, J[a, perm[a]] = sign[a].

        a pairs with the same offset in the mirror block (offset t + h mod 2h
        in an sp middle block of size 2h); for sp, sign is - below the anti-diagonal.
        """
        k = len(self.blocks)
        block = self._block_of
        mirror = k - 1 - block
        offset = np.arange(self.ambient_dim) - self._starts[block]
        perm = self._starts[mirror] + offset
        sign = np.where((self.kind == "so") | (block < mirror), 1.0, -1.0)
        if self.kind == "sp" and k % 2:
            mid = block == mirror
            half = self.blocks[k // 2] // 2
            perm[mid] = self._starts[k // 2] + (offset[mid] + half) % (2 * half)
            sign[mid] = np.where(offset[mid] < half, 1.0, -1.0)
        return perm, sign

    def _tau(self, x: np.ndarray) -> np.ndarray:
        """Involution -J^-1 x^T J of gl_n whose fixed space is the algebra (so/sp only).

        J is a signed permutation, so each entry of the image is a signed entry
        of x: the one at the form partner of its position.  x may be a (..., n, n) stack.
        """
        flat = x.reshape(*x.shape[:-2], self.ambient_dim**2)
        return (self._tau_sign * flat[..., self._partner]).reshape(x.shape)

    def _build_basis(self):
        n, k = self.ambient_dim, len(self.blocks)
        unit = np.arange(n * n)
        a, b = np.divmod(unit, n)
        degree = self._block_of[b] - self._block_of[a]
        self._degree_mask = degree.reshape(n, n)  # block degree of entry (a, b)
        self._entry_degree = degree + (k - 1)  # its index among the degrees -(k-1)..k-1
        if self.kind == "sl":
            self._partner, sign, keep = unit, np.zeros(n * n), a != b
            i, j = np.arange(1, n)[:, None], np.arange(n)
            self._helmert = ((j < i) - i * (j == i)) / np.sqrt(i * (i + 1.0))
        else:
            perm, form_sign = self._split_form()
            # tau(E_ab) = -sign_a sign_b E_{perm b, perm a}
            self._partner = perm[b] * n + perm[a]
            self._tau_sign = -form_sign[a] * form_sign[b]
            keep = (unit < self._partner) | ((unit == self._partner) & (self._tau_sign > 0))
            sign = np.where(unit == self._partner, 0.0, self._tau_sign)
            self._helmert = np.zeros((0, n))
        self._weight = np.where(sign != 0.0, np.sqrt(0.5), 1.0)
        self._pweight = sign * self._weight
        units = np.flatnonzero(keep)
        self._units = units[np.argsort(degree[units], kind="stable")]
        # the units of each degree are a run of _units; g_0 also holds the Helmert rows
        count = np.bincount(self._entry_degree[self._units], minlength=2 * k - 1)
        stop = np.cumsum(count)
        self._runs = {m: slice(stop[i] - count[i], stop[i]) for i, m in enumerate(range(1 - k, k))}
        self._runs[None] = slice(None)
        count[k - 1] += self._helmert.shape[0]
        self._dims = {m: int(c) for m, c in zip(range(1 - k, k), count)}
        self._bases: dict[int | None, _IndexBasis] = {}
        expected = {"sl": n * n - 1, "so": n * (n - 1) // 2, "sp": n * (n + 1) // 2}[self.kind]
        if self.dim != expected:
            raise AssertionError(f"basis construction produced dim {self.dim}, expected {expected}")

    def _unit_basis(self, units: np.ndarray, cartan=None) -> _IndexBasis:
        """The basis elements that start at the given unit positions, then ``cartan``."""
        return _IndexBasis(self.ambient_dim, units, self._partner[units], self._weight[units],
                           self._pweight[units], cartan)

    def _index_basis(self, m: int | None = None) -> _IndexBasis:
        """The index-array basis of g_m, or of the whole algebra for m=None, built on first use."""
        basis = self._bases.get(m)
        if basis is None:
            run = self._runs.get(m)
            if run is None:  # no such degree
                return self._unit_basis(self._units[:0])
            cartan = self._helmert if m in (None, 0) else None
            basis = self._bases[m] = self._unit_basis(self._units[run], cartan)
        return basis

    # -- structure -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return sum(self._dims.values())

    @property
    def degrees(self) -> list[int]:
        """Degrees m with nonzero component g_m, ascending."""
        return [m for m, count in self._dims.items() if count]

    @property
    def is_short(self) -> bool:
        return all(abs(m) <= 1 for m in self.degrees)

    def degree_dimension(self, m: int) -> int:
        return self._dims.get(m, 0)

    def basis(self, m: int | None = None) -> np.ndarray:
        """Orthonormal homogeneous basis matrices, all or of a single degree."""
        return self._index_basis(m).dense()

    def block_slice(self, i: int) -> slice:
        """Index range of 1-based block i."""
        if not 1 <= i <= len(self.blocks):
            raise ValueError(f"block index {i} out of range 1..{len(self.blocks)}")
        return slice(self._starts[i - 1], self._starts[i])

    def block_component(self, x, i: int, j: int) -> np.ndarray:
        x = self._check_ambient(x)
        return x[self.block_slice(i), self.block_slice(j)].copy()

    def _check_ambient(self, x) -> np.ndarray:
        x = as_matrix(x)
        n = self.ambient_dim
        if x.shape != (n, n):
            raise ShapeMismatch(f"expected an ambient {n}x{n} matrix, got {x.shape}")
        return x

    # -- membership and coordinates -------------------------------------------

    def coordinates(self, x) -> np.ndarray:
        """Coordinates in the orthonormal basis (a projection for x outside)."""
        return self._index_basis().coords(self._check_ambient(x))

    def from_coordinates(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.shape[0] != self.dim:
            raise ShapeMismatch(f"expected {self.dim} coordinates, got {v.shape[0]}")
        return self._index_basis().combine(v)

    def project(self, x) -> np.ndarray:
        """Orthogonal projection onto the algebra, from its defining equation.

        sl: remove the trace part.  so/sp: average with tau, an involution
        that is unitary for the Frobenius product, so (x + tau(x)) / 2 is the
        orthogonal projection onto its fixed space.
        """
        return self._project(self._check_ambient(x))

    def _project(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "sl":
            trace = np.trace(x, axis1=-2, axis2=-1)[..., None, None]
            return x - trace / self.ambient_dim * np.eye(self.ambient_dim)
        return (x + self._tau(x)) / 2.0

    def membership_residual(self, x) -> float:
        x = self._check_ambient(x)
        return frob(x - self._project(x))

    def require_member(self, x, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """x as a checked ambient ndarray; NotInAlgebra unless x lies in the algebra."""
        return self._unit_member(x, tol)[0]

    def _unit_member(self, x, tol: Tolerance) -> tuple[np.ndarray, np.ndarray, int]:
        """(x, x / 2**k, k) for an ambient member x, membership decided at unit scale."""
        x = self._check_ambient(x)
        unit, k = _unit_scale(x)
        res = frob(unit - self._project(unit))
        if res > tol.residual_tol * (1.0 + frob(unit)):
            raise NotInAlgebra(
                f"membership residual {res:.3e} exceeds tolerance for {self.kind}{self.blocks}"
            )
        return x, unit, k

    def degree_component(self, x, m: int) -> np.ndarray:
        x = self._check_ambient(x)
        return np.where(self._degree_mask == m, x, 0.0)

    def homogeneous_degree(self, x, tol: Tolerance = DEFAULT_TOL) -> int | None:
        """Degree of a homogeneous element, None for zero; errors if mixed."""
        return self._degree(self._unit_member(x, tol)[1], tol)

    def _degree(self, x: np.ndarray, tol: Tolerance) -> int | None:
        """homogeneous_degree of a checked member at unit scale.

        The mass |x_m|^2 of every degree m comes from one pass over the entries: at
        unit scale no square overflows, and one that underflows lies far below the cut.
        """
        mass = np.bincount(self._entry_degree, (x.real**2 + x.imag**2).ravel(), len(self._dims))
        scale = np.sqrt(mass.sum())
        if scale == 0.0:
            return None
        norm, cut = dict(zip(self._dims, np.sqrt(mass))), tol.residual_tol * scale
        present = [m for m in self.degrees if norm[m] > cut]
        if len(present) != 1:
            raise ValueError(f"element is not homogeneous; degrees with mass: {present}")
        return present[0]

    # -- algebra operations ----------------------------------------------------

    def ad(self, x) -> np.ndarray:
        """Matrix of ad(x) on the orthonormal basis of the algebra."""
        return self._index_basis().ad(self._check_ambient(x))

    @property
    def killing_constant(self) -> int:
        """c with Killing form c Tr(xy): 2n (sl), n - 2 (so), n + 2 (sp)."""
        n = self.ambient_dim
        return {"sl": 2 * n, "so": n - 2, "sp": n + 2}[self.kind]

    def killing(self, x, y, tol: Tolerance = DEFAULT_TOL) -> complex:
        """Killing form Tr(ad x . ad y) = c Tr(xy), c = :attr:`killing_constant`."""
        x, y = self.require_member(x, tol), self.require_member(y, tol)
        return complex(self.killing_constant * np.sum(x * y.T))

    def element_from_block(self, i: int, j: int, block) -> np.ndarray:
        """The unique algebra element of degree j - i whose (i, j) block is given.

        For so/sp the element also carries the form-determined partner block;
        if (i, j) is self-paired under the form, the block itself must satisfy
        the induced (skew-)symmetry, else SymmetryViolation is raised.
        """
        if i == j:
            raise ValueError("element_from_block needs i != j")
        block = as_matrix(block)
        di, dj = self.blocks[i - 1], self.blocks[j - 1]
        if block.shape != (di, dj):
            raise ShapeMismatch(f"block ({i},{j}) must be {di}x{dj}, got {block.shape}")
        n, rows, cols = self.ambient_dim, self.block_slice(i), self.block_slice(j)
        x = np.zeros((n, n), dtype=complex)
        x[rows, cols] = block
        if self.kind == "sl":
            return x
        unit, exp = _unit_scale(x)  # the symmetry is decided at unit scale
        out = unit + self._tau(unit)
        if i + j == len(self.blocks) + 1:  # (i, j) is self-paired
            out /= 2.0
        if frob(out[rows, cols] - unit[rows, cols]) > 1e-10 * (1.0 + frob(unit)):
            raise SymmetryViolation(
                f"block ({i},{j}) of {self.kind}{self.blocks} requires the "
                "form-induced symmetry; given block violates it"
            )
        return _ldexp(out, exp)

    def random_element(self, m: int | None, rng: np.random.Generator) -> np.ndarray:
        """Random element of g_m (or of the whole algebra for m=None)."""
        basis = self._index_basis(m)
        coef = rng.standard_normal(basis.count) + 1j * rng.standard_normal(basis.count)
        return basis.combine(coef)

    def __repr__(self):
        return f"GradedAlgebra({self.kind!r}, {self.blocks})"


# ---------------------------------------------------------------------------
# sl2-triples and characteristics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sl2Triple:
    """Elements (e, h, f) with the bracket relations as testable residuals.

    The residuals are those of the unit-scale pair (e / 2**k, h, f * 2**k), each
    defect norm divided by 1 + |e / 2**k| + |h| + |f * 2**k|; they are zero at zero.
    """

    e: np.ndarray
    h: np.ndarray
    f: np.ndarray
    residuals: tuple[float, float, float]

    @classmethod
    def from_elements(cls, e, h, f) -> "Sl2Triple":
        e, h, f = (as_matrix(m) for m in (e, h, f))
        _square_pair(e, f)
        _square_pair(h, e)
        return cls(e, h, f, _relations(*_unit_pair(e, f), h))

    def max_residual(self) -> float:
        """Largest residual; nan if any residual is nan, so that passes() fails."""
        return float(np.max(self.residuals))

    def passes(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return self.max_residual() <= tol.residual_tol


# the split of h by _levels: eigenvectors (columns, rows), their levels, the blocks split on
Levels = namedtuple("Levels", "right left level blocks")


@dataclass(frozen=True)
class CharacteristicResult:
    """Norm-minimal characteristic of a nilpotent element with its completion.

    ``levels`` is the split of h into its integer levels (:func:`_levels`), made
    once, where h was made, with the tol of that call; every consumer of h reads
    it.  Its blocks are alg.blocks, or (n,) for the ungraded problem (degree 0).
    """

    triple: Sl2Triple
    hermitian_defect: float
    is_hermitian: bool
    levels: Levels

    @property
    def e(self) -> np.ndarray:
        return self.triple.e

    @property
    def h(self) -> np.ndarray:
        return self.triple.h

    @property
    def f(self) -> np.ndarray:
        return self.triple.f


def _relations(e: np.ndarray, f: np.ndarray, h: np.ndarray, ef=None) -> tuple[float, float, float]:
    """The residuals of Sl2Triple for a checked pair (e, f) at unit scale and h; ``ef`` is
    [e, f] when the caller has formed it."""
    scale = 1.0 + frob(e) + frob(h) + frob(f)
    return (
        frob((_bracket(e, f) if ef is None else ef) - h) / scale,
        frob(_bracket(h, e) - 2.0 * e) / scale,
        frob(_bracket(h, f) + 2.0 * f) / scale,
    )


def _certificate(e: np.ndarray, f: np.ndarray) -> tuple[Sl2Triple, float]:
    """(e, [e, f], f) of a checked pair at unit scale and its defect |h - h*| / (1 + |h|).

    f is the Moore-Penrose inverse of e when the residuals and the defect are small.
    """
    h = _bracket(e, f)
    return Sl2Triple(e, h, f, _relations(e, f, h, h)), frob(h - h.conj().T) / (1.0 + frob(h))


def _minimal_triple(e: np.ndarray, neg: _IndexBasis, res: _IndexBasis, h_basis: _IndexBasis,
                    blocks, tol: Tolerance) -> CharacteristicResult:
    """Shared engine: minimize |h|_F over {h = [e, y] : [[e, y], e] = 2e}.

    Every h in that affine set is a genuine characteristic (completion lemma),
    and for homogeneous e the set is exactly the homogeneous characteristics,
    so the Frobenius minimizer is the one orthogonal to the direction space.
    f is the ad(h)-weight -2 part of the minimizing y, read off the split of h
    on ``blocks``, which the result carries: [e, y_w] has weight w + 2, so
    [e, y_-2] = h (Kostant).  NoTriple if h fails the multiplicity gate, or if
    hypot(|[e, f] - h|, |[h, f] + 2f|) > residual_tol (1 + |h| + |e|).  e is a
    checked member at unit scale, and so is the result (see :func:`_at_scale`).
    """
    if not e.any():
        zero, levels = np.zeros_like(e), _levels(e, blocks, tol)
        return CharacteristicResult(Sl2Triple(zero, zero, zero, (0.0, 0.0, 0.0)), 0.0, True, levels)
    if neg.count == 0:
        raise NoTriple("search space for the opposite leg is empty")

    br_e = neg.brackets(e)  # [e, y_k]
    c_mat = -res.coords(e @ br_e - br_e @ e).T  # y -> [[e, y], e]
    m_obj = h_basis.coords(br_e).T
    d = 2.0 * res.coords(e)
    try:
        y = solve_least_squares_constrained(m_obj, np.zeros(m_obj.shape[0]), c_mat, d, tol)
    except Exception as exc:  # noqa: BLE001 - re-raise with domain meaning
        raise NoTriple(f"sl2 completion system is inconsistent: {exc}") from exc

    h = np.tensordot(y, br_e, 1)
    try:  # a gate failure of the engine's own h is numerical, not an input error
        levels = _levels(h, blocks, tol)
        f = _weight_part(neg.combine(y), levels, -2)
    except (NotCharacteristic, np.linalg.LinAlgError) as exc:
        raise NoTriple(f"completed characteristic fails its split: {exc}") from exc
    ef = _bracket(e, f)
    gap = np.hypot(frob(ef - h), frob(_bracket(h, f) + 2.0 * f))
    if not gap <= tol.residual_tol * (1.0 + frob(h) + frob(e)):  # nan fails too
        raise NoTriple(f"weight -2 part of the completion misses the triple by {gap:.3e}")
    defect = frob(h - h.conj().T)
    hermitian = defect <= tol.residual_tol * (1.0 + frob(h))
    return CharacteristicResult(Sl2Triple(e, h, f, _relations(e, f, h, ef)), defect, hermitian, levels)


def _at_scale(result: CharacteristicResult, e: np.ndarray, k: int) -> CharacteristicResult:
    """The engine's result on e / 2**k, carried to e: f takes 2**-k exactly; h keeps its split."""
    return replace(result, triple=replace(result.triple, e=e, f=_ldexp(result.f, -k)))


def minimal_characteristic(
    alg: GradedAlgebra,
    e,
    degree: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> CharacteristicResult:
    """Complete a nilpotent e to the sl2-triple of minimal-norm characteristic.

    For degree k != 0 the opposite leg is searched in g_{-k} (e must be
    homogeneous of degree k).  Degree 0 means the ungraded problem: the search
    space is the whole algebra and e must be nilpotent.  The minimized
    quantity is the positive Hermitian energy of the characteristic, which in
    these realizations is a fixed positive multiple of the squared Frobenius
    norm.

    In a short grading, a nonzero e of degree +-1 takes the closed form of
    :func:`mp_inverse_short`: its Hermitian characteristic is the unique
    minimal one, and ArithmeticError is raised if that triple fails its check
    or is not Hermitian.  Every other problem goes to the constrained
    least-squares engine.  ``hermitian_defect`` is |h - h*|_F at unit scale.
    """
    e, unit, k = alg._unit_member(e, tol)
    return _at_scale(_unit_characteristic(alg, unit, degree, tol), e, k)


def _unit_characteristic(alg: GradedAlgebra, e: np.ndarray, degree, tol) -> CharacteristicResult:
    """minimal_characteristic of a checked member e at unit scale, at that scale."""
    degree = _checked_degree(alg, e, degree, tol)
    blocks = alg.blocks if degree else (alg.ambient_dim,)
    if degree == 0:
        _orbit_height(alg, e, tol)  # raises NotNilpotent
    elif alg.is_short and e.any():
        triple = _short_triple(alg, e, degree, tol)
        defect = frob(triple.h - triple.h.conj().T)
        return CharacteristicResult(triple, defect, True, _levels(triple.h, blocks, tol))
    bases = (None, None, None) if degree == 0 else (-degree, degree, 0)
    return _minimal_triple(e, *map(alg._index_basis, bases), blocks, tol)


def _checked_degree(alg: GradedAlgebra, e: np.ndarray, degree, tol) -> int:
    """The degree of the problem for a checked member e at unit scale: the given degree,
    checked against that of e, or the degree of e (0 for zero) when none is given."""
    if degree != 0:
        inferred = alg._degree(e, tol)
        if degree is None:
            return inferred or 0
        if inferred is not None and inferred != degree:
            raise ValueError(f"element has degree {inferred}, expected {degree}")
    return degree


def characteristic_direction_space(
    alg: GradedAlgebra, result: CharacteristicResult, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Orthonormal basis of the direction space of the characteristic affine set.

    ``result`` is a :func:`minimal_characteristic` of e, checked when it was
    made.  The characteristics of e in its problem form an affine space, whose
    direction space is {[e, y] : y opposite, [[e, y], e] = 0}.  With h =
    ``result.h``, that is ker ad(e) on the positive ad(h)-part of g_0 (of all
    of g for the ungraded problem): a highest-weight vector x of
    weight k >= 1 is [e, [f, x]] / k, and [e, y] with [[e, y], e] = 0 is a
    highest weight of positive weight.  The part is :func:`_positive_part` on
    ``result.levels``, split with the tol given to minimal_characteristic; ``tol``
    decides only the two rank cuts here: the span at the absolute cut rank_rtol
    (the members of the part have norm at most 1), and the kernel of ad(e) on it
    at the scale |e|_F, with e at unit scale.  In a short grading ad(e) kills the
    whole part.  Returns a (count, n, n) stack; empty when h is unique.
    """
    n, e = alg.ambient_dim, _unit_scale(result.e)[0]
    part = _positive_part(alg, result.levels).reshape(-1, n * n)
    span = rank_decomposition(part.T, tol, 1.0).image.T.reshape(-1, n, n)
    moved = _bracket(e, span).reshape(-1, n * n)
    kernel = rank_decomposition(moved.T, tol, frob(e)).kernel
    return np.tensordot(kernel.T, span, 1)


def _as_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size and not np.all(np.isfinite(v)):
        raise ValueError("vector contains non-finite entries")
    return v


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


def _vector_pinv(v: np.ndarray, tol: Tolerance) -> np.ndarray:
    """vector_pinv of a checked vector at unit scale."""
    herm = float(np.vdot(v, v).real)
    if herm == 0.0:
        return np.zeros_like(v)
    bil = complex(v @ v)
    return 2.0 * v / bil if abs(bil) > tol.residual_tol * herm else v.conj() / herm


def mp_inverse_short(alg: GradedAlgebra, e, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse of a homogeneous element of a short grading.

    The inverse f is the third leg of the sl2-triple of e with Hermitian
    characteristic, and in a short grading it has a closed form.  In the
    two-block gradings of sl, so and sp, the opposite block of f is the
    classical pseudoinverse of the block of e; in so(1, d, 1), the only
    other short grading, it is :func:`vector_pinv` of the row or column of e;
    both are scale-free.  The triple (e, [e, f], f) is checked, and its
    characteristic must be Hermitian.
    """
    if not alg.is_short:
        raise NotShortGrading(f"grading of {alg!r} has degrees {alg.degrees}")
    _, unit, k = alg._unit_member(e, tol)
    return _ldexp(_mp_inverse_short(alg, unit, alg._degree(unit, tol), tol), -k)


def _mp_inverse_short(alg: GradedAlgebra, e: np.ndarray, degree: int | None, tol: Tolerance):
    """mp_inverse_short of a checked member e at unit scale, of the given degree, at that scale."""
    if degree is None:
        return np.zeros_like(e)
    if degree == 0:
        raise ValueError("element must lie in g_{+1} or g_{-1}")
    return _short_triple(alg, e, degree, tol).f


def _short_triple(alg: GradedAlgebra, e: np.ndarray, degree: int, tol: Tolerance) -> Sl2Triple:
    """The closed-form triple (e, [e, f], f) of a checked member e of degree +-1 at unit scale.

    ArithmeticError unless its residuals pass and its characteristic is Hermitian.
    """
    i, j = (1, 2) if degree == 1 else (2, 1)
    block = e[alg.block_slice(i), alg.block_slice(j)]
    if len(alg.blocks) == 2:
        # pinv keeps the (skew-)symmetry of a self-paired so/sp block only to roundoff
        # times its condition number: project, and let the triple check judge
        f = np.zeros_like(e)
        f[alg.block_slice(j), alg.block_slice(i)] = _pinv(block, tol)[0]
        f = alg._project(f)
    else:
        w = _vector_pinv(block.reshape(-1), tol)
        f = alg.element_from_block(j, i, w.reshape(block.shape[::-1]))
    triple, defect = _certificate(e, f)
    if not triple.passes(tol):
        raise ArithmeticError(
            f"closed-form triple residuals {list(triple.residuals)} above tolerance"
        )
    if defect > tol.residual_tol:
        raise ArithmeticError(
            f"closed-form characteristic unexpectedly non-Hermitian "
            f"(defect {defect:.3e}) in a short grading"
        )
    return triple


def annihilates_positive_part(alg: GradedAlgebra, e, h, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Raising-space criterion: does ad(e) kill the positive ad(h)-part of g_0?

    h must be a characteristic of e (any homogeneous triple works; the answer
    does not depend on the choice).  The degree-0 part of the algebra is
    graded by the integer eigenvalues of ad(h); the orbit of e is
    Moore-Penrose exactly when ad(e) annihilates every positive eigenspace.

    The bare h is split here by :func:`_levels`, as minimal_characteristic splits the
    h it makes, one diagonal block b at a time: by one eigh of the Hermitian part of b
    when h is Hermitian within residual_tol * (1 + |h|), else into the right and left
    kernels of b - k at each integer level k.  NotCharacteristic unless the split fills
    C^n up to that cut and h has degree 0.  The positive part is spanned by pi(v w*), v
    and w of one block at levels k > j, pi the orthogonal projection onto the algebra.
    """
    e, h = alg.require_member(e, tol), alg.require_member(h, tol)
    return _annihilates_positive_part(alg, e, _levels(h, alg.blocks, tol), tol)


def _annihilates_positive_part(alg: GradedAlgebra, e, levels: Levels, tol: Tolerance) -> bool:
    """annihilates_positive_part of a checked member e, with h given by its split ``levels``."""
    e, x = _unit_scale(e)[0], _positive_part(alg, levels)
    moved = np.linalg.norm(_bracket(e, x), axis=(-2, -1))
    bound = tol.residual_tol * (1.0 + frob(e)) * (1.0 + np.linalg.norm(x, axis=(-2, -1)))
    return bool(np.all(moved <= bound))


def _levels(h: np.ndarray, blocks, tol: Tolerance) -> Levels:
    """The split of h into integer levels on its diagonal blocks: ``blocks``, (n,) if ungraded.

    An h that is Hermitian within the cut, |h - h*| <= cut = residual_tol (1 + |h|), is
    split by :func:`_eigh_split`, any other h by :func:`_svd_split`.  Multiplicity gate:
    NotCharacteristic unless the split's gate value lies below the cut, so that the split
    fills C^n.  The eigh gate bounds the SVD gate from above: it passes no h that fails that.
    """
    cut, defect = tol.residual_tol * (1.0 + frob(h)), frob(h - h.conj().T)
    levels, gap = _eigh_split(h, blocks, defect / 2.0) if defect <= cut else _svd_split(h, blocks)
    if gap > cut:
        raise NotCharacteristic(f"h is not block diagonal and diagonalizable with integer "
                                f"eigenvalues: defect {gap:.3e} above {cut:.3e}")
    return levels


def _svd_split(h: np.ndarray, blocks) -> tuple[Levels, float]:
    """The split of any h on ``blocks`` from the kernels of b - k, with its gate value.

    At each integer level k of the rounded eigenvalues of a block b, of multiplicity m_k,
    the last m_k right and left singular vectors of b - k give the columns v of the
    block-diagonal ``right`` and the rows w* of ``left``, at ``level`` k.  The gate value is
    the largest of those singular values and of the mass of h off the blocks.
    """
    n, off, gap, level = h.shape[0], h.copy(), 0.0, []
    right, left = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
    for start, size in zip(np.cumsum((0, *blocks[:-1])), blocks):
        s = slice(start, start + size)
        levels, counts = np.unique(np.rint(np.linalg.eigvals(h[s, s]).real), return_counts=True)
        u, sv, vh = np.linalg.svd(h[s, s] - levels[:, None, None] * np.eye(size))
        kernel = np.arange(size) >= (size - counts)[:, None]  # the last m_k singular triplets
        gap, off[s, s] = max(gap, sv[kernel].max()), 0.0
        right[s, s], left[s, s] = vh.conj()[kernel].T, u.conj().transpose(0, 2, 1)[kernel]
        level.append(np.repeat(levels, counts))
    return Levels(right, left, np.concatenate(level), tuple(blocks)), max(gap, frob(off))


def _eigh_split(h: np.ndarray, blocks, skew: float) -> tuple[Levels, float]:
    """The split of h on ``blocks`` by one eigh per block, with its gate value; ``skew`` is
    |h - h*| / 2.

    The eigenvectors V of the Hermitian part of each block b give ``right`` = V and ``left``
    = V*, at ``level`` rint(w) of their eigenvalues w.  Gate value: the largest of
    max|w - rint(w)| + skew and the mass of h off the blocks.  By Weyl's inequality each
    singular value of b - k lies within skew of that of the Hermitian part of b, so a gate
    value below 1/2 bounds that of :func:`_svd_split` from above.
    """
    n, herm, off = h.shape[0], (h + h.conj().T) / 2.0, h.copy()
    right, w = np.zeros((n, n), dtype=complex), np.empty(n)
    for start, size in zip(np.cumsum((0, *blocks[:-1])), blocks):
        s = slice(start, start + size)
        w[s], right[s, s] = np.linalg.eigh(herm[s, s])
        off[s, s] = 0.0
    level = np.rint(w)
    gap = max(np.abs(w - level).max() + skew, frob(off))
    return Levels(right, right.conj().T, level, tuple(blocks)), gap


def _positive_part(alg: GradedAlgebra, levels: Levels) -> np.ndarray:
    """The positive ad(h)-part of g as a stack pi(v w*), each of norm at most 1: v and w*
    a column and a row of one block of the split ``levels`` of h, v at the higher level."""
    right, left, level, blocks = levels
    block = np.repeat(np.arange(len(blocks)), blocks)
    a, b = np.nonzero((level[:, None] > level[None, :]) & (block[:, None] == block[None, :]))
    return alg._project(right.T[a, :, None] * left[b, None, :])  # pi(v w*)


def _weight_part(x: np.ndarray, levels: Levels, w: int) -> np.ndarray:
    """The ad(h)-weight-w part of x, for the split ``levels`` of h: in the eigenbasis V
    of h, entry (i, j) of V^-1 x V has weight level_i - level_j."""
    right, _, level, _ = levels
    inv = np.linalg.inv(right)
    return right @ np.where(level[:, None] - level[None, :] == w, inv @ x @ right, 0.0) @ inv


def is_mp_element(
    alg: GradedAlgebra,
    e,
    degree: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Whether e admits a homogeneous sl2-triple with Hermitian characteristic.

    Decided through the minimal characteristic and cross-checked with the
    raising-space criterion on the same triple: a positive criterion forces
    a Hermitian characteristic (the whole orbit is Moore-Penrose), and a
    violation of that implication raises ArithmeticError.  The converse is
    not asserted: an orbit that is not Moore-Penrose can still contain
    special elements in Hermitian position, so criterion False with a
    Hermitian characteristic is a legitimate outcome, not a numerical failure.
    """
    e = alg._unit_member(e, tol)[1]
    result = _unit_characteristic(alg, e, degree, tol)  # the zero element is Hermitian
    if not result.is_hermitian and _annihilates_positive_part(alg, e, result.levels, tol):
        raise ArithmeticError(
            f"raising-space criterion holds but the minimal characteristic "
            f"has Hermitian defect {result.hermitian_defect:.3e}"
        )
    return result.is_hermitian


def orbit_height(alg: GradedAlgebra, e, tol: Tolerance = DEFAULT_TOL) -> int:
    """Height of the nilpotent orbit: the largest k with ad(e)^k != 0.

    The image of ad(e)^k is invariant, so the rank of ad(e) on it, in an
    orthonormal basis, is the rank of ad(e)^(k+1).  Each rank is decided with
    rank_rtol at the scale |ad(e)|_F, and its decomposition gives the next
    basis.  The height is the number of steps until the rank reaches 0; the
    zero element has height 0.  NotNilpotent is raised as soon as the rank
    stops falling, or when ad(e) = 0 but e != 0 (so(2) is abelian; every other
    algebra here has zero center), and ArithmeticError (a numerical failure) when the height
    would exceed that of the regular nilpotent: 2n - 2 for sl_n and sp_n,
    2n - 4 for so_n with n odd and 2n - 6 with n even.
    """
    return _orbit_height(alg, alg._unit_member(e, tol)[1], tol)


def _orbit_height(alg: GradedAlgebra, e: np.ndarray, tol: Tolerance) -> int:
    """orbit_height of a checked member at unit scale."""
    n = alg.ambient_dim
    top = 2 * n - 2 if alg.kind != "so" else 2 * n - (4 if n % 2 else 6)  # the regular nilpotent
    on_image = alg.ad(e)  # ad(e) on the image of ad(e)^height
    scale, height = frob(on_image), 0
    while (dec := rank_decomposition(on_image, tol, scale)).rank:
        if dec.rank == on_image.shape[0]:
            raise NotNilpotent(
                f"e is not nilpotent: ad(e) keeps rank {dec.rank} on the image of ad(e)^{height}"
            )
        if height >= top:
            raise ArithmeticError(
                f"ad(e) keeps rank {dec.rank} on the image of ad(e)^{height}, but no nilpotent "
                f"of {alg.kind}_{n} has height above {top}: the ranks are ill-conditioned"
            )
        on_image = dec.image.conj().T @ on_image @ dec.image
        height += 1
    if height == 0 and e.any():
        raise NotNilpotent(f"e is not nilpotent: it is nonzero and central in {alg.kind}_{n}")
    return height


def is_mp_orbit(alg: GradedAlgebra, e, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the adjoint orbit of a nonzero nilpotent is Moore-Penrose.

    Equivalent to the orbit having height exactly 2.
    """
    e = alg._unit_member(e, tol)[1]
    if not e.any():
        raise ZeroElement("the zero element does not generate a nilpotent orbit")
    return _orbit_height(alg, e, tol) == 2


def multidegree_characteristic(
    alg: GradedAlgebra, i: int, j: int, e, tol: Tolerance = DEFAULT_TOL
) -> CharacteristicResult:
    """Minimal characteristic for an element supported on the single block (i, j).

    This is the per-multidegree problem of a parabolic of sl_n: the opposite
    leg is searched in the transposed block (j, i) only.
    """
    if alg.kind != "sl":
        raise ValueError("multidegree checks are defined for sl gradings")
    if i == j:
        raise ValueError("block position must be off-diagonal")
    e, unit, k = alg._unit_member(e, tol)
    outside = unit.copy()
    outside[alg.block_slice(i), alg.block_slice(j)] = 0.0
    if frob(outside) > tol.residual_tol * (1.0 + frob(unit)):
        raise UnsupportedBlock(f"element has mass {frob(outside):.3e} outside block ({i},{j})")
    # the units of block (j, i), one entry each, in row-major order
    block = (alg._block_of[:, None] == j - 1) & (alg._block_of[None, :] == i - 1)
    neg, res = alg._unit_basis(np.flatnonzero(block)), alg._index_basis(j - i)
    return _at_scale(_minimal_triple(unit, neg, res, alg._index_basis(0), alg.blocks, tol), e, k)


def mp_check_multidegree(
    alg: GradedAlgebra, i: int, j: int, e, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Moore-Penrose property of a single-block element of a parabolic of sl_n."""
    return multidegree_characteristic(alg, i, j, e, tol).is_hermitian
