"""Moore-Penrose theory for maps into a space with a symmetric or symplectic form.

For F in Hom(U, V) with V carrying a nondegenerate symmetric or skew form,
the orbit of F under the natural group action is labeled by (a, b): the rank
of F and the radical dimension of the form restricted to the image.  An
inverse G satisfying

    (*)   GF and FG - (FG)#  are Hermitian,
    (**)  F = 2 FGF - (FG)# F   and   G = 2 GFG - G (FG)#,

exists exactly when b = 0 or b = a; both constructive branches are built
on the classical pseudoinverse F+, and the excluded middle is certified
numerically through the graded embedding on U* + V + U (the minimal
characteristic of the embedded element has a strictly positive Hermitian
defect).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateForm, NotMoorePenroseOrbit, ShapeMismatch
from .forms import SYMMETRIC, BilinearForm
from .graded import GradedAlgebra, minimal_characteristic
from .numcore import (DEFAULT_TOL, Report, Tolerance, _ldexp, _pinv, _unit_pair, _unit_scale,
                      as_matrix, frob, rank_decomposition)

__all__ = [
    "OrbitLabel",
    "sharp",
    "classify_orbit",
    "mp_inverse_homform",
    "verify_homform",
    "embedding_algebra",
    "hom_element",
    "hom_coelement",
    "CLASSICAL_MAXIMAL_PARABOLIC_TABLE",
]


@dataclass(frozen=True)
class OrbitLabel:
    """Orbit invariants: a = rank(F), b = dim of the radical of the restricted form."""

    a: int
    b: int

    def __post_init__(self):
        if not 0 <= self.b <= self.a:
            raise ValueError(f"invalid orbit label (a={self.a}, b={self.b})")

    @property
    def has_inverse(self) -> bool:
        return self.b == 0 or self.b == self.a


def sharp(form: BilinearForm, a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Adjoint with respect to the form: omega(Ax, y) = omega(x, A# y).

    Computed as gram^{-1} A^T gram with gram and A each at unit scale, so that
    nothing overflows or underflows; A's power of two is put back exactly.  The
    form must be nondegenerate.
    """
    a = as_matrix(a)
    w = form.gram
    if a.shape != w.shape:
        raise ShapeMismatch(f"operator must be {w.shape}, got {a.shape}")
    if not form.is_nondegenerate(tol):
        raise DegenerateForm("sharp adjoint requires a nondegenerate form")
    (a, k), w = _unit_scale(a), _unit_scale(w)[0]
    return _ldexp(np.linalg.solve(w, a.T @ w), k)


def classify_orbit(form: BilinearForm, f_mat, tol: Tolerance = DEFAULT_TOL) -> OrbitLabel:
    """Orbit label (a, b) of F: rank and radical dimension of omega on Im F."""
    f_mat = as_matrix(f_mat)
    if f_mat.shape[0] != form.dim:
        raise ShapeMismatch(f"map must have {form.dim} rows, got {f_mat.shape[0]}")
    if not form.is_nondegenerate(tol):
        raise DegenerateForm("orbit classification requires a nondegenerate form")
    dec = rank_decomposition(_unit_scale(f_mat)[0], tol)
    if dec.rank == 0:
        return OrbitLabel(0, 0)
    # the restricted form is ranked at the ambient form's scale |W|_2: a totally
    # isotropic image leaves only roundoff in it
    restricted = dec.image.T @ form.gram @ dec.image
    return OrbitLabel(dec.rank, dec.rank - rank_decomposition(
        restricted, tol, np.linalg.norm(form.gram, 2)).rank)


def _standard_symmetry(form: BilinearForm, tol: Tolerance) -> None:
    """The constructive branches assume the standard identity / symplectic gram."""
    n = form.dim
    if form.symmetry == SYMMETRIC:
        expected = np.eye(n)
    else:
        if n % 2:
            raise DegenerateForm("skew form needs even dimension")
        expected = np.zeros((n, n))
        expected[: n // 2, n // 2 :] = np.eye(n // 2)
        expected[n // 2 :, : n // 2] = -np.eye(n // 2)
    if frob(form.gram - expected) > tol.residual_tol * (1.0 + frob(form.gram)):
        raise ValueError(
            "mp_inverse_homform expects the standard identity (symmetric) or "
            "block-symplectic (skew) Gram matrix"
        )


def embedding_algebra(form: BilinearForm, dim_u: int) -> GradedAlgebra:
    """Graded so/sp realization on U* + V + U whose degree 1 part is Hom(U, V)."""
    kind = "so" if form.symmetry == SYMMETRIC else "sp"
    return GradedAlgebra(kind, (dim_u, form.dim, dim_u))


def generic_orbit_map(
    form: BilinearForm, a: int, b: int, dim_u: int
) -> np.ndarray:
    """A representative of the orbit O(a, b) in general Hermitian position.

    The image is spanned by b isotropic radical generators together with a
    nondegenerate part, and for 0 < b < a the first nondegenerate generator is
    tilted into the radical direction so that the two are not orthogonal for
    the Hermitian product.  On such representatives the inverse never exists
    when 0 < b < a; orbits of maps with Hermitian-orthogonal splittings can
    contain special elements that do satisfy the inverse equations even
    though the orbit as a whole is not Moore-Penrose.
    """
    _standard_symmetry(form, DEFAULT_TOL)
    n = form.dim
    unit = np.eye(n, dtype=complex)
    if not (0 <= b <= a <= min(n, dim_u)):
        raise ValueError(f"unreachable label (a={a}, b={b}) for dim V={n}, dim U={dim_u}")
    if form.symmetry == SYMMETRIC:
        if a + b > n:
            raise ValueError(f"label (a={a}, b={b}) needs a + b <= dim V = {n}")
        r = a - b
        radical = [
            unit[r + 2 * j] + 1j * unit[r + 2 * j + 1] for j in range(b)
        ]
        nondeg = [unit[i] for i in range(r)]
    else:
        if (a - b) % 2:
            raise ValueError("skew forms force a - b to be even")
        half = n // 2
        r = (a - b) // 2
        if r + b > half or a > n:
            raise ValueError(f"label (a={a}, b={b}) does not fit in dim V = {n}")
        radical = [unit[r + j] for j in range(b)]
        nondeg = []
        for i in range(r):
            nondeg.extend([unit[i], unit[half + i]])
    if radical and nondeg:
        nondeg[0] = nondeg[0] + radical[0]
    f_mat = np.zeros((n, dim_u), dtype=complex)
    for j, c in enumerate(nondeg + radical):
        f_mat[:, j] = c
    return f_mat


def hom_element(alg: GradedAlgebra, f_mat) -> np.ndarray:
    """Degree +1 element of the embedding realizing F in Hom(U, V)."""
    return alg.element_from_block(2, 3, f_mat)


def hom_coelement(alg: GradedAlgebra, g_mat) -> np.ndarray:
    """Degree -1 element realizing G in Hom(V, U).

    The label carries a factor 2: with f = hom_coelement(G), the sl2
    relations of (e, [e, f], f) are exactly conditions (**) for (F, G).
    """
    return alg.element_from_block(3, 2, 2.0 * as_matrix(g_mat))


def mp_inverse_homform(
    form: BilinearForm, f_mat, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, OrbitLabel, Report]:
    """Constructive inverse on the orbits that admit one (b = 0 or b = a).

    Returns G together with the orbit label of F and the report of
    :func:`verify_homform` on (F, G); a report that fails raises
    ArithmeticError instead.

    b = a: G = F+ / 2 (Im F is totally isotropic, so F+ vanishes already on
    gram * conj(Im F)).  b = 0: G = F+ P (P^T W P)^{-1} P^T W, F+ after the
    omega-projection onto Im F, with P an orthonormal basis of Im F and W the
    Gram matrix.  Orbits with 0 < b < a raise NotMoorePenroseOrbit carrying
    the Hermitian-defect certificate of the embedded minimal characteristic.
    """
    f_mat = as_matrix(f_mat)
    _standard_symmetry(form, tol)
    label = classify_orbit(form, f_mat, tol)
    a, b = label.a, label.b
    if not label.has_inverse:
        # The exception is an orbit statement, so the certificate is computed
        # at the general-position representative of O(a, b): its embedded
        # minimal characteristic has a strictly positive Hermitian defect.
        alg = embedding_algebra(form, f_mat.shape[1])
        witness = generic_orbit_map(form, a, b, f_mat.shape[1])
        res = minimal_characteristic(alg, hom_element(alg, witness), 1, tol)
        raise NotMoorePenroseOrbit(a, b, res.hermitian_defect)
    unit, exp = _unit_scale(f_mat)
    f_plus, dec = _pinv(unit, tol)
    if b == a:  # F+ = 0 at a = 0
        g_mat = f_plus / 2.0
    else:
        p, w = dec.image, form.gram
        g_mat = f_plus @ p @ np.linalg.solve(p.T @ w @ p, p.T @ w)
    g_mat = _ldexp(g_mat, -exp)
    report = verify_homform(form, f_mat, g_mat, tol)
    if not report.passed:
        raise ArithmeticError(
            f"constructed inverse failed verification: residuals {report.residuals}"
        )
    return g_mat, label, report


def verify_homform(
    form: BilinearForm, f_mat, g_mat, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Relative residuals of conditions (*) and (**) for a candidate pair (F, G)."""
    f_mat = as_matrix(f_mat)
    g_mat = as_matrix(g_mat)
    if f_mat.shape[0] != form.dim:
        raise ShapeMismatch(f"map must have {form.dim} rows, got {f_mat.shape[0]}")
    if g_mat.shape != (f_mat.shape[1], f_mat.shape[0]):
        raise ShapeMismatch(
            f"G must have shape {(f_mat.shape[1], f_mat.shape[0])}, got {g_mat.shape}"
        )
    if not form.is_nondegenerate(tol):
        raise DegenerateForm("sharp adjoint requires a nondegenerate form")
    f_mat, g_mat = _unit_pair(f_mat, g_mat)
    gf = g_mat @ f_mat
    fg = f_mat @ g_mat
    fg_sharp = np.linalg.solve(form.gram, fg.T @ form.gram)
    diff = fg - fg_sharp
    star1 = 2.0 * fg @ f_mat - fg_sharp @ f_mat - f_mat
    star2 = 2.0 * g_mat @ fg - g_mat @ fg_sharp - g_mat
    return Report.gated(
        {
            "residual_gf_hermitian": frob(gf - gf.conj().T) / (1.0 + frob(gf)),
            "residual_fg_diff_hermitian": frob(diff - diff.conj().T) / (1.0 + frob(diff)),
            "residual_star1": frob(star1) / (1.0 + frob(f_mat)),
            "residual_star2": frob(star2) / (1.0 + frob(g_mat)),
        },
        tol,
    )


# Which maximal parabolic subgroups of the orthogonal and symplectic groups
# are Moore-Penrose (Bourbaki numbering of simple roots).  Ships as static
# documentation; the exhaustive small-dimension classification in the test
# suite spot-checks it through classify_orbit / mp_inverse_homform.
CLASSICAL_MAXIMAL_PARABOLIC_TABLE = (
    {
        "group": "SO(2n+1), type B_n",
        "moore_penrose_roots": ("alpha_1", "alpha_n"),
        "abelian_radical_roots": ("alpha_1", "alpha_n"),
        "note": "every Moore-Penrose maximal parabolic has abelian unipotent radical",
    },
    {
        "group": "SO(2n), type D_n",
        "moore_penrose_roots": ("alpha_1", "alpha_{n-1}", "alpha_n"),
        "abelian_radical_roots": ("alpha_1", "alpha_{n-1}", "alpha_n"),
        "note": "every Moore-Penrose maximal parabolic has abelian unipotent radical",
    },
    {
        "group": "Sp(2n), type C_n",
        "moore_penrose_roots": ("alpha_1", "alpha_2", "alpha_{n-1}", "alpha_n"),
        "abelian_radical_roots": ("alpha_n",),
        "note": "alpha_1, alpha_2, alpha_{n-1} are Moore-Penrose without abelian radical",
    },
)
