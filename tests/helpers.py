"""Shared generators for the test suite.

Rank-deficient matrices are always built as products of random factors of
prescribed rank, never by thresholding noise, so every test knows the exact
rank of its input.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import scipy.linalg

from liepinv import graded
from liepinv.errors import NotNilpotent, ShapeMismatch
from liepinv.graded import GradedAlgebra, bracket
from liepinv.numcore import (
    DEFAULT_TOL,
    QuaternionMatrix,
    Report,
    _ldexp,
    _pinv,
    _unit_pair,
    _unit_scale,
    as_matrix,
    frob,
    rank_decomposition,
)


def random_complex(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_matrix_with_rank(rng, rows: int, cols: int, rank: int) -> np.ndarray:
    """Product of factors with prescribed exact rank."""
    if rank == 0:
        return np.zeros((rows, cols), dtype=complex)
    return random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)


def random_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_quaternion_matrix(rng, rows: int, cols: int) -> QuaternionMatrix:
    return QuaternionMatrix(rng.standard_normal((rows, cols, 4)))


def quaternion_matmul(p: QuaternionMatrix, q: QuaternionMatrix) -> QuaternionMatrix:
    """p q by Hamilton products of the entries: the oracle for "embed is multiplicative"."""
    a1, b1, c1, d1 = np.moveaxis(p.data[:, :, None, :], -1, 0)
    a2, b2, c2, d2 = np.moveaxis(q.data[None, :, :, :], -1, 0)
    prod = np.stack([
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    ], axis=-1)
    return QuaternionMatrix(prod.sum(axis=1))


def quaternion_adjoint(q: QuaternionMatrix) -> QuaternionMatrix:
    """Quaternionic conjugate transpose: transpose, and negate the i, j, k parts."""
    return QuaternionMatrix(np.transpose(q.data, (1, 0, 2)) * [1.0, -1.0, -1.0, -1.0])


def compact_group_element(alg: GradedAlgebra, rng, scale: float = 0.5) -> np.ndarray:
    """exp of a random skew-Hermitian degree-0 element: unitary, grading-preserving."""
    x = alg.random_element(0, rng) * scale
    x = (x - x.conj().T) / 2.0
    x = alg.project(x)
    return scipy.linalg.expm(x)


def levi_group_element(alg: GradedAlgebra, rng, scale: float = 0.4) -> np.ndarray:
    """exp of a random degree-0 element: grading-preserving, generically non-unitary."""
    return scipy.linalg.expm(alg.project(alg.random_element(0, rng) * scale))


def ill_conditioned_sp8_conjugate() -> tuple[GradedAlgebra, np.ndarray]:
    """A degree-1 element of sp with blocks (1,)*8 under g = exp(8x/|x|_F), cond g = 307.

    x is drawn from the whole algebra, so g e g^-1 is not exactly homogeneous, and its
    height is that of the regular nilpotent e, 14, which the Jordan type of g e g^-1
    reads.  The ranks of ad(g e g^-1) have condition number near cond(g)^2: they give a
    height above the 14 that sp_8 allows, so :func:`whole_algebra_height` raises
    ArithmeticError.
    """
    alg = GradedAlgebra("sp", (1,) * 8)
    rng = np.random.default_rng(1310)
    e = alg.random_element(1, rng)
    compact_group_element(alg, rng)  # the draws of TestHeightsAreRanks, which takes u here
    x = alg.random_element(None, rng)
    g = scipy.linalg.expm(8.0 * x / frob(x))
    return alg, g @ e @ np.linalg.inv(g)


# The short gradings that carry a Jordan pair, small enough to sweep.
ALL_PAIRS = (
    [("sl", (n, m)) for n in (1, 2, 3) for m in (1, 2, 3)]
    + [("sp", (n, n)) for n in (1, 2, 3)]
    + [("so", (n, n)) for n in (2, 3)]
    + [("so", (1, d, 1)) for d in (1, 2, 3, 4)]
)


def pinv_factorization(a, tol=DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse via a rank factorization from column-pivoted QR.

    An independent route to ``classical.pinv``: A = B C with B = Q[:, :r]
    (so B*B = I) and the closed formula C*(CC*)^-1 B*.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m == 0 or n == 0:
        return np.zeros((n, m), dtype=complex)
    q, r, piv = scipy.linalg.qr(a, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    top = diag[0] if diag.size else 0.0
    rank = int(np.sum(diag > tol.rank_rtol * top))
    if rank == 0:
        return np.zeros((n, m), dtype=complex)
    b = q[:, :rank]
    c = np.zeros((rank, n), dtype=complex)
    c[:, piv] = r[:rank, :]
    ch = c.conj().T
    return ch @ np.linalg.solve(c @ ch, b.conj().T)


def form_pinv_annihilator(gram, tol=DEFAULT_TOL) -> np.ndarray:
    """The inverse form built from the kernel/annihilator geometry, as liepinv once built it.

    With K an orthonormal kernel basis of the Gram matrix W, the annihilator
    of the kernel is spanned by an orthonormal A with ker(K^T) = span(A); the
    inverse of the nondegenerate form W induces there, extended by zero on the
    Hermitian orthocomplement, is W+ = conj(A) (A* W conj(A))^-1 A*.  An
    independent route to ``forms.form_pinv``, which is ``classical.pinv`` of W.
    """
    w = as_matrix(gram)
    n = w.shape[0]
    kernel = rank_decomposition(w, tol).kernel
    if kernel.shape[1] == n:
        return np.zeros((n, n), dtype=complex)
    ann = rank_decomposition(kernel.T, tol).kernel  # basis of Ann(Ker w)
    ann_c = ann.conj()
    return ann_c @ np.linalg.solve(ann.conj().T @ w @ ann_c, ann.conj().T)


def homform_basis_solve(form, f_mat, b: int, tol=DEFAULT_TOL) -> np.ndarray:
    """The Hom(U, V) inverse G of a nonzero F with b = 0 or b = rank F, by a basis solve.

    V is split as Im F + its omega-orthocomplement (b = 0), or as
    Im F + gram conj(Im F) + the Hermitian complement of both (b = a).  G
    inverts the restriction of F from its coimage onto Im F (halved when
    b = a) and vanishes on the other summands; one solve against the basis
    fixes it.  This is how liepinv once built the inverse, and an independent
    route to ``homform.mp_inverse_homform``, which builds it from
    ``classical.pinv``.
    """
    f_mat = as_matrix(f_mat)
    n, k = f_mat.shape
    dec = rank_decomposition(f_mat, tol)
    a = dec.rank
    image = dec.image                                             # (n, a)
    coimage = rank_decomposition(dec.kernel.conj().T, tol).kernel  # (k, a)
    lead = coimage @ np.linalg.inv(image.conj().T @ f_mat @ coimage)
    if b == 0:
        perp = rank_decomposition(image.T @ form.gram, tol).kernel  # omega-complement
        basis = np.hstack([image, perp])
    else:
        polar = form.gram @ image.conj()
        rest = rank_decomposition(np.hstack([image, polar]).conj().T, tol).kernel
        basis = np.hstack([image, polar, rest])
        lead = lead / 2.0
    if rank_decomposition(basis, tol).rank < n:
        raise ValueError("image decomposition of V failed to span")
    padded = np.hstack([lead, np.zeros((k, n - a), dtype=complex)])
    return np.linalg.solve(basis.T, padded.T).T


def gram_matrix(pair, inv, sign: int = 1) -> np.ndarray:
    """Gram matrix of H(x, y) = B(x, omega(y)) on the chosen component."""
    k = pair.pairing
    return k @ inv.omega_plus if sign > 0 else k.T @ inv.omega_minus


def _unit_pair_recoveries(a, x):
    """The unit pair of ``numcore._unit_pair``, which scales a a second time, its
    commutator [a, x], and the residuals of (*) on it."""
    a, x = _unit_pair(as_matrix(a), as_matrix(x))
    ax = bracket(a, x)
    return a, x, ax, {
        "recover_a": frob(0.5 * bracket(ax, a) - a) / (1.0 + frob(a)),
        "recover_x": frob(0.5 * bracket(-ax, x) - x) / (1.0 + frob(x)),
    }


def unit_pair_jordan_residuals(pair, inv, a, x, tol=DEFAULT_TOL) -> dict:
    """The residuals of (*), and of (**) by the operator formula: the Hermitian defect of
    each of the coordinate operators {a x .} and {x a .} for the Gram matrix of H.  The
    oracle for the ambient check of ``jordan.verify_jordan_mp``."""
    sign = pair.component_of(a, tol) or -pair.component_of(x, tol) or 1
    a, x, _, residuals = _unit_pair_recoveries(a, x)
    for name, y, z, side in (("hermitian_ax", a, x, sign), ("hermitian_xa", x, a, -sign)):
        op, gram = pair.operator_matrix(y, z, side), gram_matrix(pair, inv, side)
        residuals[name] = frob(op.T @ gram - gram @ op.conj()) / (1.0 + frob(gram) * frob(op))
    return residuals


def unit_pair_ambient_residuals(inv, a, x) -> dict:
    """The residuals of ``jordan.verify_jordan_mp`` by its formula on the unit pair of
    ``numcore._unit_pair``: an oracle for the bit-identical pair built from the scale of
    the membership check."""
    a, x, ax, residuals = _unit_pair_recoveries(a, x)
    p = inv.form
    residuals["hermitian"] = frob(ax @ p - p @ ax.conj().T) / (1.0 + frob(a) * frob(x))
    return residuals


def jordan_mp_fixed_point(pair, inv, a, scale: float = 1.0, max_iter: int = 150,
                          tol=DEFAULT_TOL) -> np.ndarray:
    """Solve the Jordan-pair equations by a guarded Newton-Schulz refinement.

    Iterates X <- 2X - {X, A, X} from X0 = scale * omega(A) / nu, where nu is
    the operator norm of z -> {A, omega(A), z}; any scale in (0, 1] converges
    to the Moore-Penrose inverse.  The raw iteration eventually amplifies
    roundoff along directions annihilated by A (components there double each
    step), so the refinement tracks the best iterate by recovery residual and
    stops as soon as the residual turns upward after convergence.  This route
    is independent of the closed form and of the sl2 engine, and tests
    uniqueness.
    """
    a = as_matrix(a)
    if frob(a) == 0.0:
        return np.zeros_like(a)
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must lie in (0, 1]")
    sign = pair.component_of(a, tol)
    a = pair.require_component(a, sign, tol)
    omega_a = inv.apply(pair, a, tol)
    nu = np.linalg.norm(pair.operator_matrix(a, omega_a, sign), 2)
    x = (scale / nu) * omega_a

    best = x
    best_res = np.inf
    for _ in range(max_iter):
        cubic = 0.5 * bracket(bracket(x, a), x)
        res = frob(cubic - x) / (1.0 + frob(x))
        if res < best_res:
            best, best_res = x, res
        if best_res <= 1e-15:
            break
        if res > 10.0 * best_res and best_res <= 1e-8:
            break  # roundoff takeover after convergence
        # project back into the opposite component: ambient matmul roundoff
        # outside it would otherwise be doubled every step
        x = pair.from_coords(pair.coords(2.0 * x - cubic, -sign), -sign)
    return best


def split_form(kind: str, blocks) -> np.ndarray:
    """The split (anti-block-diagonal) form of an so/sp grading, block by block."""
    starts = np.concatenate([[0], np.cumsum(blocks)])
    k = len(blocks)
    form = np.zeros((starts[-1], starts[-1]))
    for i in range(k):
        j = k - 1 - i
        d = blocks[i]
        if i == j and kind == "sp":
            half = d // 2
            core = np.zeros((d, d))
            core[:half, half:] = np.eye(half)
            core[half:, :half] = -np.eye(half)
        else:
            core = np.eye(d) if kind == "so" or i <= j else -np.eye(d)
        form[starts[i]:starts[i + 1], starts[j]:starts[j + 1]] = core
    return form


def svd_graded_basis(alg: GradedAlgebra, cutoff: float = 1e-12) -> dict[int, np.ndarray]:
    """The homogeneous basis of each degree found numerically, as liepinv once built it.

    Every unit matrix E_ab is mapped into the algebra (the traceless part for
    sl; for so/sp (E_ab + tau(E_ab)) / 2 with tau(x) = -J^-1 x^T J, the form
    J built block by block) and the images of each degree are orthonormalized
    by an SVD.  An independent oracle for the index-arithmetic basis of
    ``GradedAlgebra``.
    """
    n = alg.ambient_dim
    k = len(alg.blocks)
    block_of = np.repeat(np.arange(k), alg.blocks)
    if alg.kind != "sl":
        form = split_form(alg.kind, alg.blocks)
        form_inv = np.linalg.inv(form)
    per_degree = {m: [] for m in range(-(k - 1), k)}
    for a in range(n):
        for b in range(n):
            unit = np.zeros((n, n))
            unit[a, b] = 1.0
            if alg.kind == "sl":
                cand = unit - (np.eye(n) / n if a == b else 0.0)
            else:
                cand = (unit - form_inv @ unit.T @ form) / 2.0
            if frob(cand) > cutoff:
                per_degree[block_of[b] - block_of[a]].append(cand)
    bases = {}
    for m, cands in per_degree.items():
        if not cands:
            bases[m] = np.zeros((0, n, n), dtype=complex)
            continue
        flat = np.array(cands).reshape(len(cands), n * n)
        _, s, vh = np.linalg.svd(flat, full_matrices=False)
        rank = int(np.sum(s > cutoff))
        bases[m] = vh[:rank].reshape(rank, n, n).astype(complex)
    return bases


def eager_index_bases(alg: GradedAlgebra) -> dict:
    """Every index basis of ``alg``, all built at once as ``GradedAlgebra`` once did at
    construction: the units of degree m picked out of the degree-sorted unit table by
    a mask, the Helmert rows (sl only) in g_0 and in the whole algebra (key None)."""
    k = len(alg.blocks)
    degree = alg._entry_degree[alg._units] - (k - 1)
    cartan = alg._helmert if alg.kind == "sl" else None
    bases = {m: alg._unit_basis(alg._units[degree == m], cartan if m == 0 else None)
             for m in range(1 - k, k)}
    bases[None] = alg._unit_basis(alg._units, cartan)
    return bases


def stack_ad(basis, x: np.ndarray) -> np.ndarray:
    """The matrix of [x, .] on an index basis from the stack of brackets [x, b_k] and
    their coordinates, as ``_IndexBasis.ad`` once computed it: the oracle for its table."""
    return basis.coords(basis.brackets(x)).T


def whole_algebra_height(alg: GradedAlgebra, e, tol=DEFAULT_TOL) -> int:
    """The orbit height of e from the nested images of the whole of ad(e), as
    ``graded.orbit_height`` once computed it for every e: one SVD of a matrix of side
    up to dim g per step, and ArithmeticError above the height of the regular nilpotent.
    The oracle for ``orbit_height``, which reads the Jordan type of e from the ranks of
    the powers of e, on elements whose ad(e) is well conditioned (unitary conjugates)."""
    e = alg._unit_member(e, tol)[1]
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


def masked_degree(alg: GradedAlgebra, x: np.ndarray, tol=DEFAULT_TOL) -> int | None:
    """The homogeneous degree of a member x at unit scale by one masked Frobenius norm
    per degree: the rule ``GradedAlgebra`` once used, an oracle for its one-pass test."""
    scale = frob(x)
    if scale == 0.0:
        return None
    cut = tol.residual_tol * scale
    entry_degree = alg._entry_degree.reshape(x.shape) - (len(alg.blocks) - 1)
    present = [m for m in alg.degrees if frob(x[entry_degree == m]) > cut]
    if len(present) != 1:
        raise ValueError(f"element is not homogeneous; degrees with mass: {present}")
    return present[0]



def signature_matrix(space) -> np.ndarray:
    """The dense I = diag(Id_n, -Id_m) of a pseudo-Euclidean space."""
    return np.diag(np.concatenate([np.ones(space.n), -np.ones(space.m)]))


def pseudo_euclidean_pinv_formula(space, v, tol=DEFAULT_TOL) -> np.ndarray:
    """The three-case formula ``forms.pseudo_euclidean_pinv`` once had, an oracle for the
    vector route: -v/{v,v} off the null cone, -Iv/(2(v,v)) on it, zero at zero."""
    v, exp = _unit_scale(np.asarray(v, dtype=float).reshape(-1))
    euclid = float(v @ v)
    if euclid == 0.0:
        return np.zeros_like(v)
    ivector = signature_matrix(space) @ v
    pseudo = float(v @ ivector)
    w = -v / pseudo if abs(pseudo) > tol.residual_tol * euclid else -ivector / (2.0 * euclid)
    return _ldexp(w, -exp)


def pseudo_legs_by_hand(space, v, w) -> tuple[np.ndarray, np.ndarray]:
    """The legs e, f of the so(n+1, m+1) layout written out entry by entry, as
    ``forms`` once built them: e = (row v, column -Iv), f = (column p, row -Ip), p = -2Iw."""
    d, ivec = space.dim, signature_matrix(space)
    e = np.zeros((d + 2, d + 2))
    e[0, 1 : d + 1] = v
    e[1 : d + 1, d + 1] = -ivec @ v
    p = -2.0 * (ivec @ w)
    f = np.zeros((d + 2, d + 2))
    f[1 : d + 1, 0] = p
    f[d + 1, 1 : d + 1] = -(ivec @ p)
    return e, f


def pseudo_report_by_hand(space, v, w, tol=DEFAULT_TOL) -> Report:
    """The certificate of ``pseudo_legs_by_hand``, as verify_pseudo_euclidean_pinv once took it."""
    triple, defect = graded._certificate(*_unit_pair(*pseudo_legs_by_hand(space, v, w)))
    residuals = {"triple_residual": triple.max_residual(), "characteristic_defect": defect}
    return Report.gated(residuals, tol)


def partitions(n: int):
    """All partitions of n as weakly decreasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def jordan_nilpotent(partition) -> np.ndarray:
    """Nilpotent matrix in Jordan normal form for the given partition."""
    n = sum(partition)
    e = np.zeros((n, n), dtype=complex)
    pos = 0
    for part in partition:
        for i in range(part - 1):
            e[pos + i, pos + i + 1] = 1.0
        pos += part
    return e


def engine_characteristic(alg, e, degree: int, tol=DEFAULT_TOL):
    """The minimal characteristic from the constrained least-squares engine on g_-degree.

    An independent route to ``graded.minimal_characteristic``, which takes the
    closed form in short gradings: the engine minimizes |h|_F over the
    completions of e, as liepinv once did for every grading.
    """
    e, unit, k = alg._unit_member(e, tol)
    bases = map(alg._index_basis, (-degree, degree, 0))
    return graded._at_scale(graded._minimal_triple(unit, *bases, alg.blocks, tol), e, k)


class InconsistentConstraints(ValueError):
    """The equality constraints of a least-squares problem have no solution."""


def solve_least_squares_constrained(objective, target, constraints, rhs, tol=DEFAULT_TOL):
    """Minimize ``|M x - t|`` subject to ``C x = d``, minimal-norm among minimizers.

    The general solver that liepinv once exported and the engine once called, kept
    as the engine's oracle.  The constraint system is eliminated through its
    minimal-norm particular solution and an orthonormal kernel basis N of C, after
    which an ordinary minimal-norm least-squares solve in the reduced variables
    gives the answer; the particular solution is orthogonal to ker C, so minimal
    norm in the reduced variable is minimal norm in ``x``.  The reduced rank is
    decided against |M|_F, not against |M N|: where M vanishes on ker C, M N holds
    only roundoff, and a cutoff relative to it would invert the noise.

    InconsistentConstraints if no x satisfies ``C x = d`` within the residual
    tolerance; ArithmeticError if the first-order optimality residual is large.
    """
    m_mat, c_mat = as_matrix(objective), as_matrix(constraints)
    t = np.asarray(target, dtype=complex).reshape(-1)
    d = np.asarray(rhs, dtype=complex).reshape(-1)
    if c_mat.shape[1] != m_mat.shape[1]:
        raise ShapeMismatch(f"objective has {m_mat.shape[1]} columns but constraints have "
                            f"{c_mat.shape[1]}")
    if t.shape[0] != m_mat.shape[0] or d.shape[0] != c_mat.shape[0]:
        raise ShapeMismatch("right-hand side lengths do not match")
    c_plus, dec = _pinv(c_mat, tol)
    x_part = c_plus @ d
    gap = frob(c_mat @ x_part - d)
    scale = 1.0 + frob(d) + frob(c_mat) * frob(x_part)
    if gap > tol.residual_tol * scale:
        raise InconsistentConstraints(
            f"constraint residual {gap:.3e} exceeds {tol.residual_tol:.1e} * {scale:.3e}")
    null = dec.kernel
    x = x_part + null @ (_pinv(m_mat @ null, tol, frob(m_mat))[0] @ (t - m_mat @ x_part))
    # first-order optimality: the gradient is orthogonal to the feasible directions
    kkt = frob(null.conj().T @ (m_mat.conj().T @ (m_mat @ x - t)))
    if kkt > tol.residual_tol * (1.0 + frob(m_mat) * (frob(m_mat) * frob(x) + frob(t))):
        raise ArithmeticError(f"KKT residual {kkt:.3e} above tolerance")
    return x


def engine_system(alg, e, degree: int, tol=DEFAULT_TOL):
    """(M, C, d, [e, y_k]) of the engine's problem on e at unit scale: minimize |M y|
    subject to C y = d, y the coordinates on the search space (g_-degree, all of g for
    degree 0), with h = sum_k y_k [e, y_k] and M y its coordinates on g_0 (on g)."""
    unit = alg._unit_member(e, tol)[1]
    neg, res, h_basis = map(alg._index_basis, (-degree, degree, 0) if degree else (None,) * 3)
    br_e = neg.brackets(unit)
    return (h_basis.coords(br_e).T, -res.coords(unit @ br_e - br_e @ unit).T,
            2.0 * res.coords(unit), br_e)


def lstsq_f(result, neg, h_basis, tol=DEFAULT_TOL):
    """f from the joint linear system [e, f] = h, [h, f] = -2f on the span of ``neg``.

    liepinv once recovered f this way, by lstsq at rcond rank_rtol; an
    independent route to the ad(h)-weight -2 part of y that
    ``graded._minimal_triple`` takes.  ``h_basis`` spans where [e, f] lies.  The
    system is solved for e at unit scale.  Returns that f, scaled back to the
    scale of ``result.e``, and whether the system's own gap passed
    residual_tol (1 + |h| + |e|).
    """
    e, k = _unit_scale(result.e)
    h = result.h
    a_full = np.vstack([h_basis.coords(neg.brackets(e)).T, neg.ad(h) + 2.0 * np.eye(neg.count)])
    b_full = np.concatenate([h_basis.coords(h), np.zeros(neg.count)])
    fc = np.linalg.lstsq(a_full, b_full, rcond=tol.rank_rtol)[0]
    gap = frob(a_full @ fc - b_full)
    return _ldexp(neg.combine(fc), -k), gap <= tol.residual_tol * (1.0 + frob(h) + frob(e))


def engine_direction_space(alg, e, degree: int, tol=DEFAULT_TOL) -> np.ndarray:
    """A spanning (count, n, n) stack of the direction space, from the completion kernel.

    The direction space is {[e, y] : y in g_-degree, [[e, y], e] = 0} (y in all
    of g for degree 0), here [e, y] for the orthonormal kernel columns y of the
    completion constraint, as liepinv once computed it: an independent route to
    ``graded.characteristic_direction_space``, which takes ker ad(e) on the
    positive ad(h)-part of g_0.  e is taken at unit scale, as there.
    """
    unit = alg._unit_member(e, tol)[1]
    neg, res = (alg._index_basis(m) for m in ((-degree, degree) if degree else (None, None)))
    br_e = neg.brackets(unit)  # [e, y_k]
    null = rank_decomposition(res.coords(unit @ br_e - br_e @ unit).T, tol).kernel
    return np.einsum("kj,kab->jab", null, br_e)


def resplit(result, blocks, tol=DEFAULT_TOL):
    """``result`` with its h split afresh by ``graded._levels`` on ``blocks``: the oracle for
    the split the result carries, and for all that is read off it."""
    return dataclasses.replace(result, levels=graded._levels(result.h, blocks, tol))


def is_mp_element_resplit(alg, e, degree, blocks, tol=DEFAULT_TOL) -> bool:
    """``graded.is_mp_element`` with its raising-space cross-check read off a fresh split of h."""
    result = resplit(graded.minimal_characteristic(alg, e, degree, tol), blocks, tol)
    if not result.is_hermitian and graded._annihilates_positive_part(alg, e, result.levels, tol):
        raise ArithmeticError("the raising-space criterion holds, but h is not Hermitian")
    return result.is_hermitian


def centralizer_positive_directions(alg, e, h, degree=None) -> np.ndarray:
    """Independent oracle for the direction space of the characteristic set.

    Computes ker(ad e) intersected with the positive ad(h)-weight spaces of
    the degree-0 part (the whole algebra in the ungraded case), directly from
    the centralizer rather than from the solver's constraint kernel.
    """
    basis = alg.basis(0) if degree else alg.basis()
    br_e = np.einsum("ab,kbc->kac", e, basis) - np.einsum("kab,bc->kac", basis, e)
    ade = np.einsum("jab,kab->jk", alg.basis().conj(), br_e)
    cent = rank_decomposition(ade).kernel  # coords of z(e) inside `basis`
    if cent.shape[1] == 0:
        return np.zeros((0, alg.ambient_dim, alg.ambient_dim), dtype=complex)
    br_h = np.einsum("ab,kbc->kac", h, basis) - np.einsum("kab,bc->kac", basis, h)
    adh = np.einsum("jab,kab->jk", basis.conj(), br_h)
    adh_cent = cent.conj().T @ adh @ cent
    eigvals, eigvecs = np.linalg.eig(adh_cent)
    keep = eigvecs[:, eigvals.real > 0.5]
    if keep.shape[1] == 0:
        return np.zeros((0, alg.ambient_dim, alg.ambient_dim), dtype=complex)
    coords = cent @ keep
    return np.einsum("kj,kab->jab", coords, basis)


def positive_part_annihilated_eig(alg, e, h, tol=DEFAULT_TOL) -> bool:
    """The raising-space criterion from np.linalg.eig of ad(h) on g_0, as liepinv once decided it.

    Each eigenvector x of ad(h)|g_0 with eigenvalue above 1/2, unit norm in
    the orthonormal basis of g_0, must satisfy
    |[e, x]| <= residual_tol (1 + |e|) (1 + |x|), with e at unit scale.  An
    independent route to ``graded.annihilates_positive_part``, which takes
    the eigenspaces of h itself.
    """
    e = as_matrix(e)
    top = np.max(np.abs(e.view(float)), initial=0.0)
    e = e * np.ldexp(1.0, 1 - np.frexp(top)[1]) if top else e  # largest part in [1, 2)
    basis = alg.basis(0)
    br_h = np.einsum("ab,kbc->kac", h, basis) - np.einsum("kab,bc->kac", basis, h)
    eigvals, eigvecs = np.linalg.eig(np.einsum("jab,kab->jk", basis.conj(), br_h))
    positive = eigvecs[:, eigvals.real > 0.5]
    x = np.einsum("kj,kab->jab", positive, basis)
    moved = np.linalg.norm(np.einsum("ab,jbc->jac", e, x) - np.einsum("jab,bc->jac", x, e),
                           axis=(1, 2))
    bound = tol.residual_tol * (1.0 + frob(e)) * (1.0 + np.linalg.norm(positive, axis=0))
    return bool(np.all(moved <= bound))


def killing_ad(alg, x, y) -> complex:
    """Killing form Tr(ad x . ad y) from the ad matrices, as liepinv once computed it.

    An independent route to ``GradedAlgebra.killing``, which takes the closed
    form c Tr(xy).
    """
    return complex(np.einsum("ij,ji->", alg.ad(x), alg.ad(y)))


def random_exact_complex(rng, sizes, ranks) -> list[np.ndarray]:
    """Chain maps with prescribed ranks and numerically exact zero compositions."""
    k = len(sizes)
    maps: list[np.ndarray] = []
    for i in range(k - 1):
        d_from, d_to = sizes[i + 1], sizes[i]
        rank = ranks[i]
        if i == 0:
            maps.append(random_matrix_with_rank(rng, d_to, d_from, rank))
            continue
        left = maps[-1]
        kernel = rank_decomposition(left).kernel  # inside the domain of `left`
        if rank > kernel.shape[1]:
            raise ValueError("rank too large for an exact complex")
        inner = random_matrix_with_rank(rng, kernel.shape[1], d_from, rank)
        maps.append(kernel @ inner)
    return maps


def complex_rank_profiles(sizes, rng, tries: int = 20):
    """A random admissible rank tuple: m_{i-1} + m_i <= d_i, not all zero if possible."""
    k = len(sizes)
    for _ in range(tries):
        ranks = []
        for i in range(k - 1):
            cap = min(sizes[i], sizes[i + 1])
            if i > 0:
                cap = min(cap, sizes[i] - ranks[i - 1])
            ranks.append(int(rng.integers(0, cap + 1)))
        if any(ranks):
            return ranks
    return [0] * (k - 1)


def reachable_orbit_labels(symmetry: str, dim_v: int, dim_u: int):
    """All (a, b) reachable for maps U -> V with the standard form on V."""
    labels = []
    for a in range(0, min(dim_v, dim_u) + 1):
        for b in range(0, a + 1):
            if symmetry == "symmetric":
                if a + b <= dim_v:
                    labels.append((a, b))
            else:
                if (a - b) % 2 == 0 and (a - b) // 2 + b <= dim_v // 2:
                    labels.append((a, b))
    return labels


def standard_form(symmetry: str, dim_v: int):
    from liepinv.forms import SKEW, SYMMETRIC, BilinearForm

    if symmetry == "symmetric":
        return BilinearForm(SYMMETRIC, np.eye(dim_v, dtype=complex))
    half = dim_v // 2
    j = np.zeros((dim_v, dim_v))
    j[:half, half:] = np.eye(half)
    j[half:, :half] = -np.eye(half)
    return BilinearForm(SKEW, j.astype(complex))


def compositions(n: int, min_parts: int = 1):
    """All ordered compositions of n (into at least min_parts parts)."""
    out = []
    for bits in range(1 << (n - 1)):
        parts = []
        run = 1
        for i in range(n - 1):
            if bits & (1 << i):
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        if len(parts) >= min_parts:
            out.append(tuple(parts))
    return out


def is_number(x) -> bool:
    """An int or float read from JSON: %.17g writes 0.0 as 0, so the golden
    drift gates compare both kinds by value.  Booleans stay exact."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare_documents(got, want, path="$"):
    """The golden drift gate: structural equality, numbers within 1e-12 relative drift.

    Ints and floats compare by value (see :func:`is_number`); every other leaf,
    and the type of every container, must match exactly.
    """
    if is_number(got) and is_number(want):
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), f"{path}: {got} vs {want}"
        return
    assert type(got) is type(want), f"{path}: {type(got)} vs {type(want)}"
    if isinstance(got, dict):
        assert got.keys() == want.keys(), f"{path}: key mismatch"
        for key in got:
            compare_documents(got[key], want[key], f"{path}.{key}")
    elif isinstance(got, list):
        assert len(got) == len(want), f"{path}: length mismatch"
        for i, (a, b) in enumerate(zip(got, want)):
            compare_documents(a, b, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got} vs {want}"


def reference_format_float(x) -> str:
    """One float as the CLI writes it: 17 significant digits, -0.0 written as 0."""
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("cannot serialize non-finite number")
    if x == 0.0:
        x = 0.0
    return format(x, ".17g")


def reference_to_json(value, indent: int = 0) -> str:
    """Scalar-at-a-time JSON writer: the oracle for the byte layout of ``cli.to_json``."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {reference_to_json(v, indent + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, float, bool)) or v is None for v in seq):
            return "[" + ", ".join(reference_to_json(v) for v in seq) + "]"
        items = [f"{inner}{reference_to_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return reference_format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")
