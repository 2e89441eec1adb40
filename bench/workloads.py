"""Seeded input documents for the three benchmark workloads.

Every workload is a fixed list of job *slots*: the command, the shapes and
the algebras are the same for every seed, and the seed only draws the
entries, the norms and (in graded-ladder) the ranks, each within a fixed
range.  That keeps the work in one round about the same from seed to seed,
so figures from different seeds are comparable.  The generator uses numpy
only, never the program under test, and records for each job what an
answer must satisfy (see ``oracles.py``).

Jobs marked with a ``fault`` exercise a known defect of the program.  Their
inputs come from fixed seeds, not from ``--seed``, so every round fails the
same way on every seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

WORKLOADS = ("dense-docs", "graded-ladder", "jordan-pairs")


@dataclass
class Job:
    """One CLI invocation: ``liepinv <command> <doc>`` plus what it must return."""

    command: str
    doc: dict
    expect: dict
    rung: str
    algebra: str | None = None
    fault: str | None = None
    exit_code: int = 0
    text: str = field(init=False, repr=False)

    def __post_init__(self):
        self.text = json.dumps(self.doc, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# encoding (JSON conventions of the CLI: [re, im] pairs, [a, b, c, d] quaternions)
# ---------------------------------------------------------------------------


def enc_complex(m) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def enc_real(m) -> list:
    return np.asarray(m, dtype=float).tolist()


# ---------------------------------------------------------------------------
# random building blocks
# ---------------------------------------------------------------------------


def cnormal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unitary(rng, n: int, real: bool = False) -> np.ndarray:
    z = rng.standard_normal((n, n)) if real else cnormal(rng, (n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def log_uniform(rng, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def spectrum(rng, r: int) -> np.ndarray:
    """Nonzero singular values in [0.1, 1]: condition number at most 10."""
    return rng.uniform(0.1, 1.0, r)


def low_rank(rng, m: int, n: int, r: int, real: bool = False) -> np.ndarray:
    """m x n matrix of exact rank r with a bounded condition number, unit-ish norm."""
    u = unitary(rng, m, real)[:, :r]
    v = unitary(rng, n, real)[:, :r]
    return (u * spectrum(rng, r)) @ v.conj().T


def q_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product of quaternion matrices stored as (rows, cols, 4) real arrays."""
    a1, b1, c1, d1 = np.moveaxis(p, -1, 0)
    a2, b2, c2, d2 = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            a1 @ a2 - b1 @ b2 - c1 @ c2 - d1 @ d2,
            a1 @ b2 + b1 @ a2 + c1 @ d2 - d1 @ c2,
            a1 @ c2 - b1 @ d2 + c1 @ a2 + d1 @ b2,
            a1 @ d2 + b1 @ c2 - c1 @ b2 + d1 @ a2,
        ],
        axis=-1,
    )


def q_adjoint(q: np.ndarray) -> np.ndarray:
    out = np.transpose(q, (1, 0, 2)).copy()
    out[..., 1:] *= -1.0
    return out


def q_embed(q: np.ndarray) -> np.ndarray:
    """Complex 2x2-block embedding a + bi + cj + dk -> [[z, w], [-conj w, conj z]]."""
    z = q[..., 0] + 1j * q[..., 1]
    w = q[..., 2] + 1j * q[..., 3]
    rows, cols = z.shape
    out = np.empty((2 * rows, 2 * cols), dtype=complex)
    out[0::2, 0::2] = z
    out[0::2, 1::2] = w
    out[1::2, 0::2] = -w.conj()
    out[1::2, 1::2] = z.conj()
    return out


def q_unembed(m: np.ndarray) -> np.ndarray:
    z = m[0::2, 0::2]
    w = m[0::2, 1::2]
    return np.stack([z.real, z.imag, w.real, w.imag], axis=-1)


def q_low_rank(rng, m: int, n: int, r: int) -> np.ndarray:
    p = rng.standard_normal((m, r, 4)) / np.sqrt(4 * r)
    q = rng.standard_normal((r, n, 4)) / np.sqrt(4 * n)
    return q_mul(p, q)


def skew_standard(n: int) -> np.ndarray:
    half = n // 2
    j = np.zeros((n, n))
    j[:half, half:] = np.eye(half)
    j[half:, :half] = -np.eye(half)
    return j


def random_symplectic(rng, n: int) -> np.ndarray:
    """A real symplectic matrix for the standard skew form of size n."""
    half = n // 2
    a = np.eye(half) + 0.3 * rng.standard_normal((half, half))
    s = rng.standard_normal((half, half))
    s = 0.3 * (s + s.T)
    upper = np.block([[np.eye(half), s], [np.zeros((half, half)), np.eye(half)]])
    levi = np.block(
        [[a, np.zeros((half, half))], [np.zeros((half, half)), np.linalg.inv(a).T]]
    )
    return levi @ upper


# ---------------------------------------------------------------------------
# graded elements in the realizations the CLI uses
# ---------------------------------------------------------------------------


def short_element(kind: str, blocks, block: np.ndarray) -> np.ndarray:
    """Degree +1 element of a short grading whose (1, 2) block is ``block``.

    sl(p,q) and sp/so(n,n) carry the block alone; so(1,d,1) carries the row
    v in block (1, 2) and its partner column -v in block (2, 3).
    """
    n = sum(blocks)
    e = np.zeros((n, n), dtype=complex)
    if kind == "so" and len(blocks) == 3:
        d = blocks[1]
        v = block.reshape(-1)
        e[0, 1 : d + 1] = v
        e[1 : d + 1, d + 1] = -v
    else:
        p = blocks[0]
        e[:p, p:] = block
    return e


def short_inverse(kind: str, blocks, block: np.ndarray) -> np.ndarray:
    """The degree -1 Moore-Penrose partner of :func:`short_element`.

    For a matrix block it is numpy's pseudoinverse in block (2, 1); for the
    vector grading so(1,d,1) it is the closed form 2v/(v,v), or
    conj(v)/(conj(v),v) on the isotropic cone.
    """
    n = sum(blocks)
    f = np.zeros((n, n), dtype=complex)
    if kind == "so" and len(blocks) == 3:
        d = blocks[1]
        w = vector_inverse(block.reshape(-1))
        f[1 : d + 1, 0] = w
        f[d + 1, 1 : d + 1] = -w
    else:
        p = blocks[0]
        f[p:, :p] = np.linalg.pinv(block, rcond=1e-10)
    return f


def vector_inverse(v: np.ndarray) -> np.ndarray:
    herm = float(np.vdot(v, v).real)
    if herm == 0.0:
        return np.zeros_like(v)
    bil = complex(v @ v)
    if abs(bil) > 1e-9 * herm:
        return 2.0 * v / bil
    return v.conj() / herm


def short_block(rng, kind: str, blocks, rank: int, isotropic: bool = False) -> np.ndarray:
    """Random (1, 2) block of the requested rank for a short grading."""
    if kind == "so" and len(blocks) == 3:
        d = blocks[1]
        if isotropic:
            x, y = unitary(rng, d, real=True)[:, :2].T
            return (x + 1j * y).reshape(1, d)
        return cnormal(rng, (1, d)) / np.sqrt(2 * d)
    p, q = blocks
    if kind == "sl":
        return low_rank(rng, p, q, rank)
    u = unitary(rng, p)[:, :rank]
    if kind == "sp":  # symmetric block: U D U^T
        return (u * spectrum(rng, rank)) @ u.T
    # so(n, n): skew block of even rank, U (sum of 2x2 skew blocks) U^T
    core = np.zeros((rank, rank))
    for i in range(0, rank, 2):
        s = rng.uniform(0.1, 1.0)
        core[i, i + 1], core[i + 1, i] = s, -s
    return u @ core @ u.T


def algebra_name(kind: str, blocks) -> str:
    return f"{kind}({','.join(str(b) for b in blocks)})"


def graded_doc(kind: str, blocks, e: np.ndarray, degree: int | None = None) -> dict:
    doc = {"algebra": kind, "blocks": list(blocks)}
    if degree is not None:
        doc["degree"] = degree
    doc["element"] = enc_complex(e)
    return doc


def chain_pair(rng, n: int, rank_a: int, rank_b: int, complex_: bool = True):
    """Blocks (A, B) of a degree-1 element of sl(n,n,n); AB = 0 when complex_."""
    a = low_rank(rng, n, n, rank_a)
    if complex_:
        null = scipy.linalg.null_space(a)  # columns with A x = 0
        b = null[:, :rank_b] @ low_rank(rng, rank_b, n, rank_b)
    else:
        b = low_rank(rng, n, n, rank_b)
    return a, b


def three_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    e = np.zeros((3 * n, 3 * n), dtype=complex)
    e[:n, n : 2 * n] = a
    e[n : 2 * n, 2 * n :] = b
    return e


def three_block_inverse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise pseudoinverse of a complex (A, B), placed in degree -1."""
    n = a.shape[0]
    f = np.zeros((3 * n, 3 * n), dtype=complex)
    f[n : 2 * n, :n] = np.linalg.pinv(a, rcond=1e-10)
    f[2 * n :, n : 2 * n] = np.linalg.pinv(b, rcond=1e-10)
    return f


def jordan_matrix(partition) -> np.ndarray:
    n = sum(partition)
    j = np.zeros((n, n))
    pos = 0
    for size in partition:
        for i in range(size - 1):
            j[pos + i, pos + i + 1] = 1.0
        pos += size
    return j


# ---------------------------------------------------------------------------
# dense-docs
# ---------------------------------------------------------------------------


def _pinv_job(kind: str, matrix, expect_pinv, rung: str) -> Job:
    if kind == "quaternion":
        doc = {"field": kind, "matrix": np.asarray(matrix).tolist()}
    elif kind == "real":
        doc = {"field": kind, "matrix": enc_real(matrix)}
    else:
        doc = {"field": kind, "matrix": enc_complex(matrix)}
    return Job("pinv", doc, {"kind": kind, "a": matrix, "pinv": expect_pinv}, rung)


def dense_docs(rng, smoke: bool) -> list[Job]:
    s = (lambda x: max(2, x // 10)) if smoke else (lambda x: x)
    jobs = []
    for m, n, r in [(150, 120, 90), (90, 140, 60), (60, 60, 45), (120, 45, 30)]:
        m, n, r = s(m), s(n), max(1, s(r))
        a = low_rank(rng, m, n, r) * log_uniform(rng, 1e-2, 1e2)
        jobs.append(_pinv_job("complex", a, np.linalg.pinv(a, rcond=1e-10), f"pinv complex {m}x{n}"))
    for m, n, r in [(140, 100, 70), (80, 150, 50), (40, 40, 25)]:
        m, n, r = s(m), s(n), max(1, s(r))
        a = low_rank(rng, m, n, r, real=True) * log_uniform(rng, 1e-2, 1e2)
        jobs.append(_pinv_job("real", a, np.linalg.pinv(a, rcond=1e-10), f"pinv real {m}x{n}"))
    for m, n, r in [(60, 50, 35), (40, 60, 20), (30, 30, 18)]:
        m, n, r = s(m), s(n), max(1, s(r))
        q = q_low_rank(rng, m, n, r) * log_uniform(rng, 1e-2, 1e2)
        x = q_unembed(np.linalg.pinv(q_embed(q), rcond=1e-10))
        jobs.append(_pinv_job("quaternion", q, x, f"pinv quaternion {m}x{n}"))

    # hermitian-pinv: Hermitian / skew-Hermitian complex, real symmetric, quaternion Hermitian
    for kind, n, r, skew in [("complex", 120, 80, False), ("complex", 90, 60, True),
                             ("real", 100, 70, False), ("quaternion", 40, 25, False)]:
        n, r = s(n), max(1, s(r))
        d = spectrum(rng, r) * rng.choice([-1.0, 1.0], r) * log_uniform(rng, 1e-2, 1e2)
        if kind == "quaternion":
            p = rng.standard_normal((n, r, 4)) / np.sqrt(4 * r)
            pd = p * d[None, :, None]
            a = q_mul(pd, q_adjoint(p))
            x = q_unembed(np.linalg.pinv(q_embed(a), rcond=1e-10))
            doc = {"field": kind, "matrix": a.tolist()}
        else:
            u = unitary(rng, n, real=(kind == "real"))[:, :r]
            a = (u * d) @ u.conj().T
            if skew:
                a = 1j * a
            x = np.linalg.pinv(a, rcond=1e-10)
            doc = {"field": kind, "matrix": enc_real(a) if kind == "real" else enc_complex(a)}
        label = "skew-hermitian" if skew else "hermitian"
        jobs.append(Job("hermitian-pinv", doc, {"kind": kind, "a": a, "pinv": x, "skew": skew},
                        f"hermitian-pinv {kind} {label} {n}"))

    # form-pinv: complex symmetric and skew Gram matrices of deficient rank
    for symmetry, n, r in [("symmetric", 120, 80), ("skew", 100, 60)]:
        n, r = s(n), max(2, s(r) // 2 * 2)
        b = cnormal(rng, (n, r)) / np.sqrt(2 * n)
        core = np.eye(r) if symmetry == "symmetric" else skew_standard(r)
        w = b @ core @ b.T * log_uniform(rng, 1e-2, 1e2)
        doc = {"symmetry": symmetry, "gram": enc_complex(w)}
        jobs.append(Job("form-pinv", doc, {"a": w, "pinv": np.linalg.pinv(w, rcond=1e-10),
                                           "symmetry": symmetry}, f"form-pinv {symmetry} {n}"))

    # complex-pinv: chains C^{d1} <- C^{d2} <- ... with vanishing compositions
    for sizes, ranks in [((40, 60, 50, 40), (20, 25, 15)), ((80, 100, 60), (40, 30))]:
        sizes = tuple(s(d) for d in sizes)
        ranks = tuple(max(1, s(r)) for r in ranks)
        if smoke:
            ranks = tuple(1 for _ in ranks)
        maps = []
        nxt = None  # B of the next map: this map must kill its image
        for i in reversed(range(len(ranks))):
            rows, cols, r = sizes[i], sizes[i + 1], ranks[i]
            right = unitary(rng, cols)[:, :r]
            if nxt is not None:
                null = scipy.linalg.null_space(nxt.T)  # y with y^T B = 0
                right = null[:, :r].conj()
            left = unitary(rng, rows)[:, :r] * spectrum(rng, r)
            m = left @ right.conj().T
            maps.insert(0, m)
            nxt = m
        doc = {"sizes": list(sizes), "maps": [enc_complex(m) for m in maps]}
        expect = {"maps": maps, "ranks": list(ranks),
                  "pinv": [np.linalg.pinv(m, rcond=1e-10) for m in maps]}
        jobs.append(Job("complex-pinv", doc, expect, f"complex-pinv {'x'.join(map(str, sizes))}"))

    # homform on the constructive orbits b = 0 and b = a
    for symmetry, dim_v, dim_u, a, b in [("symmetric", 60, 50, 30, 0), ("symmetric", 80, 40, 30, 30),
                                         ("skew", 60, 40, 20, 0), ("skew", 80, 50, 30, 30)]:
        if smoke:
            dim_v, dim_u, a, b = 8, 6, 2, (0 if b == 0 else 2)
        jobs.append(homform_job(rng, symmetry, dim_v, dim_u, a, b))

    # short vector documents (vector-pinv builds so(1,d,1); keep d small)
    for d, iso in [(6, False), (8, True), (10, False)]:
        d = min(d, 4) if smoke else d
        v = short_block(rng, "so", (1, d, 1), 1, isotropic=iso).reshape(-1)
        v = v * log_uniform(rng, 1e-2, 1e2)
        jobs.append(Job("vector-pinv", {"vector": enc_complex(v)},
                        {"v": v, "pinv": vector_inverse(v)},
                        f"vector-pinv {d}{' isotropic' if iso else ''}"))
    for (p, q), null in [((6, 4), False), ((12, 8), True), ((30, 20), False)]:
        if smoke:
            p, q = 2, 2
        v = rng.standard_normal(p + q)
        if null:  # {v, v} = 0: equal Euclidean mass on both signs
            v[p:] *= np.linalg.norm(v[:p]) / np.linalg.norm(v[p:])
        v = v * log_uniform(rng, 1e-2, 1e2)
        jobs.append(Job("pseudo-pinv", {"signature": [p, q], "vector": enc_real(v)},
                        {"v": v, "signature": (p, q)},
                        f"pseudo-pinv {p}+{q}{' null' if null else ''}"))
    return jobs


def homform_job(rng, symmetry: str, dim_v: int, dim_u: int, a: int, b: int) -> Job:
    """A map F in Hom(U, V) whose orbit label is (a, b) by construction."""
    if symmetry == "symmetric":
        gram = np.eye(dim_v)
        q = unitary(rng, dim_v, real=True)
        radical = [q[:, 2 * j] + 1j * q[:, 2 * j + 1] for j in range(b)]
        nondeg = [q[:, 2 * b + i].astype(complex) for i in range(a - b)]
        move = np.eye(dim_v)
    else:
        gram = skew_standard(dim_v)
        half = dim_v // 2
        eye = np.eye(dim_v)
        radical = [eye[:, j] + 0j for j in range(b)]
        nondeg = []
        for i in range((a - b) // 2):
            nondeg += [eye[:, b + i] + 0j, eye[:, half + b + i] + 0j]
        move = random_symplectic(rng, dim_v)
    image = move @ np.array(radical + nondeg).T            # (dim_v, a)
    mix = cnormal(rng, (a, dim_u)) / np.sqrt(2 * dim_u)   # rank a
    f = image @ mix * log_uniform(rng, 1e-1, 1e1)
    doc = {"form": {"symmetry": symmetry, "gram": enc_real(gram)}, "map": enc_complex(f)}
    constructive = b == 0 or b == a
    return Job(
        "homform",
        doc,
        {"gram": gram, "map": f, "a": a, "b": b},
        f"homform {symmetry} V{dim_v} U{dim_u} ({a},{b})",
        algebra=None if constructive else algebra_name("so" if symmetry == "symmetric" else "sp",
                                                       (dim_u, dim_v, dim_u)),
        exit_code=0 if constructive else 3,
    )


# ---------------------------------------------------------------------------
# graded-ladder
# ---------------------------------------------------------------------------

# Degree-1 elements for sl2-complete / mp-element, one algebra per slot; the
# command alternates so that no two slots share an algebra.
LADDER_SHORT = [
    ("sl", (2, 3)), ("sl", (3, 4)), ("sl", (4, 5)), ("sl", (5, 6)), ("sl", (6, 7)),
    ("sl", (7, 8)), ("sl", (8, 9)), ("sl", (9, 9)), ("sl", (10, 10)), ("sl", (10, 9)),
    ("sp", (2, 2)), ("sp", (3, 3)), ("sp", (4, 4)), ("sp", (5, 5)), ("sp", (6, 6)),
    ("so", (1, 4, 1)), ("so", (1, 8, 1)), ("so", (1, 12, 1)), ("so", (1, 16, 1)), ("so", (1, 20, 1)),
]
LADDER_THREE = [2, 3, 4]                                     # sl(n,n,n) complexes
# Ungraded sl(n) nilpotents.  The last six put more jobs near the median job
# time: without them it fell in a 3 ms gap between rungs (8.9 and 12.2 ms)
# and job_p50_ms spread 11.6 % over ten seeds.
LADDER_JORDAN = [(3,), (2, 2), (4, 1), (3, 3), (5, 1, 1), (4, 3), (7, 1), (5, 4),
                 (6, 2, 1), (9,), (6, 4), (10,),
                 (4, 2, 1), (2, 1), (5, 2), (3, 1), (2, 2, 1), (4,)]
LADDER_HEIGHT_SHORT = [(2, 3), (3, 3), (4, 5)]               # sl(p,q): height 2
LADDER_CERTIFICATES = [("symmetric", 4, 3, 2, 1), ("symmetric", 6, 4, 3, 1),
                       ("symmetric", 8, 5, 4, 2), ("skew", 6, 3, 3, 1), ("skew", 8, 5, 4, 2)]

SMOKE_SHORT = [("sl", (2, 3)), ("sp", (2, 2)), ("so", (1, 4, 1))]


def _sl2_job(command: str, kind: str, blocks, e: np.ndarray, f: np.ndarray,
             fault: str | None = None) -> Job:
    name = algebra_name(kind, blocks)
    rung = f"{command} {name}" + (" norm 1e-8" if fault else "")
    return Job(command, graded_doc(kind, blocks, e, 1), {"e": e, "f": f, "mp": True},
               rung, algebra=name, fault=fault)


def graded_ladder(rng, smoke: bool) -> list[Job]:
    jobs = []
    short = SMOKE_SHORT if smoke else LADDER_SHORT
    for i, (kind, blocks) in enumerate(short):
        command = "sl2-complete" if i % 2 == 0 else "mp-element"
        rank = 1 if kind == "so" else int(rng.integers(1, min(blocks) + 1))
        block = short_block(rng, kind, blocks, rank) * log_uniform(rng, 1.0, 1e2)
        jobs.append(_sl2_job(command, kind, blocks, short_element(kind, blocks, block),
                             short_inverse(kind, blocks, block)))
    for n in LADDER_THREE[:1] if smoke else LADDER_THREE:
        a, b = chain_pair(rng, n, int(rng.integers(1, n)), 1)
        scale = log_uniform(rng, 1.0, 1e2)
        for command in ("sl2-complete", "mp-element"):
            jobs.append(_sl2_job(command, "sl", (n, n, n), three_block(a, b) * scale,
                                 three_block_inverse(a * scale, b * scale)))

    # orbit heights: 2(p1 - 1) for the Jordan type the element was built from
    partitions = [(3,), (2, 2)] if smoke else LADDER_JORDAN
    for i, part in enumerate(partitions):
        n = sum(part)
        q = unitary(rng, n)
        e = q @ jordan_matrix(part) @ q.conj().T * log_uniform(rng, 1.0, 1e2)
        command = "orbit-height" if i % 2 == 0 else "mp-orbit"
        name = algebra_name("sl", (n,))
        jobs.append(Job(command, graded_doc("sl", (n,), e), {"height": 2 * (part[0] - 1)},
                        f"{command} sl({n}) type {part}", algebra=name))
    for i, blocks in enumerate([(2, 3)] if smoke else LADDER_HEIGHT_SHORT):
        block = low_rank(rng, *blocks, 1 + i % min(blocks)) * log_uniform(rng, 1.0, 1e2)
        name = algebra_name("sl", blocks)
        command = "orbit-height" if i % 2 == 0 else "mp-orbit"
        jobs.append(Job(command, graded_doc("sl", blocks, short_element("sl", blocks, block)),
                        {"height": 2}, f"{command} {name}", algebra=name))
    for i, n in enumerate([2] if smoke else LADDER_THREE):
        # complexes (AB = 0) have matrix Jordan blocks of size <= 2, others size 3
        is_complex = i % 2 == 0
        a, b = chain_pair(rng, n, 1, 1, complex_=is_complex)
        e = three_block(a, b) * log_uniform(rng, 1.0, 1e2)
        name = algebra_name("sl", (n, n, n))
        for command in ("orbit-height", "mp-orbit"):
            jobs.append(Job(command, graded_doc("sl", (n, n, n), e),
                            {"height": 2 if is_complex else 4},
                            f"{command} {name} {'complex' if is_complex else 'chain'}",
                            algebra=name))

    # homform on orbits with 0 < b < a: exit 3 with a positive certificate
    certs = LADDER_CERTIFICATES[:1] if smoke else LADDER_CERTIFICATES
    for symmetry, dim_v, dim_u, a, b in certs:
        jobs.append(homform_job(rng, symmetry, dim_v, dim_u, a, b))

    jobs.extend(fault_jobs(smoke))
    return jobs


def fault_jobs(smoke: bool) -> list[Job]:
    """Jobs that hit the known faults F1 and F2, from fixed seeds.

    F2: sl2-complete / mp-element reject a degree-1 element of Frobenius norm
    1e-8 ("f-recovery residual above tolerance"), although the same element at
    norm 1 is accepted.  F1: orbit-height underestimates the height of
    e = g J g^-1 for the regular nilpotent J and a non-unitary g.
    """
    jobs = []
    frng = np.random.default_rng(20010107)
    f2 = [("sl", (4, 4)), ("sp", (3, 3)), ("so", (1, 6, 1)), ("three", 3)]
    for kind, blocks in f2[:1] if smoke else f2:
        if kind == "three":
            a, b = chain_pair(frng, blocks, 2, 1)
            e, f = three_block(a, b), three_block_inverse(a, b)
            kind, blocks = "sl", (3, 3, 3)
        else:
            rank = 1 if kind == "so" else 2
            block = short_block(frng, kind, blocks, rank)
            e, f = short_element(kind, blocks, block), short_inverse(kind, blocks, block)
        scale = 1e-8 / np.linalg.norm(e)
        for command in ("sl2-complete", "mp-element"):
            jobs.append(_sl2_job(command, kind, blocks, e * scale, f / scale, fault="F2"))
    for n in [8] if smoke else [8, 10]:
        g = cnormal(np.random.default_rng(F1_SEEDS[n]), (n, n))
        e = g @ jordan_matrix((n,)) @ np.linalg.inv(g)
        name = algebra_name("sl", (n,))
        jobs.append(Job("orbit-height", graded_doc("sl", (n,), e), {"height": 2 * (n - 1)},
                        f"orbit-height {name} non-unitary", algebra=name, fault="F1"))
    return jobs


# Seeds whose conjugator g has condition number 15.3 (sl(8)) and 12.6 (sl(10)).
F1_SEEDS = {8: 12, 10: 23}


# ---------------------------------------------------------------------------
# jordan-pairs
# ---------------------------------------------------------------------------

# (kind, blocks, elements): a handful of algebras, each with many elements.
JORDAN_ALGEBRAS = [
    ("sl", (1, 3), 4), ("sl", (2, 3), 6), ("sl", (3, 4), 6), ("sl", (4, 4), 6),
    ("sp", (2, 2), 4), ("sp", (3, 3), 6), ("sp", (4, 4), 6), ("sp", (5, 5), 4),
    ("so", (3, 3), 4), ("so", (4, 4), 6), ("so", (5, 5), 6),
    ("so", (1, 3, 1), 4), ("so", (1, 8, 1), 6), ("so", (1, 12, 1), 4),
]
SMOKE_JORDAN = [("sl", (1, 2), 2), ("sp", (2, 2), 2), ("so", (3, 3), 1), ("so", (1, 3, 1), 2)]


def jordan_pairs(rng, smoke: bool) -> list[Job]:
    jobs = []
    for kind, blocks, count in SMOKE_JORDAN if smoke else JORDAN_ALGEBRAS:
        name = algebra_name(kind, blocks)
        dim_plus = {"sl": blocks[0] * blocks[-1], "sp": blocks[0] * (blocks[0] + 1) // 2,
                    "so": blocks[0] * (blocks[0] - 1) // 2}[kind]
        if kind == "so" and len(blocks) == 3:
            dim_plus = blocks[1]
        for i in range(count):
            if kind == "so" and len(blocks) == 3:
                rank, iso = 1, i % 3 == 2
            else:
                top = min(blocks) - (min(blocks) % 2 if kind == "so" else 0)
                step = 2 if kind == "so" else 1
                rank = step * (1 + i % (top // step))
                iso = False
            block = short_block(rng, kind, blocks, rank, isotropic=iso) * log_uniform(rng, 1.0, 1e2)
            e = short_element(kind, blocks, block)
            jobs.append(Job("jordan-mp", graded_doc(kind, blocks, e),
                            {"e": e, "f": short_inverse(kind, blocks, block)},
                            f"jordan-mp {name} dimV+={dim_plus}", algebra=name))
    return jobs


GENERATORS = {"dense-docs": dense_docs, "graded-ladder": graded_ladder, "jordan-pairs": jordan_pairs}


def make_jobs(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The job list of one round; the same (workload, seed, smoke) gives the same bytes."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return GENERATORS[workload](rng, smoke)


def digest(jobs: list[Job]) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(job.command.encode())
        h.update(job.text.encode())
    return h.hexdigest()[:16]


def repeat_share(jobs: list[Job]) -> float:
    """Share of jobs whose algebra was already used by an earlier job of the round."""
    seen, repeats = set(), 0
    for job in jobs:
        if job.algebra is not None:
            repeats += job.algebra in seen
            seen.add(job.algebra)
    return repeats / len(jobs)
