"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance below is pinned; run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from liepinv import classical, forms, homform, jordan
from liepinv.cli import COMMANDS, JobSpec, run_job, to_json
from liepinv.complexes import (
    ChainTuple,
    assemble_lowering,
    assemble_raising,
    certify_complex,
    complex_pinv,
)
from liepinv.errors import NotMoorePenroseOrbit, ZeroElement
from liepinv.graded import (
    GradedAlgebra,
    Sl2Triple,
    annihilates_positive_part,
    bracket,
    characteristic_direction_space,
    is_mp_orbit,
    minimal_characteristic,
    multidegree_characteristic,
    orbit_height,
)
from liepinv.numcore import QuaternionMatrix, frob

from helpers import (
    compact_group_element,
    compare_documents,
    complex_rank_profiles,
    compositions,
    jordan_mp_fixed_point,
    jordan_nilpotent,
    partitions,
    pinv_factorization,
    quaternion_adjoint,
    quaternion_matmul,
    random_complex,
    random_exact_complex,
    random_matrix_with_rank,
    random_quaternion_matrix,
    random_unitary,
    reachable_orbit_labels,
    standard_form,
)

GOLDEN = Path(__file__).parent / "golden"

SHORT_GRADINGS = (
    [("sl", (n, m)) for n in range(1, 5) for m in range(1, 5)]
    + [("sp", (n, n)) for n in (1, 2, 3)]
    + [("so", (p, p)) for p in (2, 3, 4)]
    + [("so", (1, d, 1)) for d in range(1, 7)]
)


def announce(number: int, text: str):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def random_penrose_instances(rng, count: int):
    for _ in range(count):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        r = int(rng.integers(0, min(m, n) + 1))
        yield random_matrix_with_rank(rng, m, n, r)


def test_criterion_01_penrose_suite():
    rng = np.random.default_rng(1001)
    for a in random_penrose_instances(rng, 200):
        x = classical.pinv(a)
        report = classical.verify_penrose(a, x)
        assert report.max_residual() <= 1e-9
        other = pinv_factorization(a)
        assert frob(x - other) <= 1e-9 * (1.0 + frob(x))
    announce(1, "200 random matrices: four Penrose conditions <= 1e-9, "
                "intrinsic and factorization routes agree <= 1e-9")


def test_criterion_02_involution_and_equivariance():
    rng = np.random.default_rng(1002)
    for a in random_penrose_instances(rng, 60):
        assert frob(classical.pinv(classical.pinv(a)) - a) <= 1e-8 * (1.0 + frob(a))
        m, n = a.shape
        u = random_unitary(rng, m)
        v = random_unitary(rng, n)
        lhs = classical.pinv(u @ a @ v.conj().T)
        rhs = v @ classical.pinv(a) @ u.conj().T
        assert frob(lhs - rhs) <= 1e-8 * (1.0 + frob(rhs))
    announce(2, "pseudoinversion is involutive <= 1e-8 and unitarily equivariant <= 1e-8")


def _closed_form_leg(alg: GradedAlgebra, e):
    """Closed-form expected inverse block for a degree +1 element."""
    if alg.kind == "sl":
        return classical.pinv(alg.block_component(e, 1, 2))
    if alg.kind == "sp":
        w = forms.BilinearForm(forms.SYMMETRIC, alg.block_component(e, 1, 2))
        return forms.form_pinv(w).gram
    if len(alg.blocks) == 2:
        w = forms.BilinearForm(forms.SKEW, alg.block_component(e, 1, 2))
        return forms.form_pinv(w).gram
    v = alg.block_component(e, 1, 2).reshape(-1)
    return forms.vector_pinv(v).reshape(-1, 1)


def test_criterion_03_short_gradings_match_closed_forms():
    rng = np.random.default_rng(1003)
    for kind, blocks in SHORT_GRADINGS:
        alg = GradedAlgebra(kind, blocks)
        for _ in range(4):
            e = alg.random_element(1, rng)
            res = minimal_characteristic(alg, e, 1)
            scale = 1.0 + frob(res.h)
            assert res.hermitian_defect <= 1e-8 * scale
            assert res.triple.max_residual() <= 1e-8
            expected = _closed_form_leg(alg, e)
            got = alg.block_component(res.f, 2, 1)
            assert frob(got - expected) <= 1e-8 * (1.0 + frob(expected))
    announce(3, "short gradings of sl(n+m), sp(2n), so(n): Hermitian minimal "
                "characteristic and closed-form inverse agreement <= 1e-8")


def test_criterion_04_minimality_of_the_characteristic():
    rng = np.random.default_rng(1004)
    cases = [
        (GradedAlgebra("sl", (1, 1, 2)), 1, None),
        (GradedAlgebra("sl", (2, 1, 1)), 2, None),
        (GradedAlgebra("sl", (4,)), 0, jordan_nilpotent((2, 1, 1))),
        (GradedAlgebra("sl", (5,)), 0, jordan_nilpotent((2, 2, 1))),
    ]
    checked = 0
    for alg, degree, fixed in cases:
        e = fixed if fixed is not None else alg.random_element(degree, rng)
        res = minimal_characteristic(alg, e, degree)
        directions = characteristic_direction_space(alg, res)
        assert directions.shape[0] > 0
        base = frob(res.h) ** 2
        for _ in range(50):
            coef = random_complex(rng, directions.shape[0])
            delta = np.einsum("k,kab->ab", coef, directions)
            margin = frob(res.h + delta) ** 2 - base
            assert margin > 1e-12 * max(base, 1.0)
            checked += 1
    assert checked == 200
    announce(4, "norm-minimality of the characteristic: 50 feasible perturbations "
                "per instance strictly increase the energy (margin > 1e-12 relative)")


def test_criterion_05_orbit_heights_and_mp_orbits():
    rng = np.random.default_rng(1005)
    for n in range(2, 6):
        alg = GradedAlgebra("sl", (n,))
        for part in partitions(n):
            e = jordan_nilpotent(part)
            assert orbit_height(alg, e) == 2 * (part[0] - 1)
            if part[0] == 1:
                with pytest.raises(ZeroElement):
                    is_mp_orbit(alg, e)
                continue
            u = compact_group_element(alg, rng)
            moved = u @ e @ u.conj().T
            assert is_mp_orbit(alg, moved) == (part[0] <= 2)
            if part[0] <= 2:
                res = minimal_characteristic(alg, moved, 0)
                assert res.is_hermitian
            else:
                # tilt along a positive-weight direction outside the centralizer
                weights = np.concatenate(
                    [np.arange(p - 1, -p, -2.0) for p in part]
                )
                tilt = None
                for a in range(n):
                    for b in range(n):
                        if a == b or weights[a] - weights[b] <= 0:
                            continue
                        xi = np.zeros((n, n), dtype=complex)
                        xi[a, b] = 1.0
                        if frob(bracket(e, xi)) > 1e-9:
                            tilt = xi
                            break
                    if tilt is not None:
                        break
                assert tilt is not None
                g = scipy.linalg.expm(tilt)
                bad = g @ e @ np.linalg.inv(g)
                res = minimal_characteristic(alg, bad, 0)
                assert not res.is_hermitian
                assert res.hermitian_defect > 1e-3
    announce(5, "partitions of n <= 5: height equals 2(max part - 1), orbits are "
                "Moore-Penrose iff the largest Jordan block is 2, with defect "
                "certificates > 1e-3 for the rest")


def test_criterion_06_raising_space_criterion_consistency():
    rng = np.random.default_rng(1006)
    arenas = []
    for n in range(2, 6):
        for blocks in compositions(n, min_parts=2):
            alg = GradedAlgebra("sl", blocks)
            arenas.extend((alg, m) for m in alg.degrees if m > 0)
    agreements = 0
    for sample in range(100):
        alg, m = arenas[sample % len(arenas)]
        e = alg.random_element(m, rng)
        res = minimal_characteristic(alg, e, m)
        crit = annihilates_positive_part(alg, e, res.h)
        agreements += crit == res.is_hermitian
    assert agreements == 100
    announce(6, "100 random homogeneous elements over parabolic gradings of "
                "sl(n <= 5): Hermitian test and raising-space criterion agree 100%")


def test_criterion_07_sl_parabolics_are_moore_penrose_per_block():
    rng = np.random.default_rng(1007)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 7))
        options = compositions(n, min_parts=2)
        blocks = options[int(rng.integers(0, len(options)))]
        alg = GradedAlgebra("sl", blocks)
        k = len(blocks)
        i = int(rng.integers(1, k + 1))
        j = int(rng.integers(1, k + 1))
        if i == j:
            continue
        block = random_complex(rng, blocks[i - 1], blocks[j - 1])
        e = alg.element_from_block(i, j, block)
        assert multidegree_characteristic(alg, i, j, e).is_hermitian
        checked += 1
    announce(7, "100 random single-block elements across compositions of n <= 6: "
                "every parabolic multidegree of sl(n) is Moore-Penrose")


def test_criterion_08_form_space_orbit_classification():
    cases = [("skew", 2), ("skew", 4), ("symmetric", 3), ("symmetric", 4), ("symmetric", 5)]
    for symmetry, dim_v in cases:
        form = standard_form(symmetry, dim_v)
        for dim_u in (1, 2, 3):
            for a, b in reachable_orbit_labels(symmetry, dim_v, dim_u):
                f_mat = homform.generic_orbit_map(form, a, b, dim_u)
                label = homform.classify_orbit(form, f_mat)
                assert (label.a, label.b) == (a, b)
                if b == 0 or b == a:
                    g_mat, _, _ = homform.mp_inverse_homform(form, f_mat)
                    report = homform.verify_homform(form, f_mat, g_mat)
                    assert report.max_residual() <= 1e-9
                else:
                    with pytest.raises(NotMoorePenroseOrbit) as info:
                        homform.mp_inverse_homform(form, f_mat)
                    assert info.value.certificate > 1e-3
    announce(8, "exhaustive orbit labels for symplectic dim 2,4 and orthogonal "
                "dim 3,4,5: inverse exists iff b=0 or b=a (residuals <= 1e-9, "
                "certificates > 1e-3 otherwise)")


def test_criterion_09_killing_pairing_proportionality():
    for kind, blocks in SHORT_GRADINGS:
        alg = GradedAlgebra(kind, blocks)
        pair = jordan.JordanPair(alg)
        k_pair = jordan.pairing_matrix(pair)
        ads_p = np.array([alg.ad(b) for b in pair.basis_plus])
        ads_m = np.array([alg.ad(b) for b in pair.basis_minus])
        k_rest = np.einsum("iab,jba->ij", ads_p, ads_m)
        scale = np.vdot(k_pair, k_rest).real / np.vdot(k_pair, k_pair).real
        assert scale > 0.0
        assert frob(k_rest - scale * k_pair) <= 1e-9 * (1.0 + frob(k_rest))
    announce(9, "Killing pairing of every pair is a single positive multiple of "
                "the restricted Killing form (relative deviation <= 1e-9)")


def test_criterion_10_pair_equations_agree_with_sl2_route():
    rng = np.random.default_rng(1010)
    for kind, blocks in SHORT_GRADINGS:
        alg = GradedAlgebra(kind, blocks)
        pair = jordan.JordanPair(alg)
        inv = jordan.standard_cartan_involution(pair)
        for _ in range(100):
            a = alg.random_element(1, rng)
            x_sl2, _ = jordan.mp_inverse_jordan(pair, inv, a)
            x_fp = jordan_mp_fixed_point(
                pair, inv, a, scale=float(rng.uniform(0.3, 1.0))
            )
            assert frob(x_fp - x_sl2) <= 1e-8 * (1.0 + frob(x_sl2))
    announce(10, "pair-equation fixed point equals the closed-form inverse <= 1e-8 "
                 "on 100 random elements per pair")


def test_criterion_11_complexes():
    rng = np.random.default_rng(1011)
    produced = 0
    while produced < 100:
        k = int(rng.integers(2, 5))
        sizes = [int(rng.integers(1, 5)) for _ in range(k)]
        ranks = complex_rank_profiles(sizes, rng)
        maps = random_exact_complex(rng, sizes, ranks)
        t = ChainTuple(tuple(sizes), tuple(maps))
        if not certify_complex(t).is_complex:
            continue
        out, _ = complex_pinv(t)
        assert certify_complex(out).is_complex
        e = assemble_raising(t)
        f = assemble_lowering(t, list(out.maps)[::-1])
        h = bracket(e, f)
        triple = Sl2Triple.from_elements(e, h, f)
        assert triple.max_residual() <= 1e-8
        assert frob(h - h.conj().T) <= 1e-8 * (1.0 + frob(h))
        produced += 1
    # negative control: the length-three chain of identities is not a complex
    maps = [np.array([[1.0]], dtype=complex)] * 2
    e = assemble_raising(ChainTuple((1, 1, 1), tuple(maps)))
    f = assemble_lowering(
        ChainTuple((1, 1, 1), tuple(maps)), [classical.pinv(m) for m in maps]
    )
    h = bracket(e, f)
    assert frob(bracket(h, e) - 2.0 * e) >= 0.9 * frob(e)
    announce(11, "100 random exact complexes invert componentwise into complexes "
                 "passing the graded verification <= 1e-8; the non-complex "
                 "control violates the weight relation at full scale")


def test_criterion_12_real_quaternionic_and_indefinite_formulas():
    rng = np.random.default_rng(1012)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        r = int(rng.integers(0, min(m, n) + 1))
        a = random_matrix_with_rank(rng, m, n, r).real
        x = classical.pinv_real(a)
        assert classical.verify_penrose(a.astype(complex), x.astype(complex)).max_residual() <= 1e-9

        q = random_quaternion_matrix(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        xq = classical.pinv_quaternion(q)
        assert classical.verify_penrose(q.embed(), xq.embed()).max_residual() <= 1e-9

        h_dim = int(rng.integers(1, 5))
        base = random_complex(rng, h_dim, h_dim)
        real_base = rng.standard_normal((h_dim, h_dim))
        quat_base = random_quaternion_matrix(rng, h_dim, h_dim)
        structured = [
            base + base.conj().T,
            base - base.conj().T,
            (real_base + real_base.T).astype(complex),
            (real_base - real_base.T).astype(complex),
            quaternion_matmul(quat_base, quaternion_adjoint(quat_base)),
            QuaternionMatrix(quat_base.data - quaternion_adjoint(quat_base).data),
        ]
        for mat in structured:
            inv = forms.hermitian_pinv(mat)
            report = forms.verify_hermitian_pinv(mat, inv)
            assert report.max_residual() <= 1e-9

        sig_n = int(rng.integers(1, 4))
        sig_m = int(rng.integers(1, 4))
        space = forms.PseudoEuclideanSpace(sig_n, sig_m)
        v = rng.standard_normal(sig_n + sig_m)
        report = forms.verify_pseudo_euclidean_pinv(
            space, v, forms.pseudo_euclidean_pinv(space, v)
        )
        assert (report.residuals["triple_residual"] <= 1e-9
                and report.residuals["characteristic_defect"] <= 1e-9)

    # exact case split of the vector formulas
    aniso = np.array([3.0, 4.0])
    assert frob(forms.vector_pinv(aniso) - np.array([6.0, 8.0]) / 25.0) < 1e-14
    iso = np.array([1.0, 1.0j])
    assert frob(forms.vector_pinv(iso) - np.array([0.5, -0.5j])) < 1e-14
    assert frob(forms.vector_pinv(np.zeros(3))) == 0.0
    space = forms.PseudoEuclideanSpace(1, 1)
    assert frob(forms.pseudo_euclidean_pinv(space, [1.0, 0.0]) - [-1.0, 0.0]) < 1e-14
    assert frob(forms.pseudo_euclidean_pinv(space, [1.0, 1.0]) - [-0.25, 0.25]) < 1e-14
    assert frob(forms.pseudo_euclidean_pinv(space, [0.0, 0.0])) == 0.0
    announce(12, "real, quaternionic, (skew-)Hermitian and pseudo-Euclidean "
                 "inverses verified on 50 instances each <= 1e-9; vector "
                 "formulas reproduce the three-case split exactly")


def test_criterion_13_cli_golden_files():
    for command in sorted(COMMANDS):
        in_path = GOLDEN / f"{command}.in.json"
        job = JobSpec(command=command, input_path=str(in_path) if in_path.exists() else None)
        code, document = run_job(job)
        assert code == 0
        golden = json.loads((GOLDEN / f"{command}.out.json").read_text())
        compare_documents(json.loads(to_json(document)), golden)
        again = run_job(job)[1]
        assert to_json(again) == to_json(document)
    announce(13, "one golden file per CLI command: outputs round-trip stable "
                 "with <= 1e-12 drift")
