import numpy as np
import pytest
import scipy.linalg

from liepinv.errors import DegenerateForm, NotMoorePenroseOrbit, ShapeMismatch
from liepinv.forms import SKEW, SYMMETRIC, BilinearForm
from liepinv.graded import Sl2Triple, bracket, is_mp_element
from liepinv.homform import (
    CLASSICAL_MAXIMAL_PARABOLIC_TABLE,
    classify_orbit,
    embedding_algebra,
    generic_orbit_map,
    hom_coelement,
    hom_element,
    mp_inverse_homform,
    sharp,
    verify_homform,
)
from liepinv.numcore import frob

from helpers import (
    homform_basis_solve,
    random_complex,
    random_unitary,
    reachable_orbit_labels,
    standard_form,
)

SYM3 = standard_form(SYMMETRIC, 3)
SKEW2 = standard_form(SKEW, 2)


class TestSharp:
    def test_identity(self):
        assert frob(sharp(SYM3, np.eye(3)) - np.eye(3)) == 0.0

    def test_symplectic_example(self):
        out = sharp(SKEW2, np.diag([0.5, 0.0]).astype(complex))
        assert frob(out - np.diag([0.0, 0.5])) < 1e-14

    def test_orthogonal_is_transpose(self):
        rng = np.random.default_rng(80)
        a = random_complex(rng, 3, 3)
        assert frob(sharp(SYM3, a) - a.T) < 1e-13

    def test_defining_property(self):
        rng = np.random.default_rng(81)
        form = standard_form(SKEW, 4)
        a = random_complex(rng, 4, 4)
        x = random_complex(rng, 4)
        y = random_complex(rng, 4)
        lhs = (a @ x) @ form.gram @ y
        rhs = x @ form.gram @ (sharp(form, a) @ y)
        assert abs(lhs - rhs) < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateForm):
            sharp(BilinearForm(SYMMETRIC, np.diag([1.0, 0.0])), np.eye(2))

    @pytest.mark.parametrize("t", [1e-200, 1e200])
    def test_scaled_identity_form(self, t):
        a = random_complex(np.random.default_rng(82), 4, 4)
        out = sharp(BilinearForm(SYMMETRIC, t * np.eye(4)), t * a)
        assert frob(out - t * a.T) <= 1e-15 * frob(t * a)

    @pytest.mark.parametrize("symmetry", [SYMMETRIC, SKEW])
    @pytest.mark.parametrize("s", [1e-300, 1e-150, 1.0, 1e150, 1e300])
    @pytest.mark.parametrize("t", [1e-300, 1e-150, 1.0, 1e150, 1e300])
    def test_scale_free(self, symmetry, s, t):
        # sharp(sW, tA) = t sharp(W, A): W and A are each taken at unit scale
        rng = np.random.default_rng(83)
        w = random_complex(rng, 4, 4)
        w = w + w.T if symmetry == SYMMETRIC else w - w.T
        a = random_complex(rng, 4, 4)
        want = sharp(BilinearForm(symmetry, w), a)
        out = sharp(BilinearForm(symmetry, s * w), t * a)
        assert frob(out / t - want) <= 1e-13 * frob(want)


class TestClassifyOrbit:
    def test_zero_map(self):
        label = classify_orbit(SYM3, np.zeros((3, 2)))
        assert (label.a, label.b) == (0, 0)

    def test_symplectic_line_is_isotropic(self):
        label = classify_orbit(SKEW2, np.array([[1.0], [0.0]]))
        assert (label.a, label.b) == (1, 1)

    def test_totally_isotropic_image(self):
        # columns u_k + i v_k of a real orthogonal matrix are isotropic and orthogonal for
        # x^T y; the restricted form holds only roundoff, which the form's scale ranks 0
        q = np.linalg.qr(np.random.default_rng(83).standard_normal((5, 5)))[0]
        f_mat = q[:, :2] + 1j * q[:, 2:4]
        image = np.linalg.svd(f_mat, full_matrices=False)[0]
        assert 0.0 < frob(image.T @ image) < 1e-14
        label = classify_orbit(standard_form(SYMMETRIC, 5), f_mat)
        assert (label.a, label.b) == (2, 2)

    def test_orthogonal_unit_vector(self):
        label = classify_orbit(SYM3, np.array([[1.0], [0.0], [0.0]]))
        assert (label.a, label.b) == (1, 0)

    def test_invariant_under_group_action(self):
        rng = np.random.default_rng(82)
        form = standard_form(SYMMETRIC, 4)
        alg_v = embedding_algebra(form, 1)  # so realization to borrow the V form
        f_mat = generic_orbit_map(form, 2, 1, 3)
        base = classify_orbit(form, f_mat)
        for _ in range(5):
            g_u = random_complex(rng, 3, 3)  # generic invertible on U
            # form-preserving on V: exp of an so(V) element
            w = random_complex(rng, 4, 4)
            skew = (w - w.T) / 2.0
            g_v = scipy.linalg.expm(skew)
            assert frob(g_v.T @ form.gram @ g_v - form.gram) < 1e-10
            label = classify_orbit(form, g_v @ f_mat @ g_u)
            assert (label.a, label.b) == (base.a, base.b)


class TestInverseConstruction:
    def test_symplectic_isotropic_line(self):
        f_mat = np.array([[1.0], [0.0]], dtype=complex)
        g_mat, _, _ = mp_inverse_homform(SKEW2, f_mat)
        assert frob(g_mat - np.array([[0.5, 0.0]])) < 1e-12
        report = verify_homform(SKEW2, f_mat, g_mat)
        assert report.passed
        fg = f_mat @ g_mat
        diff = fg - sharp(SKEW2, fg)
        assert frob(diff - np.diag([0.5, -0.5])) < 1e-12

    def test_orthogonal_unit_vector(self):
        f_mat = np.array([[1.0], [0.0], [0.0]], dtype=complex)
        g_mat, _, _ = mp_inverse_homform(SYM3, f_mat)
        assert frob(g_mat - f_mat.T) < 1e-12
        assert verify_homform(SYM3, f_mat, g_mat).passed

    def test_middle_label_raises_with_certificate(self):
        f_mat = np.zeros((3, 2), dtype=complex)
        f_mat[0, 0] = 1.0
        f_mat[1, 1] = 1.0
        f_mat[2, 1] = 1.0j
        with pytest.raises(NotMoorePenroseOrbit) as info:
            mp_inverse_homform(SYM3, f_mat)
        assert info.value.a == 2 and info.value.b == 1
        assert info.value.certificate > 1e-3

    def test_special_position_element_still_solves_equations(self):
        # The orbit O(2,1) has no inverse at generic points, but this
        # Hermitian-split representative admits one: the degree -1 leg of its
        # minimal triple satisfies (*) and (**) exactly.
        from liepinv.graded import minimal_characteristic

        f_mat = np.zeros((3, 2), dtype=complex)
        f_mat[0, 0] = 1.0
        f_mat[1, 1] = 1.0
        f_mat[2, 1] = 1.0j
        alg = embedding_algebra(SYM3, 2)
        res = minimal_characteristic(alg, hom_element(alg, f_mat), 1)
        assert res.is_hermitian
        g_mat = alg.block_component(res.f, 3, 2) / 2.0
        assert verify_homform(SYM3, f_mat, g_mat).passed

    def test_generic_representatives_have_positive_defect(self):
        from liepinv.graded import minimal_characteristic

        for symmetry, dim_v in [(SYMMETRIC, 4), (SKEW, 4)]:
            form = standard_form(symmetry, dim_v)
            for a, b in reachable_orbit_labels(symmetry, dim_v, 3):
                if not (0 < b < a):
                    continue
                w = generic_orbit_map(form, a, b, 3)
                alg = embedding_algebra(form, 3)
                res = minimal_characteristic(alg, hom_element(alg, w), 1)
                assert res.hermitian_defect > 1e-3

    def test_zero_map(self):
        g_mat, _, _ = mp_inverse_homform(SYM3, np.zeros((3, 2)))
        assert g_mat.shape == (2, 3) and frob(g_mat) == 0.0

    def test_gf_projector_normalization(self):
        # b = 0: GF is a Hermitian projector; b = a: GF is half a projector
        f0 = generic_orbit_map(SYM3, 2, 0, 2)
        g0, _, _ = mp_inverse_homform(SYM3, f0)
        gf = g0 @ f0
        assert frob(gf @ gf - gf) < 1e-10
        form = standard_form(SKEW, 4)
        fa = generic_orbit_map(form, 2, 2, 2)
        ga, _, _ = mp_inverse_homform(form, fa)
        gfa = ga @ fa
        assert frob(gfa - gfa.conj().T) < 1e-10
        assert frob(2.0 * gfa @ (2.0 * gfa) - 2.0 * gfa) < 1e-10


class TestAgreesWithBasisSolve:
    """mp_inverse_homform (built on classical.pinv) against the basis-solve oracle."""

    @staticmethod
    def form_preserving(rng, form):
        """exp of a random element of so(V) or sp(V): preserves the form, not unitary."""
        m = random_complex(rng, form.dim, form.dim) / 2.0
        sign = 1.0 if form.symmetry == SYMMETRIC else -1.0
        g = scipy.linalg.expm(np.linalg.solve(form.gram, (m - sign * m.T) / 2.0))
        assert frob(g.T @ form.gram @ g - form.gram) < 1e-10 * frob(g) ** 2
        return g

    @pytest.mark.parametrize(
        "symmetry,dim_v", [(SYMMETRIC, 3), (SYMMETRIC, 5), (SKEW, 4), (SKEW, 6)]
    )
    def test_under_random_group_moves(self, symmetry, dim_v):
        rng = np.random.default_rng(86 + dim_v)
        form = standard_form(symmetry, dim_v)
        branches = set()
        for dim_u in (1, 2, 3, 4):
            for a, b in reachable_orbit_labels(symmetry, dim_v, dim_u):
                if a == 0 or 0 < b < a:
                    continue
                base = generic_orbit_map(form, a, b, dim_u)
                for _ in range(3):
                    g_u = random_complex(rng, dim_u, dim_u)  # generic invertible on U
                    f_mat = self.form_preserving(rng, form) @ base @ g_u
                    g_mat, label, _ = mp_inverse_homform(form, f_mat)
                    assert (label.a, label.b) == (a, b)
                    want = homform_basis_solve(form, f_mat, b)
                    assert frob(g_mat - want) <= 1e-10 * (1.0 + frob(want))
                branches.add("b = 0" if b == 0 else "b = a")
        assert branches == {"b = 0", "b = a"}


class TestVerifyHomform:
    def test_zero_pair_passes(self):
        assert verify_homform(SYM3, np.zeros((3, 2)), np.zeros((2, 3))).passed

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            verify_homform(SYM3, np.zeros((3, 2)), np.zeros((3, 2)))

    def test_random_candidates_generically_fail(self):
        rng = np.random.default_rng(83)
        f_mat = generic_orbit_map(SYM3, 2, 0, 2)
        failures = 0
        for _ in range(100):
            g_mat = random_complex(rng, 2, 3)
            if not verify_homform(SYM3, f_mat, g_mat).passed:
                failures += 1
        assert failures >= 99

    def test_equivalence_with_graded_triple(self):
        rng = np.random.default_rng(84)
        for symmetry, dim_v in [(SYMMETRIC, 3), (SYMMETRIC, 5), (SKEW, 4), (SKEW, 6)]:
            form = standard_form(symmetry, dim_v)
            for dim_u in (1, 2, 3):
                alg = embedding_algebra(form, dim_u)
                # positive instance: a constructed inverse
                labels = [
                    (a, b)
                    for a, b in reachable_orbit_labels(symmetry, dim_v, dim_u)
                    if (b == 0 or b == a) and a > 0
                ]
                a, b = labels[int(rng.integers(0, len(labels)))]
                f_mat = generic_orbit_map(form, a, b, dim_u)
                g_mat, _, _ = mp_inverse_homform(form, f_mat)
                e = hom_element(alg, f_mat)
                f = hom_coelement(alg, g_mat)
                h = bracket(e, f)
                assert Sl2Triple.from_elements(e, h, f).passes()
                assert frob(h - h.conj().T) <= 1e-8 * (1.0 + frob(h))
                # negative instance: a random non-inverse
                g_bad = random_complex(rng, dim_u, dim_v)
                assert not verify_homform(form, f_mat, g_bad).passed
                f_bad = hom_coelement(alg, g_bad)
                h_bad = bracket(e, f_bad)
                triple_ok = Sl2Triple.from_elements(e, h_bad, f_bad).passes()
                herm_ok = frob(h_bad - h_bad.conj().T) <= 1e-8 * (1.0 + frob(h_bad))
                assert not (triple_ok and herm_ok)

    def test_equivariance_under_compact_subgroup(self):
        rng = np.random.default_rng(85)
        form = standard_form(SYMMETRIC, 4)
        f_mat = generic_orbit_map(form, 2, 0, 3).astype(complex)
        g_mat, _, _ = mp_inverse_homform(form, f_mat)
        for _ in range(5):
            u = random_unitary(rng, 3)
            w = rng.standard_normal((4, 4))
            g_v = scipy.linalg.expm((w - w.T) / 2.0)  # real orthogonal: unitary + form-preserving
            f_new = g_v @ f_mat @ u
            g_new, _, _ = mp_inverse_homform(form, f_new)
            expected = u.conj().T @ g_mat @ g_v.conj().T
            assert frob(g_new - expected) <= 1e-8 * (1.0 + frob(expected))


class TestExhaustiveClassification:
    @pytest.mark.parametrize(
        "symmetry,dim_v", [(SKEW, 2), (SKEW, 4), (SYMMETRIC, 3), (SYMMETRIC, 4), (SYMMETRIC, 5)]
    )
    def test_proposition(self, symmetry, dim_v):
        form = standard_form(symmetry, dim_v)
        for dim_u in (1, 2, 3):
            for a, b in reachable_orbit_labels(symmetry, dim_v, dim_u):
                f_mat = generic_orbit_map(form, a, b, dim_u)
                label = classify_orbit(form, f_mat)
                assert (label.a, label.b) == (a, b)
                if b == 0 or b == a:
                    g_mat, _, _ = mp_inverse_homform(form, f_mat)
                    report = verify_homform(form, f_mat, g_mat)
                    assert report.max_residual() <= 1e-9
                else:
                    with pytest.raises(NotMoorePenroseOrbit) as info:
                        mp_inverse_homform(form, f_mat)
                    assert info.value.certificate > 1e-3
                    alg = embedding_algebra(form, dim_u)
                    assert not is_mp_element(alg, hom_element(alg, f_mat), 1)


def test_corollary_table_is_static_and_consistent():
    assert len(CLASSICAL_MAXIMAL_PARABOLIC_TABLE) == 3
    sp_row = CLASSICAL_MAXIMAL_PARABOLIC_TABLE[2]
    assert "Sp(2n)" in sp_row["group"]
    assert set(sp_row["abelian_radical_roots"]) <= set(sp_row["moore_penrose_roots"])
    for row in CLASSICAL_MAXIMAL_PARABOLIC_TABLE[:2]:
        # orthogonal: Moore-Penrose exactly where the radical is abelian
        assert row["moore_penrose_roots"] == row["abelian_radical_roots"]
