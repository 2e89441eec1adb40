import numpy as np
import pytest

from liepinv import classical
from liepinv.errors import NotInAlgebra, NotShortGrading, ShapeMismatch, WrongComponent
from liepinv.graded import (
    GradedAlgebra,
    bracket,
    minimal_characteristic,
    mp_inverse_short,
    orbit_height,
)
from liepinv.jordan import (
    CartanInvolution,
    JordanPair,
    cartan_involution_from_group,
    killing_pairing,
    mp_inverse_jordan,
    pairing_matrix,
    standard_cartan_involution,
    triple_product,
    verify_jordan_mp,
)
from liepinv.numcore import DEFAULT_TOL, frob

from helpers import (
    ALL_PAIRS,
    compact_group_element,
    gram_matrix,
    jordan_mp_fixed_point,
    levi_group_element,
    random_complex,
    random_matrix_with_rank,
    stack_ad,
    unit_pair_ambient_residuals,
    unit_pair_jordan_residuals,
)

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = E12.T.copy()


def matrix_pair(n, m):
    return JordanPair(GradedAlgebra("sl", (n, m)))


class TestStructure:
    def test_requires_short_grading(self):
        with pytest.raises(NotShortGrading):
            JordanPair(GradedAlgebra("sl", (1, 1, 1)))

    def test_scalar_triple(self):
        pair = matrix_pair(1, 1)
        out = triple_product(pair, E12, E21, E12)
        assert frob(out - E12) < 1e-14

    def test_matrix_triple_is_symmetrized_product(self):
        rng = np.random.default_rng(100)
        alg = GradedAlgebra("sl", (2, 3))
        pair = JordanPair(alg)
        a = random_complex(rng, 2, 3)
        b = random_complex(rng, 3, 2)
        c = random_complex(rng, 2, 3)
        out = triple_product(
            pair,
            alg.element_from_block(1, 2, a),
            alg.element_from_block(2, 1, b),
            alg.element_from_block(1, 2, c),
        )
        expected = (a @ b @ c + c @ b @ a) / 2.0
        assert frob(alg.block_component(out, 1, 2) - expected) < 1e-12

    def test_zero_argument(self):
        pair = matrix_pair(2, 2)
        alg = pair.algebra
        rng = np.random.default_rng(101)
        x = alg.random_element(1, rng)
        y = alg.random_element(-1, rng)
        assert frob(triple_product(pair, x, y, np.zeros_like(x))) == 0.0

    def test_wrong_component(self):
        pair = matrix_pair(2, 2)
        rng = np.random.default_rng(102)
        x = pair.algebra.random_element(1, rng)
        with pytest.raises(WrongComponent):
            triple_product(pair, x, x, x)


class TestKillingPairing:
    def test_scalar_pair(self):
        pair = matrix_pair(1, 1)
        assert abs(killing_pairing(pair, E12, E21) - 1.0) < 1e-14

    def test_ratio_to_killing_form(self):
        pair = matrix_pair(1, 1)
        ratio = pair.algebra.killing(E12, E21) / killing_pairing(pair, E12, E21)
        assert abs(ratio - 4.0) < 1e-12

    def test_zero(self):
        pair = matrix_pair(1, 2)
        rng = np.random.default_rng(103)
        x = pair.algebra.random_element(1, rng)
        assert killing_pairing(pair, x, np.zeros_like(x)) == 0.0

    @pytest.mark.parametrize("kind,blocks", ALL_PAIRS)
    def test_proportional_to_restricted_killing(self, kind, blocks):
        alg = GradedAlgebra(kind, blocks)
        pair = JordanPair(alg)
        k_pair = pairing_matrix(pair)
        plus, minus = pair.basis_plus, pair.basis_minus
        ads_p = np.array([alg.ad(b) for b in plus])
        ads_m = np.array([alg.ad(b) for b in minus])
        k_rest = np.einsum("iab,jba->ij", ads_p, ads_m)
        scale = np.vdot(k_rest, k_pair).real / np.vdot(k_rest, k_rest).real
        assert scale > 0.0
        assert frob(k_pair - scale * k_rest) <= 1e-9 * (1.0 + frob(k_pair))

    @pytest.mark.parametrize("kind,blocks", ALL_PAIRS)
    def test_matrix_entries_are_the_pairing(self, kind, blocks):
        pair = JordanPair(GradedAlgebra(kind, blocks))
        k_pair = pairing_matrix(pair)
        assert frob(pair.pairing - k_pair) == 0.0
        for i, plus in enumerate(pair.basis_plus):
            for j, minus in enumerate(pair.basis_minus):
                assert abs(k_pair[i, j] - killing_pairing(pair, plus, minus)) <= 1e-12

    @pytest.mark.parametrize("kind,blocks", ALL_PAIRS)
    def test_operators_match_the_bracket_stack(self, kind, blocks):
        rng = np.random.default_rng(105)
        pair = JordanPair(GradedAlgebra(kind, blocks))
        for sign in (1, -1):
            x, y = pair.algebra.random_element(sign, rng), pair.algebra.random_element(-sign, rng)
            want = 0.5 * stack_ad(pair._index(sign), bracket(x, y))
            scale = frob(x) * frob(y)
            assert frob(pair.operator_matrix(x, y, sign) - want) <= 1e-13 * scale
            assert abs(killing_pairing(pair, x, y) - np.trace(want)) <= 1e-13 * scale

    def test_symmetry_across_the_pair(self):
        rng = np.random.default_rng(104)
        pair = matrix_pair(2, 2)
        x = pair.algebra.random_element(1, rng)
        y = pair.algebra.random_element(-1, rng)
        assert abs(killing_pairing(pair, x, y) - killing_pairing(pair, y, x)) < 1e-10

    @pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
    def test_both_in_one_component_are_refused(self, sign):
        # the closed form c Tr(xy)/4 is defined for any two matrices: the checks keep it
        # to one argument in V+ and the other in V-
        rng = np.random.default_rng(106)
        pair = matrix_pair(2, 3)
        x, y = pair.algebra.random_element(sign, rng), pair.algebra.random_element(sign, rng)
        with pytest.raises(WrongComponent):
            killing_pairing(pair, x, y)

    def test_a_matrix_outside_the_algebra_is_refused(self):
        pair = matrix_pair(2, 2)
        minus = pair.algebra.random_element(-1, np.random.default_rng(107))
        with pytest.raises(NotInAlgebra):
            killing_pairing(pair, np.eye(4, dtype=complex), minus)


class TestCartanInvolution:
    def test_standard_is_adjoint(self):
        rng = np.random.default_rng(105)
        alg = GradedAlgebra("sl", (2, 3))
        pair = JordanPair(alg)
        inv = standard_cartan_involution(pair)
        x = alg.random_element(1, rng)
        assert frob(inv.apply(pair, x) - x.conj().T) < 1e-12

    def test_zero_and_involutive(self):
        rng = np.random.default_rng(106)
        pair = matrix_pair(2, 2)
        inv = standard_cartan_involution(pair)
        zero = np.zeros((4, 4), dtype=complex)
        assert frob(inv.apply(pair, zero)) == 0.0
        for _ in range(5):
            x = pair.algebra.random_element(1, rng)
            assert frob(inv.apply(pair, inv.apply(pair, x)) - x) < 1e-12

    def test_triple_equivariance(self):
        rng = np.random.default_rng(107)
        for kind, blocks in [("sl", (2, 2)), ("sp", (2, 2)), ("so", (1, 3, 1))]:
            alg = GradedAlgebra(kind, blocks)
            pair = JordanPair(alg)
            inv = standard_cartan_involution(pair)
            for _ in range(5):
                x = alg.random_element(1, rng)
                y = alg.random_element(-1, rng)
                z = alg.random_element(1, rng)
                lhs = inv.apply(pair, triple_product(pair, x, y, z))
                rhs = triple_product(
                    pair, inv.apply(pair, x), inv.apply(pair, y), inv.apply(pair, z)
                )
                assert frob(lhs - rhs) <= 1e-9 * (1.0 + frob(rhs))

    @pytest.mark.parametrize("kind,blocks", [("sl", (2, 3)), ("sp", (2, 2)), ("so", (1, 4, 1))])
    def test_positive_definite(self, kind, blocks):
        pair = JordanPair(GradedAlgebra(kind, blocks))
        inv = standard_cartan_involution(pair)
        gram = gram_matrix(pair, inv)
        assert frob(gram - gram.conj().T) < 1e-10
        eigvals = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
        assert eigvals.min() > 1e-6 * eigvals.max()

    def test_an_involution_needs_its_form(self):
        # (**) is decided through P: omega+- matrices alone are no longer an involution
        inv = standard_cartan_involution(matrix_pair(2, 2))
        with pytest.raises(TypeError):
            CartanInvolution(inv.omega_plus, inv.omega_minus)

    def test_conjugated_compact_form_gives_distinct_involution(self):
        rng = np.random.default_rng(108)
        alg = GradedAlgebra("sl", (2, 2))
        pair = JordanPair(alg)
        standard = standard_cartan_involution(pair)
        g = levi_group_element(alg, rng)
        moved = cartan_involution_from_group(pair, g)
        assert frob(moved.omega_plus - standard.omega_plus) > 1e-3

    def test_reconstructs_conjugation_on_commutators(self):
        rng = np.random.default_rng(109)
        alg = GradedAlgebra("sl", (2, 2))
        pair = JordanPair(alg)
        for use_moved in (False, True):
            if use_moved:
                g = levi_group_element(alg, rng)
                inv = cartan_involution_from_group(pair, g)
                g_inv = np.linalg.inv(g)
                theta = lambda z: -g @ (g_inv @ z @ g).conj().T @ g_inv  # noqa: E731
            else:
                inv = standard_cartan_involution(pair)
                theta = lambda z: -z.conj().T  # noqa: E731
            for _ in range(5):
                x = alg.random_element(1, rng)
                y = alg.random_element(-1, rng)
                lhs = bracket(inv.apply(pair, x), inv.apply(pair, y))
                rhs = theta(bracket(x, y))
                assert frob(lhs - rhs) <= 1e-8 * (1.0 + frob(rhs))


class TestJordanInverse:
    def test_matrix_pair_is_classical_pinv(self):
        rng = np.random.default_rng(110)
        alg = GradedAlgebra("sl", (3, 2))
        pair = JordanPair(alg)
        inv = standard_cartan_involution(pair)
        for rank in (0, 1, 2):
            a = random_matrix_with_rank(rng, 3, 2, rank)
            e = alg.element_from_block(1, 2, a)
            f = minimal_characteristic(alg, e, 1).f
            assert frob(alg.block_component(f, 2, 1) - classical.pinv(a)) < 1e-9
            out, _ = mp_inverse_jordan(pair, inv, e)
            assert frob(out - f) < 1e-9

    def test_invertible_symmetric_element(self):
        rng = np.random.default_rng(111)
        alg = GradedAlgebra("sp", (2, 2))
        pair = JordanPair(alg)
        inv = standard_cartan_involution(pair)
        w = rng.standard_normal((2, 2))
        w = (w + w.T) / 2.0 + 3.0 * np.eye(2)
        out, _ = mp_inverse_jordan(pair, inv, alg.element_from_block(1, 2, w.astype(complex)))
        assert frob(alg.block_component(out, 2, 1) - np.linalg.inv(w)) < 1e-10

    def test_zero(self):
        pair = matrix_pair(2, 2)
        inv = standard_cartan_involution(pair)
        out, _ = mp_inverse_jordan(pair, inv, np.zeros((4, 4)))
        assert frob(out) == 0.0

    def test_verify_passes_for_construction(self):
        rng = np.random.default_rng(112)
        pair = matrix_pair(2, 3)
        inv = standard_cartan_involution(pair)
        a = pair.algebra.random_element(1, rng)
        x, _ = mp_inverse_jordan(pair, inv, a)
        assert verify_jordan_mp(pair, inv, a, x).passed
        assert verify_jordan_mp(
            pair, inv, np.zeros_like(a), np.zeros_like(a)
        ).passed

    def test_involution_candidate_fails_for_nonuniform_spectrum(self):
        pair = matrix_pair(1, 1)
        inv = standard_cartan_involution(pair)
        a = 2.0 * E12
        report = verify_jordan_mp(pair, inv, a, inv.apply(pair, a))
        assert not report.passed
        assert report.residuals["recover_a"] > 0.1  # {2,2,2} = 8 != 2 scaled into the blocks

    def test_inner_inverse_hermitian_defects_move_together(self):
        # candidates satisfying (*) have both operators in (**) Hermitian or
        # neither, and m = [a, x] Hermitian with them; sample reflexive generalized
        # inverses of varying quality
        rng = np.random.default_rng(113)
        alg = GradedAlgebra("sl", (3, 3))
        pair = JordanPair(alg)
        inv = standard_cartan_involution(pair)
        a = random_matrix_with_rank(rng, 3, 3, 2)
        e = alg.element_from_block(1, 2, a)
        for _ in range(10):
            g1 = np.eye(3) + 0.5 * random_complex(rng, 3, 3)
            g2 = np.eye(3) + 0.5 * random_complex(rng, 3, 3)
            x = g2 @ classical.pinv(g1 @ a @ g2) @ g1
            f = alg.element_from_block(2, 1, x)
            report = verify_jordan_mp(pair, inv, e, f)
            oracle = unit_pair_jordan_residuals(pair, inv, e, f)
            assert report.residuals["recover_a"] < 1e-9 and report.residuals["recover_x"] < 1e-9
            assert ((report.residuals["hermitian"] < 1e-9)
                    == (oracle["hermitian_ax"] < 1e-9) == (oracle["hermitian_xa"] < 1e-9))

    @pytest.mark.parametrize("kind,blocks", [("sl", (2, 2)), ("sp", (2, 2)), ("so", (1, 3, 1))])
    def test_fixed_point_oracle_agrees(self, kind, blocks):
        rng = np.random.default_rng(114)
        alg = GradedAlgebra(kind, blocks)
        pair = JordanPair(alg)
        inv = standard_cartan_involution(pair)
        for _ in range(5):
            a = alg.random_element(1, rng)
            x_sl2, _ = mp_inverse_jordan(pair, inv, a)
            for scale in (1.0, 0.5, float(rng.uniform(0.2, 1.0))):
                x_fp = jordan_mp_fixed_point(pair, inv, a, scale=scale)
                assert frob(x_fp - x_sl2) <= 1e-8 * (1.0 + frob(x_sl2))


class TestMovedInvolutions:
    """An involution moved by a Levi element g is omega(z) = P z* P^-1 with P = g g*:
    verify_jordan_mp judges (**) by it, while mp_inverse_jordan still returns the standard
    closed form, which fails it loudly unless the inverse does not depend on P."""

    @pytest.mark.parametrize("kind,blocks", ALL_PAIRS)
    def test_fixed_point_of_the_moved_equations_passes(self, kind, blocks):
        rng = np.random.default_rng(117)
        alg = GradedAlgebra(kind, blocks)
        pair = JordanPair(alg)
        moved = cartan_involution_from_group(pair, levi_group_element(alg, rng))
        a = alg.random_element(1, rng)
        assert verify_jordan_mp(pair, moved, a, jordan_mp_fixed_point(pair, moved, a)).passed

    @pytest.mark.parametrize("kind,blocks", [
        ("sl", (2, 3)), ("sl", (3, 1)), ("sl", (3, 3)), ("sp", (3, 3)), ("so", (3, 3)),
    ])
    def test_standard_closed_form_fails_the_moved_involution(self, kind, blocks):
        # a singular block: an invertible one has the same inverse for every involution
        rng = np.random.default_rng(118)
        alg = GradedAlgebra(kind, blocks)
        pair = JordanPair(alg)
        moved = cartan_involution_from_group(pair, levi_group_element(alg, rng))
        c, d = random_complex(rng, blocks[0], 1), random_complex(rng, blocks[-1], 1)
        if kind == "sl":
            block = c @ d.T  # rank 1
        else:  # rank 2 of 3, (skew-)symmetric as the form asks
            block = c @ d.T + (1 if kind == "sp" else -1) * d @ c.T
        a = alg.element_from_block(1, 2, block)
        with pytest.raises(ArithmeticError, match="failed the pair equations"):
            mp_inverse_jordan(pair, moved, a)

    @pytest.mark.parametrize("kind,blocks", ALL_PAIRS)
    def test_unitary_group_element_gives_the_standard_answer(self, kind, blocks):
        rng = np.random.default_rng(119)
        alg = GradedAlgebra(kind, blocks)
        pair = JordanPair(alg)
        unitary = cartan_involution_from_group(pair, compact_group_element(alg, rng))
        assert frob(unitary.form - np.eye(alg.ambient_dim)) <= 1e-14
        a = alg.random_element(1, rng)
        x, report = mp_inverse_jordan(pair, unitary, a)
        want, _ = mp_inverse_jordan(pair, standard_cartan_involution(pair), a)
        np.testing.assert_array_equal(x, want)
        assert report.passed

    def test_form_is_the_positive_form_of_g_at_unit_norm(self):
        rng = np.random.default_rng(120)
        alg = GradedAlgebra("sl", (2, 3))
        pair = JordanPair(alg)
        g = levi_group_element(alg, rng)
        moved = cartan_involution_from_group(pair, g)
        p = g @ g.conj().T
        assert abs(np.linalg.norm(moved.form, 2) - 1.0) <= 1e-14
        assert frob(moved.form * np.linalg.norm(p, 2) - p) <= 1e-13 * frob(p)
        x = alg.random_element(1, rng)
        assert frob(moved.apply(pair, x) - p @ x.conj().T @ np.linalg.inv(p)) <= 1e-12 * frob(x)


class TestAmbientCheckAgreesWithOperators:
    """(**) on m = [a, x] itself, |m P - P m*|_F / (1 + |a|_F |x|_F), gives the verdict of
    the two coordinate operators {a x .} and {x a .} with the Gram matrix of H.

    Every ALL_PAIRS grading, so(2, 2) included (its g_0 does not act faithfully on V+),
    with the standard and a Levi-moved involution and x the exact inverse perturbed by
    eps.  The two normalizations differ by a factor of up to about 25, so the verdicts may
    differ only inside a band: both Hermitian residuals between residual_tol / 5 and
    5 residual_tol.  Of the 288 cases, 39 lie in the band, all at eps = 1e-9 or 1e-8, and
    the verdicts differ in five of them, all at eps = 1e-9."""

    EPS = (1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-6, 1e-4, 1e-2)
    BAND = 5.0

    @staticmethod
    def _exact_inverses(alg, pair, g, a):
        """(involution, its exact inverse of a): the moved inverse is g x0(g^-1 a g) g^-1."""
        g_inv = np.linalg.inv(g)
        moved = g @ mp_inverse_short(alg, alg.project(g_inv @ a @ g)) @ g_inv
        return ((standard_cartan_involution(pair), mp_inverse_short(alg, a)),
                (cartan_involution_from_group(pair, g), alg.project(moved)))

    @pytest.mark.parametrize("kind,blocks", ALL_PAIRS)
    def test_verdicts_agree_outside_the_band(self, kind, blocks):
        tol = DEFAULT_TOL.residual_tol
        rng = np.random.default_rng([0, len(blocks), sum(blocks), ord(kind[1])])
        alg = GradedAlgebra(kind, blocks)
        pair = JordanPair(alg)
        a = alg.random_element(1, rng)
        for inv, exact in self._exact_inverses(alg, pair, levi_group_element(alg, rng), a):
            for eps in self.EPS:
                r = alg.random_element(-1, rng)
                x = exact + eps * frob(exact) / frob(r) * r
                report = verify_jordan_mp(pair, inv, a, x)
                oracle = unit_pair_jordan_residuals(pair, inv, a, x)
                if report.passed == all(v <= tol for v in oracle.values()):
                    continue
                both = (report.residuals["hermitian"],
                        max(oracle["hermitian_ax"], oracle["hermitian_xa"]))
                assert all(tol / self.BAND <= h <= self.BAND * tol for h in both), (eps, both)


class TestSharedValues:
    """The bases, the pairing and the standard involution depend on the algebra alone:
    every pair of one algebra shares them, read-only."""

    @pytest.mark.parametrize("kind,blocks", [("sl", (2, 3)), ("sp", (2, 2)), ("so", (1, 3, 1))])
    def test_shared_and_read_only(self, kind, blocks):
        pair, other = JordanPair(GradedAlgebra(kind, blocks)), JordanPair(GradedAlgebra(kind, blocks))
        inv, other_inv = standard_cartan_involution(pair), standard_cartan_involution(other)
        for name in ("basis_plus", "basis_minus", "pairing"):
            assert getattr(other, name) is getattr(pair, name), name
        for name in ("omega_plus", "omega_minus", "form"):
            assert getattr(other_inv, name) is getattr(inv, name), name
        assert pairing_matrix(other) is pair.pairing
        np.testing.assert_array_equal(inv.form, np.eye(pair.algebra.ambient_dim))
        for value in (pair.basis_plus, pair.basis_minus, pair.pairing, inv.omega_plus,
                      inv.omega_minus, inv.form):
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 0
        np.testing.assert_array_equal(pair.basis_plus, pair.algebra.basis(1))

    def test_moved_involution_is_not_shared(self):
        alg = GradedAlgebra("sl", (2, 2))
        pair = JordanPair(alg)
        g = levi_group_element(alg, np.random.default_rng(115))
        moved = cartan_involution_from_group(pair, g)
        assert moved.omega_plus is not cartan_involution_from_group(pair, g).omega_plus
        moved.omega_plus[...] = 0  # a caller's own involution stays writable


class TestVerifyScalesOnce:
    """verify_jordan_mp forms its unit pair from the scale that the membership check of a
    found; the residuals are those of the ambient formula that scaled a again, bit for
    bit."""

    @pytest.mark.parametrize("kind,blocks", ALL_PAIRS)
    def test_residuals_equal_the_unit_pair_formula(self, kind, blocks):
        rng = np.random.default_rng(116)
        alg = GradedAlgebra(kind, blocks)
        pair = JordanPair(alg)
        inv = standard_cartan_involution(pair)
        zero = np.zeros((alg.ambient_dim,) * 2, dtype=complex)
        for scale in (3e-200, 1.0, 0.7, 5e150):
            a = scale * alg.random_element(1, rng)
            x, _ = mp_inverse_jordan(pair, inv, a)
            near = x + 1e-3 * frob(x) * alg.random_element(-1, rng)
            for args in ((a, x), (x, a), (a, near), (near, a), (zero, x), (a, zero)):
                want = unit_pair_ambient_residuals(inv, *args)
                assert verify_jordan_mp(pair, inv, *args).residuals == want, (scale, args)


def _entry_points():
    """Each matrix-taking entry point with one argument slot open, and a valid value for it."""
    alg = GradedAlgebra("sl", (2, 3))
    pair = JordanPair(alg)
    inv = standard_cartan_involution(pair)
    rng = np.random.default_rng(8)
    a, x = alg.random_element(1, rng), alg.random_element(-1, rng)
    return {
        "mp_inverse_short": (lambda m: mp_inverse_short(alg, m), a),
        "minimal_characteristic": (lambda m: minimal_characteristic(alg, m), a),
        "orbit_height": (lambda m: orbit_height(alg, m), a),
        "mp_inverse_jordan": (lambda m: mp_inverse_jordan(pair, inv, m), a),
        "verify_jordan_mp[a]": (lambda m: verify_jordan_mp(pair, inv, m, x), a),
        "verify_jordan_mp[x]": (lambda m: verify_jordan_mp(pair, inv, a, m), x),
        "triple_product[x]": (lambda m: triple_product(pair, m, x, a), a),
        "triple_product[y]": (lambda m: triple_product(pair, a, m, a), x),
        "triple_product[z]": (lambda m: triple_product(pair, a, x, m), a),
        "GradedAlgebra.project": (alg.project, a),
    }


ENTRY_POINTS = _entry_points()


class TestBoundaryChecks:
    """Every matrix argument is checked where it enters, in every position."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_valid_argument_passes(self, entry):
        call, valid = ENTRY_POINTS[entry]
        call(valid)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_nan_entry_raises_value_error(self, entry):
        call, valid = ENTRY_POINTS[entry]
        bad = valid.copy()
        bad[bad != 0] = np.nan  # the nonzero pattern of a component, so only the entries are bad
        with pytest.raises(ValueError, match="non-finite"):
            call(bad)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_wrong_size_raises_shape_mismatch(self, entry):
        call, _ = ENTRY_POINTS[entry]
        with pytest.raises(ShapeMismatch):
            call(np.zeros((4, 4)))

    @pytest.mark.parametrize("size", [3, 5, 8])
    def test_operator_matrix_needs_matrices_of_the_algebra(self, size):
        pair = matrix_pair(2, 2)  # 4 x 4 matrices
        rng = np.random.default_rng(12)
        x, y = random_complex(rng, size, size), random_complex(rng, size, size)
        for sign in (1, -1):
            with pytest.raises(ShapeMismatch):
                pair.operator_matrix(x, y, sign)

    @pytest.mark.parametrize("degree", [1, 0], ids=["plus", "degree0"])
    def test_verify_needs_x_in_the_opposite_component(self, degree):
        alg = GradedAlgebra("sl", (2, 3))
        pair = JordanPair(alg)
        rng = np.random.default_rng(9)
        a, x = alg.random_element(1, rng), alg.random_element(degree, rng)
        with pytest.raises(WrongComponent):
            verify_jordan_mp(pair, standard_cartan_involution(pair), a, x)

    def test_pairing_with_zero_x_still_needs_y_in_a_component(self):
        pair = matrix_pair(2, 2)
        y = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)  # degree 0
        zero = np.zeros_like(y)
        with pytest.raises(WrongComponent):
            triple_product(pair, zero, y, zero)
        with pytest.raises(WrongComponent):
            killing_pairing(pair, zero, y)
        minus = pair.algebra.random_element(-1, np.random.default_rng(11))
        assert killing_pairing(pair, zero, minus) == 0j

    def test_verify_with_zero_a_takes_the_component_of_x(self):
        alg = GradedAlgebra("sl", (2, 3))
        pair = JordanPair(alg)
        x = alg.random_element(1, np.random.default_rng(10))
        report = verify_jordan_mp(pair, standard_cartan_involution(pair), np.zeros_like(x), x)
        assert report.residuals["recover_a"] == 0.0 and not report.passed
