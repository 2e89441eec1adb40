import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from liepinv import classical, complexes, forms, graded
from liepinv.errors import (
    NotCharacteristic,
    NotInAlgebra,
    NotNilpotent,
    NotShortGrading,
    ShapeMismatch,
    SymmetryViolation,
    UnsupportedBlock,
    ZeroElement,
)
from liepinv.graded import (
    GradedAlgebra,
    Sl2Triple,
    annihilates_positive_part,
    bracket,
    characteristic_direction_space,
    compact_conjugation,
    is_mp_element,
    is_mp_orbit,
    minimal_characteristic,
    mp_check_multidegree,
    mp_inverse_short,
    multidegree_characteristic,
    orbit_height,
)
from liepinv.homform import embedding_algebra, generic_orbit_map, hom_element
from liepinv.numcore import (
    DEFAULT_TOL,
    Tolerance,
    _unit_pair,
    _unit_scale,
    frob,
    rank_decomposition,
)

from helpers import (
    ALL_PAIRS,
    centralizer_positive_directions,
    compact_group_element,
    eager_index_bases,
    engine_characteristic,
    engine_direction_space,
    ill_conditioned_sp8_conjugate,
    is_mp_element_resplit,
    jordan_nilpotent,
    killing_ad,
    levi_group_element,
    lstsq_f,
    masked_degree,
    partitions,
    positive_part_annihilated_eig,
    random_complex,
    random_exact_complex,
    random_matrix_with_rank,
    resplit,
    split_form,
    standard_form,
    svd_graded_basis,
)

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = E12.T.copy()
H2 = np.diag([1.0, -1.0]).astype(complex)


class TestBracket:
    def test_sl2_relation(self):
        assert frob(bracket(E12, E21) - H2) == 0.0

    def test_self_bracket_vanishes(self):
        x = random_complex(np.random.default_rng(0), 3, 3)
        assert frob(bracket(x, x)) < 1e-14

    def test_weight(self):
        assert frob(bracket(H2, E12) - 2.0 * E12) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            bracket(np.eye(2), np.eye(3))

    def test_jacobi(self):
        rng = np.random.default_rng(1)
        x, y, z = (random_complex(rng, 4, 4) for _ in range(3))
        total = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert frob(total) < 1e-12


# sl with 1-4 blocks; so/sp with odd and even middle blocks, or none.  The
# first seven keep the parameter ids the round-trip test had before.
BASIS_GRADINGS = [
    ("sl", (2, 3)), ("sp", (2, 2)), ("so", (3, 3)), ("so", (1, 3, 1)),
    ("sl", (2, 1, 2)), ("so", (2, 3, 2)), ("sp", (2, 2, 2)),
    ("sl", (3,)), ("sl", (1, 2, 1)), ("sl", (1, 1, 1, 1)),
    ("so", (4,)), ("so", (5,)), ("so", (2, 2)), ("so", (1, 1, 1)), ("so", (1, 2, 1)),
    ("so", (1, 4, 1)), ("so", (2, 2, 2)), ("so", (1, 1, 1, 1)),
    ("sp", (4,)), ("sp", (1, 1)), ("sp", (3, 3)), ("sp", (1, 2, 1)), ("sp", (2, 4, 2)),
    ("sp", (1, 2, 2, 1)),
]


class TestIndexBasis:
    """The index-arithmetic basis against the SVD construction it replaced."""

    @pytest.mark.parametrize("kind,blocks", BASIS_GRADINGS)
    def test_matches_svd_construction(self, kind, blocks):
        alg = GradedAlgebra(kind, blocks)
        n = alg.ambient_dim
        expected = {"sl": n * n - 1, "so": n * (n - 1) // 2, "sp": n * (n + 1) // 2}[kind]
        assert alg.dim == expected == alg.basis().shape[0]
        oracle = svd_graded_basis(alg)
        assert alg.degrees == [m for m, b in sorted(oracle.items()) if b.shape[0]]
        for m, want in oracle.items():
            got = alg.basis(m)
            assert got.shape == want.shape
            flat = got.reshape(got.shape[0], n * n)
            flat_want = want.reshape(want.shape[0], n * n)
            # same span: equal orthogonal projectors
            assert frob(flat.T @ flat.conj() - flat_want.T @ flat_want.conj()) < 1e-12
            assert frob(flat.conj() @ flat.T - np.eye(got.shape[0])) < 1e-14
            for b in got:
                assert alg.membership_residual(b) < 1e-14
                assert frob(b - alg.degree_component(b, m)) == 0.0

    @pytest.mark.parametrize("kind,blocks", [g for g in BASIS_GRADINGS if g[0] != "sl"])
    def test_tau_is_the_split_form_involution(self, kind, blocks):
        alg = GradedAlgebra(kind, blocks)
        form = split_form(kind, blocks)
        x = random_complex(np.random.default_rng(8), alg.ambient_dim, alg.ambient_dim)
        assert frob(alg._tau(x) + np.linalg.inv(form) @ x.T @ form) < 1e-13 * frob(x)

    @pytest.mark.parametrize("kind,blocks", BASIS_GRADINGS)
    def test_gathers_match_dense_contractions(self, kind, blocks):
        rng = np.random.default_rng(7)
        alg = GradedAlgebra(kind, blocks)
        basis = alg.basis()
        x = random_complex(rng, alg.ambient_dim, alg.ambient_dim)
        v = random_complex(rng, alg.dim)
        dense_ad = np.einsum("jab,kab->jk", basis.conj(), x @ basis - basis @ x)
        assert frob(alg.ad(x) - dense_ad) < 1e-12 * frob(dense_ad)
        assert frob(alg.coordinates(x) - np.einsum("kab,ab->k", basis.conj(), x)) < 1e-12
        assert frob(alg.from_coordinates(v) - np.einsum("k,kab->ab", v, basis)) < 1e-12


    @pytest.mark.parametrize("order", ["whole first", "one degree first", "plus-minus one only"])
    @pytest.mark.parametrize("kind,blocks", BASIS_GRADINGS)
    def test_bases_built_on_first_use_match_eager_construction(self, kind, blocks, order):
        alg, k = GradedAlgebra(kind, blocks), len(blocks)
        asked = {"whole first": [None, *range(1 - k, k)],
                 "one degree first": [k - 1, None, *range(1 - k, k - 1)],
                 "plus-minus one only": [1, -1]}[order]
        got = {m: alg._index_basis(m) for m in asked}
        assert set(alg._bases) == {m for m in asked if m is None or abs(m) < k}
        for m, want in eager_index_bases(GradedAlgebra(kind, blocks)).items():
            if m not in got:
                continue
            assert alg._index_basis(m) is got[m]
            for name in ("pos", "partner", "weight", "pweight", "cartan"):
                a, b = getattr(got[m], name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (m, name)
            assert (got[m].n, got[m].units, got[m].count, got[m].paired) == (
                want.n, want.units, want.count, want.paired)

    @pytest.mark.parametrize("kind,blocks", BASIS_GRADINGS)
    def test_structure_is_read_without_building_a_basis(self, kind, blocks):
        alg = GradedAlgebra(kind, blocks)
        oracle = svd_graded_basis(alg)
        degrees = [m for m, b in sorted(oracle.items()) if b.shape[0]]
        assert alg.degrees == degrees
        assert alg.dim == sum(b.shape[0] for b in oracle.values())
        assert all(alg.degree_dimension(m) == b.shape[0] for m, b in oracle.items())
        assert alg.degree_dimension(len(blocks)) == 0
        assert alg.is_short == all(abs(m) <= 1 for m in degrees)
        assert alg._bases == {}


DEGREE_GRADINGS = [("sl", (2, 3)), ("sl", (1, 2, 1)), ("sl", (3,)), ("so", (1, 3, 1)),
                   ("so", (1, 1, 1, 1)), ("sp", (2, 2)), ("sp", (2, 2, 2))]


def _degree_outcome(decide, x):
    """decide(x), or the message of the ValueError it raises."""
    try:
        return decide(x)
    except ValueError as exc:
        return str(exc)


class TestDegreeTest:
    """The one-pass degree test against the masked-norm rule it replaced."""

    @staticmethod
    def _agree(alg, x):
        x = _unit_scale(x)[0]
        got = _degree_outcome(lambda u: alg._degree(u, DEFAULT_TOL), x)
        assert got == _degree_outcome(lambda u: masked_degree(alg, u), x)
        return got

    @pytest.mark.parametrize("kind,blocks", DEGREE_GRADINGS)
    def test_homogeneous_and_zero(self, kind, blocks):
        alg, rng = GradedAlgebra(kind, blocks), np.random.default_rng(17)
        assert self._agree(alg, np.zeros((alg.ambient_dim,) * 2, dtype=complex)) is None
        for m in alg.degrees:
            assert self._agree(alg, 1e3 * alg.random_element(m, rng)) == m

    @pytest.mark.parametrize("kind,blocks", DEGREE_GRADINGS)
    def test_mixed_names_the_degrees_with_mass(self, kind, blocks):
        alg, rng = GradedAlgebra(kind, blocks), np.random.default_rng(18)
        degrees = alg.degrees
        for m, other in zip(degrees, degrees[1:]):
            x = alg.random_element(m, rng) + alg.random_element(other, rng)
            assert self._agree(alg, x) == f"element is not homogeneous; degrees with mass: {[m, other]}"
        if len(degrees) > 2:
            x = sum(alg.random_element(m, rng) for m in degrees)
            assert self._agree(alg, x) == f"element is not homogeneous; degrees with mass: {degrees}"

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("kind,blocks", DEGREE_GRADINGS)
    def test_off_degree_mass_at_the_cut(self, kind, blocks, factor):
        alg, rng = GradedAlgebra(kind, blocks), np.random.default_rng(19)
        for m in alg.degrees:
            for other in alg.degrees:
                if other == m:
                    continue
                e, y = alg.random_element(m, rng), alg.random_element(other, rng)
                x = e + factor * DEFAULT_TOL.residual_tol * frob(e) / frob(y) * y
                got = self._agree(alg, x)
                expect = sorted((m, other), key=alg.degrees.index)
                assert got == (m if factor < 1 else
                               f"element is not homogeneous; degrees with mass: {expect}")


def _short_pairs():
    """(e, f) at unit scale on the short routes: a closed-form inverse and a perturbed one."""
    rng = np.random.default_rng(23)
    for kind, blocks in [("sl", (2, 3)), ("sp", (2, 2)), ("so", (3, 3)), ("so", (1, 3, 1))]:
        alg = GradedAlgebra(kind, blocks)
        e = _unit_scale(alg.random_element(1, rng))[0]
        f = mp_inverse_short(alg, e)
        yield f"{kind}{blocks}", e, f
        yield f"{kind}{blocks} perturbed", e, f + 1e-3 * alg.random_element(-1, rng)


def _form_and_complex_pairs():
    """(e, f) of the forms and complexes certificates, as their verifiers build them."""
    rng = np.random.default_rng(29)
    v = random_complex(rng, 5)
    e, _, f = forms.vector_triple(v, forms.vector_pinv(v))
    yield "vector", *_unit_pair(e, f)
    space = forms.PseudoEuclideanSpace(3, 2)
    v = rng.standard_normal(5)
    e, _, f = forms.pseudo_euclidean_triple(space, v, forms.pseudo_euclidean_pinv(space, v))
    yield "pseudo", *_unit_pair(e, f)
    t = complexes.ChainTuple((3, 4, 2), tuple(random_exact_complex(rng, (3, 4, 2), [2, 1])))
    out, _ = complexes.complex_pinv(t)
    yield "complex", *_unit_pair(complexes.assemble_raising(t),
                                 complexes.assemble_lowering(t, out.maps[::-1]))


class TestCertificate:
    """The certificate forms [e, f] once; its residuals are those of the full relations."""

    @pytest.mark.parametrize("name,e,f", [*_short_pairs(), *_form_and_complex_pairs()],
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_residuals_equal_the_relations_bit_for_bit(self, name, e, f):
        triple, defect = graded._certificate(e, f)
        h = bracket(e, f)
        assert np.array_equal(triple.h, h)
        assert np.array(triple.residuals).tobytes() == np.array(graded._relations(e, f, h)).tobytes()
        assert defect == frob(h - h.conj().T) / (1.0 + frob(h))

    def test_overflowing_bracket_keeps_its_nan_residual(self):
        e = np.array([[0.0, 1.5], [0.0, 0.0]], dtype=complex)
        f = np.array([[0.0, 0.0], [1.5e308, 0.0]], dtype=complex)  # [e, f] = diag(inf, -inf)
        with np.errstate(all="ignore"):
            triple = graded._certificate(e, f)[0]
            want = graded._relations(e, f, bracket(e, f))
        assert np.isnan(triple.residuals[0])
        np.testing.assert_array_equal(triple.residuals, want)
        assert not triple.passes()


class TestGradedAlgebraStructure:
    @pytest.mark.parametrize(
        "kind,blocks,dim",
        [
            ("sl", (2, 3), 24),
            ("sl", (1, 1, 1), 8),
            ("so", (2, 2), 6),
            ("so", (1, 3, 1), 10),
            ("sp", (2, 2), 10),
            ("sp", (1, 2, 1), 10),
        ],
    )
    def test_dimensions(self, kind, blocks, dim):
        assert GradedAlgebra(kind, blocks).dim == dim

    def test_palindrome_required(self):
        with pytest.raises(ValueError):
            GradedAlgebra("so", (2, 3))
        with pytest.raises(ValueError):
            GradedAlgebra("sp", (1, 3, 1))  # odd middle block

    def test_short_grading_flags(self):
        assert GradedAlgebra("sl", (2, 3)).is_short
        assert GradedAlgebra("so", (1, 3, 1)).is_short  # degree +-2 part is empty
        assert not GradedAlgebra("sl", (1, 1, 1)).is_short
        assert not GradedAlgebra("sp", (1, 2, 1)).is_short

    def test_basis_orthonormal_and_homogeneous(self):
        alg = GradedAlgebra("sp", (1, 2, 1))
        basis = alg.basis()
        flat = basis.reshape(basis.shape[0], -1)
        gram = flat.conj() @ flat.T
        assert frob(gram - np.eye(basis.shape[0])) < 1e-12
        for m in alg.degrees:
            for b in alg.basis(m):
                assert frob(b - alg.degree_component(b, m)) < 1e-13

    def test_grading_soundness_bracket_degrees(self):
        rng = np.random.default_rng(2)
        for alg in (GradedAlgebra("sl", (1, 2, 1)), GradedAlgebra("so", (2, 3, 2))):
            for _ in range(10):
                da = int(rng.choice(alg.degrees))
                db = int(rng.choice(alg.degrees))
                x = alg.random_element(da, rng)
                y = alg.random_element(db, rng)
                xy = bracket(x, y)
                target = da + db
                mass = frob(xy - alg.degree_component(xy, target))
                assert mass < 1e-12 * (1.0 + frob(xy))

    def test_compact_conjugation_preserves_algebra_and_flips_degree(self):
        rng = np.random.default_rng(3)
        for alg in (GradedAlgebra("so", (1, 2, 1)), GradedAlgebra("sp", (2, 2))):
            for m in alg.degrees:
                x = alg.random_element(m, rng)
                tx = compact_conjugation(x)
                assert alg.membership_residual(tx) < 1e-12 * (1.0 + frob(tx))
                assert frob(tx - alg.degree_component(tx, -m)) < 1e-12 * (1.0 + frob(tx))

    @pytest.mark.parametrize("kind,blocks", BASIS_GRADINGS)
    def test_project_is_the_coordinate_projection(self, kind, blocks):
        rng = np.random.default_rng(6)
        alg = GradedAlgebra(kind, blocks)
        for _ in range(5):
            x = random_complex(rng, alg.ambient_dim, alg.ambient_dim)
            via_basis = alg.from_coordinates(alg.coordinates(x))
            assert frob(alg.project(x) - via_basis) <= 1e-12

    def test_membership_rejects_outsiders(self):
        alg = GradedAlgebra("so", (2, 2))
        with pytest.raises(NotInAlgebra):
            alg.require_member(np.eye(4))

    def test_element_from_block_symmetry_violation(self):
        sp = GradedAlgebra("sp", (2, 2))
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(SymmetryViolation):
            sp.element_from_block(1, 2, skew)  # needs a symmetric block

    def test_element_from_block_decides_symmetry_at_unit_scale(self):
        sp = GradedAlgebra("sp", (2, 2))
        huge = np.array([[1e308, 0.0], [0.0, 1.0]])
        assert np.array_equal(sp.block_component(sp.element_from_block(1, 2, huge), 1, 2), huge)
        with pytest.raises(SymmetryViolation):  # tiny, but not symmetric
            sp.element_from_block(1, 2, [[0.0, 1e-12], [0.0, 0.0]])


class TestKillingForm:
    def test_sl2_values(self):
        alg = GradedAlgebra("sl", (1, 1))
        assert abs(alg.killing(E12, E21) - 4.0) < 1e-12
        assert abs(alg.killing(H2, H2) - 8.0) < 1e-12

    def test_degree_shift_kills_trace(self):
        alg = GradedAlgebra("sl", (2, 1))
        rng = np.random.default_rng(4)
        x = alg.random_element(1, rng)
        y = alg.random_element(1, rng)
        assert abs(alg.killing(x, y)) < 1e-12

    def test_membership_enforced(self):
        alg = GradedAlgebra("sl", (1, 1))
        with pytest.raises(NotInAlgebra):
            alg.killing(np.eye(2), E12)

    def test_positive_multiple_of_trace_pairing(self):
        rng = np.random.default_rng(5)
        for alg, expected in [
            (GradedAlgebra("sl", (2, 2)), 8.0),    # 2n for sl_n
            (GradedAlgebra("so", (2, 3, 2)), 5.0),  # n - 2 for so_n
            (GradedAlgebra("sp", (3, 3)), 8.0),     # n + 2 for sp_n
        ]:
            x = alg.random_element(1, rng)
            y = alg.random_element(-1, rng)
            ratio = alg.killing(x, y) / np.trace(x @ y)
            assert abs(ratio - expected) < 1e-9 * expected

    @pytest.mark.parametrize("kind,blocks", ALL_PAIRS + [("sl", (2,)), ("so", (5,)), ("sp", (4,))])
    def test_closed_form_matches_ad_trace(self, kind, blocks):
        alg = GradedAlgebra(kind, blocks)
        rng = np.random.default_rng(6)
        x, y = alg.random_element(None, rng), alg.random_element(None, rng)
        for a, b in ((x, y), (x, x.conj().T), (y, y)):
            want = killing_ad(alg, a, b)
            assert abs(alg.killing(a, b) - want) <= 1e-12 * abs(want)


class TestMinimalCharacteristic:
    def test_standard_sl2_triple(self):
        alg = GradedAlgebra("sl", (1, 1))
        res = minimal_characteristic(alg, E12, 1)
        assert frob(res.h - H2) < 1e-12
        assert frob(res.f - E21) < 1e-12
        assert res.is_hermitian

    def test_zero_element(self):
        alg = GradedAlgebra("sl", (2, 2))
        res = minimal_characteristic(alg, np.zeros((4, 4)), 1)
        assert frob(res.h) == 0.0 and frob(res.f) == 0.0 and res.is_hermitian

    def test_block_vector_matches_classical_pinv(self):
        alg = GradedAlgebra("sl", (2, 1))
        block = np.array([[1.0], [0.0]], dtype=complex)
        res = minimal_characteristic(alg, alg.element_from_block(1, 2, block), 1)
        assert res.is_hermitian
        assert frob(alg.block_component(res.f, 2, 1) - classical.pinv(block)) < 1e-10

    def test_triple_residuals_random(self):
        rng = np.random.default_rng(6)
        for alg in (
            GradedAlgebra("sl", (3, 2)),
            GradedAlgebra("so", (1, 4, 1)),
            GradedAlgebra("sp", (2, 2)),
            GradedAlgebra("sl", (1, 2, 2)),
        ):
            for m in [d for d in alg.degrees if d > 0]:
                e = alg.random_element(m, rng)
                res = minimal_characteristic(alg, e, m)
                assert res.triple.max_residual() <= 1e-8

    def test_minimality_against_centralizer_oracle(self):
        rng = np.random.default_rng(7)
        cases = [
            (GradedAlgebra("sl", (2, 2)), 1),
            (GradedAlgebra("sl", (1, 1, 2)), 1),
            (GradedAlgebra("sl", (4,)), 0),
        ]
        for alg, degree in cases:
            if degree:
                e = alg.random_element(degree, rng)
            else:
                e = jordan_nilpotent((2, 1, 1))
            res = minimal_characteristic(alg, e, degree)
            directions = centralizer_positive_directions(alg, e, res.h, degree)
            if directions.shape[0] == 0:
                continue
            base = frob(res.h) ** 2
            for _ in range(50):
                coef = random_complex(rng, directions.shape[0])
                delta = np.einsum("k,kab->ab", coef, directions)
                grown = frob(res.h + delta) ** 2
                assert grown > base + 1e-12 * max(base, 1.0)

    def test_direction_space_matches_oracle_and_is_orthogonal(self):
        rng = np.random.default_rng(8)
        alg = GradedAlgebra("sl", (4,))
        e = jordan_nilpotent((3, 1))
        res = minimal_characteristic(alg, e, 0)
        solver_dirs = characteristic_direction_space(alg, res)
        oracle_dirs = centralizer_positive_directions(alg, e, res.h, 0)
        assert solver_dirs.shape[0] == oracle_dirs.shape[0] > 0
        # same span
        stacked = np.concatenate([solver_dirs, oracle_dirs]).reshape(-1, 16)
        assert rank_decomposition(stacked.T).rank == solver_dirs.shape[0]
        for d in solver_dirs:
            assert abs(np.vdot(res.h, d)) < 1e-9

    def test_uniqueness_from_randomized_starts(self):
        rng = np.random.default_rng(9)
        alg = GradedAlgebra("sl", (3, 2))
        e = alg.random_element(1, rng)
        h_ref = minimal_characteristic(alg, e, 1).h
        neg = alg.basis(-1)
        zero = alg.basis(0)
        br_e = np.einsum("ab,kbc->kac", e, neg) - np.einsum("kab,bc->kac", neg, e)
        m_obj = np.einsum("jab,kab->jk", zero.conj(), br_e)
        br2 = np.einsum("kab,bc->kac", br_e, e) - np.einsum("ab,kbc->kac", e, br_e)
        c_mat = np.einsum("jab,kab->jk", alg.basis(1).conj(), br2)
        d = 2.0 * np.einsum("kab,ab->k", alg.basis(1).conj(), e)
        kernel = rank_decomposition(c_mat).kernel
        for _ in range(3):
            y0 = np.linalg.lstsq(c_mat, d, rcond=None)[0]
            y0 = y0 + kernel @ random_complex(rng, kernel.shape[1])
            z = np.linalg.lstsq(m_obj @ kernel, -m_obj @ y0, rcond=None)[0]
            h = np.einsum("k,kab->ab", y0 + kernel @ z, br_e)
            assert frob(h - h_ref) <= 1e-9 * (1.0 + frob(h_ref))


class TestShortGradingInverse:
    def test_sl_block_is_classical_pinv(self):
        rng = np.random.default_rng(30)
        alg = GradedAlgebra("sl", (3, 2))
        block = random_complex(rng, 3, 2)
        f = minimal_characteristic(alg, alg.element_from_block(1, 2, block), 1).f
        assert frob(alg.block_component(f, 2, 1) - classical.pinv(block)) < 1e-9

    @staticmethod
    def degree_one_elements(alg, rng):
        """Generic, rank-deficient and (in so(1, d, 1)) isotropic elements of g_1."""
        yield "generic", alg.random_element(1, rng)
        p, q = alg.blocks[:2]
        if len(alg.blocks) == 3:
            if q >= 2:
                # v = x + iy with x, y real, orthogonal and of equal length
                x, y = rng.standard_normal((2, q))
                y -= (x @ y) / (x @ x) * x
                y *= np.linalg.norm(x) / np.linalg.norm(y)
                yield "isotropic", alg.element_from_block(1, 2, (x + 1j * y).reshape(1, q))
            return
        if alg.kind == "sl":
            block = random_matrix_with_rank(rng, p, q, min(p, q) - 1)
        else:
            # a skew block has even rank: the only deficient skew 2 x 2 block is zero
            low = random_matrix_with_rank(rng, p, p, p - 1 if alg.kind == "sp" else (p - 1) // 2 * 2)
            block = low @ alg.block_component(alg.random_element(1, rng), 1, 2) @ low.T
        yield "deficient", alg.element_from_block(1, 2, block)

    @classmethod
    def cases(cls, alg, rng):
        """(label, degree, t, t e) for each nonzero element of both degrees at three scales."""
        for label, plus in cls.degree_one_elements(alg, rng):
            if not plus.any():  # a deficient block of a 1 x m or skew 2 x 2 grading is zero
                continue
            for degree, e in ((1, plus), (-1, plus.conj().T)):
                for t in (1e-150, 1.0, 1e150):
                    yield (label, degree, t), degree, t, t * e

    @pytest.mark.parametrize("kind,blocks", ALL_PAIRS)
    def test_engine_certifies_the_closed_form(self, kind, blocks):
        alg = GradedAlgebra(kind, blocks)
        for case, degree, t, e in self.cases(alg, np.random.default_rng(32)):
            res = minimal_characteristic(alg, e, degree)
            assert res.triple.passes() and res.is_hermitian, case
            ref = engine_characteristic(alg, e, degree)
            assert ref.triple.passes() and ref.is_hermitian, case
            assert frob(res.h - ref.h) <= 1e-9 * (1.0 + frob(ref.h)), case
            assert frob(t * (res.f - ref.f)) <= 1e-9 * (1.0 + frob(t * ref.f)), case
            assert res.hermitian_defect <= 1e-12 * (1.0 + frob(res.h)), case

    @pytest.mark.parametrize("kind,blocks", ALL_PAIRS)
    def test_engine_certifies_the_direction_space(self, kind, blocks):
        alg = GradedAlgebra(kind, blocks)
        n = alg.ambient_dim
        for case, degree, _, e in self.cases(alg, np.random.default_rng(33)):
            dirs = characteristic_direction_space(alg, minimal_characteristic(alg, e, degree))
            gram = np.einsum("iab,jab->ij", dirs.conj(), dirs)
            assert frob(gram - np.eye(len(dirs))) <= 1e-12, case
            oracle = engine_direction_space(alg, e, degree).reshape(-1, n * n)
            assert rank_decomposition(oracle.T, scale=1.0).rank == len(dirs), case
            joint = np.concatenate([dirs.reshape(-1, n * n), oracle])
            assert rank_decomposition(joint.T, scale=1.0).rank == len(dirs), case

    @pytest.mark.parametrize("kind,blocks", ALL_PAIRS)
    def test_g0_has_no_weight_two(self, kind, blocks):
        # ad(h) has weights -1, 0, 1 on g_0, and ad(e) kills the positive part, so the
        # direction space is the whole weight-1 part
        alg = GradedAlgebra(kind, blocks)
        basis = alg.basis(0)
        for case, degree, _, e in self.cases(alg, np.random.default_rng(34)):
            res = minimal_characteristic(alg, e, degree)
            h = res.h
            br_h = np.einsum("ab,kbc->kac", h, basis) - np.einsum("kab,bc->kac", basis, h)
            weights = np.linalg.eigvals(np.einsum("jab,kab->jk", basis.conj(), br_h))
            assert np.all(np.abs(weights - np.clip(np.rint(weights.real), -1, 1)) <= 1e-9), case
            assert annihilates_positive_part(alg, e, h), case
            dirs = characteristic_direction_space(alg, res)
            assert len(dirs) == np.sum(np.rint(weights.real) == 1), case

    def test_isotropic_vector(self):
        alg = GradedAlgebra("so", (1, 2, 1))
        e = alg.element_from_block(1, 2, np.array([[1.0, 1j]]))
        res = minimal_characteristic(alg, e, 1)
        assert res.triple.max_residual() <= 1e-12 and res.is_hermitian
        assert characteristic_direction_space(alg, res).shape[0] == 0
        expected = alg.element_from_block(2, 1, np.array([[0.5], [-0.5j]]))
        assert frob(res.f - expected) <= 1e-12

    def test_sp_symmetric_block(self):
        alg = GradedAlgebra("sp", (2, 2))
        w = np.diag([2.0, 0.0]).astype(complex)
        f = mp_inverse_short(alg, alg.element_from_block(1, 2, w))
        assert frob(alg.block_component(f, 2, 1) - np.diag([0.5, 0.0])) < 1e-10

    def test_so_skew_block(self):
        alg = GradedAlgebra("so", (2, 2))
        w = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        f = mp_inverse_short(alg, alg.element_from_block(1, 2, w))
        assert frob(alg.block_component(f, 2, 1) + w) < 1e-10

    def test_involutive(self):
        rng = np.random.default_rng(31)
        alg = GradedAlgebra("so", (1, 3, 1))
        e = alg.random_element(1, rng)
        f = mp_inverse_short(alg, e)
        assert frob(mp_inverse_short(alg, f) - e) <= 1e-8 * (1.0 + frob(e))

    def test_membership_is_judged_at_the_calls_tolerance(self):
        # membership is judged at the call's tolerance, not at a default held by the algebra
        alg = GradedAlgebra("sl", (2, 2))
        e = alg.random_element(1, np.random.default_rng(33)) + 1e-6 * np.eye(4)
        loose = Tolerance(residual_tol=1e-4)
        f = mp_inverse_short(alg, e, loose)
        assert frob(alg.block_component(f, 2, 1) - classical.pinv(e[:2, 2:])) < 1e-9
        with pytest.raises(NotInAlgebra):
            mp_inverse_short(alg, e)

    def test_rejects_long_gradings(self):
        alg = GradedAlgebra("sl", (1, 1, 1))
        with pytest.raises(NotShortGrading):
            mp_inverse_short(alg, alg.random_element(1, np.random.default_rng(0)))


class TestDirectionSpaceOracles:
    """characteristic_direction_space against its two oracles beyond the short gradings,
    and the engine's f against the joint lstsq f-recovery."""

    LONG = [("sl", (2, 2, 2)), ("sl", (3, 3, 3)), ("sl", (2, 3, 2)), ("sl", (1, 2, 2, 1)),
            ("sl", (2, 2, 2, 2)), ("so", (2, 3, 2)), ("so", (1, 2, 2, 1)), ("sp", (2, 2, 2)),
            ("sp", (1, 2, 1))]
    # (symmetry, dim V, dim U, a, b): the homform certificates of the graded-ladder
    # workload, whose embedded minimal characteristic is not Hermitian
    WITNESSES = [("symmetric", 4, 3, 2, 1), ("symmetric", 6, 4, 3, 1), ("symmetric", 8, 5, 4, 2),
                 ("skew", 6, 3, 3, 1), ("skew", 8, 5, 4, 2)]

    @staticmethod
    def assert_oracles_agree(alg, e, degree, case):
        """Same span as the completion kernel and as the centralizer oracle; orthonormal."""
        n = alg.ambient_dim
        res = minimal_characteristic(alg, e, degree)
        TestDirectionSpaceOracles.assert_f_agrees(res, alg._index_basis(-degree or None),
                                                  alg._index_basis(0 if degree else None), case)
        dirs = characteristic_direction_space(alg, res)
        gram = np.einsum("iab,jab->ij", dirs.conj(), dirs)
        assert frob(gram - np.eye(len(dirs))) <= 1e-12, case
        flat = dirs.reshape(-1, n * n)
        for oracle in (engine_direction_space(alg, e, degree),
                       centralizer_positive_directions(alg, res.e, res.h, degree)):
            oracle = oracle.reshape(-1, n * n)
            assert rank_decomposition(oracle.T, scale=1.0).rank == len(dirs), case
            joint = np.concatenate([flat, oracle])
            assert rank_decomposition(joint.T, scale=1.0).rank == len(dirs), case
        return len(dirs)

    @staticmethod
    def assert_f_agrees(res, neg, h_basis, case):
        """f lies in the span of ``neg`` and equals the lstsq f, whose own gap passes here."""
        assert frob(res.f - neg.combine(neg.coords(res.f))) <= 1e-12 * frob(res.f), case
        want, passed = lstsq_f(res, neg, h_basis)
        assert passed, case  # every element these tests draw is well conditioned
        assert frob(res.f - want) <= 1e-10 * frob(want), case

    @pytest.mark.parametrize("kind,blocks", LONG)
    def test_longer_gradings(self, kind, blocks):
        alg = GradedAlgebra(kind, blocks)
        rng = np.random.default_rng(35)
        found = 0
        for m in [d for d in alg.degrees if d]:
            index = alg._index_basis(m)
            for label in ("generic", "sparse"):
                v = random_complex(rng, index.count)
                if label == "sparse":  # a sum of a few basis elements, not generic
                    v[rng.permutation(index.count)[: index.count // 2 + 1]] = 0.0
                found += self.assert_oracles_agree(alg, index.combine(v), m, (m, label))
        assert found > 0

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_non_normal_nilpotents(self, n):
        alg = GradedAlgebra("sl", (n,))
        rng = np.random.default_rng(36 + n)
        found = 0
        for part in partitions(n):
            if part[0] == 1:
                continue
            for c in (1.0, 4.0):
                x = random_complex(rng, n, n)
                g = scipy.linalg.expm(c * x / frob(x))
                e = g @ jordan_nilpotent(part) @ np.linalg.inv(g)
                found += self.assert_oracles_agree(alg, e, 0, (part, c))
        assert found > 0

    @pytest.mark.parametrize("kind", ["sl", "so", "sp"])
    def test_ungraded_problem_on_two_blocks(self, kind):
        # e = exp(y) x exp(-y), x of degree 1 and y of degree -1: a nilpotent of no degree
        alg = GradedAlgebra(kind, (2, 2))
        rng = np.random.default_rng(37)
        for _ in range(3):
            x, y = alg.random_element(1, rng), alg.random_element(-1, rng)
            g = scipy.linalg.expm(y)
            self.assert_oracles_agree(alg, g @ x @ np.linalg.inv(g), 0, kind)
            self.assert_oracles_agree(alg, x, 0, kind)

    @pytest.mark.parametrize("symmetry,dim_v,dim_u,a,b", WITNESSES)
    def test_homform_witnesses(self, symmetry, dim_v, dim_u, a, b):
        form = standard_form(symmetry, dim_v)
        alg = embedding_algebra(form, dim_u)
        e = hom_element(alg, generic_orbit_map(form, a, b, dim_u))
        assert not minimal_characteristic(alg, e, 1).is_hermitian
        assert self.assert_oracles_agree(alg, e, 1, (symmetry, dim_v, a, b)) > 0


class TestOneSplit:
    """A result carries the one split of its h, made where h was made: the split, the
    direction space and the verdicts read off it are, bit for bit, those of a fresh
    _levels call on the same h, and the direction space spans what its oracles span."""

    @staticmethod
    def assert_one_split(alg, e, degree, case):
        n, blocks = alg.ambient_dim, alg.blocks if degree else (alg.ambient_dim,)
        res = minimal_characteristic(alg, e, degree)
        fresh = resplit(res, blocks)
        assert res.levels.blocks == blocks, case
        for carried, want in zip(res.levels[:3], fresh.levels[:3]):
            assert np.array_equal(carried, want), case
        dirs = characteristic_direction_space(alg, res)
        assert np.array_equal(dirs, characteristic_direction_space(alg, fresh)), case
        verdict = graded._annihilates_positive_part(alg, e, res.levels, DEFAULT_TOL)
        assert verdict == graded._annihilates_positive_part(alg, e, fresh.levels, DEFAULT_TOL)
        assert is_mp_element(alg, e, degree) == is_mp_element_resplit(alg, e, degree, blocks)
        for oracle in (engine_direction_space(alg, e, degree),
                       centralizer_positive_directions(alg, res.e, res.h, degree)):
            oracle = oracle.reshape(-1, n * n)
            joint = np.concatenate([dirs.reshape(-1, n * n), oracle])
            assert rank_decomposition(oracle.T, scale=1.0).rank == len(dirs), case
            assert rank_decomposition(joint.T, scale=1.0).rank == len(dirs), case

    @pytest.mark.parametrize("kind,blocks", ALL_PAIRS)
    def test_short_gradings(self, kind, blocks):
        # at three scales of e: h, and so its split, is the same at each
        alg = GradedAlgebra(kind, blocks)
        for case, degree, _, e in TestShortGradingInverse.cases(alg, np.random.default_rng(38)):
            self.assert_one_split(alg, e, degree, case)

    @pytest.mark.parametrize("kind,blocks", TestDirectionSpaceOracles.LONG)
    def test_longer_gradings(self, kind, blocks):
        alg = GradedAlgebra(kind, blocks)
        rng = np.random.default_rng(39)
        for m in [d for d in alg.degrees if d]:
            self.assert_one_split(alg, alg.random_element(m, rng), m, m)

    @pytest.mark.parametrize("kind,blocks", [("sl", (2, 2)), ("so", (2, 2)), ("sp", (2, 2)),
                                             ("sl", (1, 3))])
    def test_ungraded_problems_on_two_blocks(self, kind, blocks):
        # e = exp(y) x exp(-y), x of degree 1 and y of degree -1: a nilpotent of no degree
        alg = GradedAlgebra(kind, blocks)
        rng = np.random.default_rng(40)
        x, y = alg.random_element(1, rng), alg.random_element(-1, rng)
        g = scipy.linalg.expm(y)
        for case, e in (("conjugate", g @ x @ np.linalg.inv(g)), ("plain", x), ("zero", 0 * x)):
            self.assert_one_split(alg, e, 0, case)

    @pytest.mark.parametrize("part", [(4,), (3, 1), (2, 2), (2, 1, 1)])
    def test_non_normal_nilpotents(self, part):
        x = random_complex(np.random.default_rng(41), 4, 4)
        g = scipy.linalg.expm(2.0 * x / frob(x))
        e = g @ jordan_nilpotent(part) @ np.linalg.inv(g)
        self.assert_one_split(GradedAlgebra("sl", (4,)), e, 0, part)


class TestOrbits:
    def test_height_examples(self):
        alg = GradedAlgebra("sl", (3,))
        assert orbit_height(alg, np.zeros((3, 3))) == 0
        assert orbit_height(GradedAlgebra("sl", (2,)), E12) == 2
        assert orbit_height(alg, jordan_nilpotent((3,))) == 4

    def test_not_nilpotent(self):
        alg = GradedAlgebra("sl", (2,))
        with pytest.raises(NotNilpotent):
            orbit_height(alg, H2)

    @pytest.mark.parametrize("blocks, e", [((2,), [[0, 1], [-1, 0]]), ((1, 1), H2)])
    def test_so2_has_no_nonzero_nilpotent(self, blocks, e):
        # so(2) is abelian: ad(e) = 0 for every e, and only e = 0 is nilpotent
        alg = GradedAlgebra("so", blocks)
        for call in (orbit_height, is_mp_orbit, lambda a, x: minimal_characteristic(a, x, 0)):
            with pytest.raises(NotNilpotent):
                call(alg, np.array(e, dtype=complex))
        assert orbit_height(alg, np.zeros((2, 2))) == 0

    def test_zero_element_rejected(self):
        with pytest.raises(ZeroElement):
            is_mp_orbit(GradedAlgebra("sl", (2,)), np.zeros((2, 2)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_partition_heights_and_mp(self, n):
        alg = GradedAlgebra("sl", (n,))
        rng = np.random.default_rng(40 + n)
        for part in partitions(n):
            e = jordan_nilpotent(part)
            assert orbit_height(alg, e) == 2 * (part[0] - 1)
            if part[0] < 2:
                continue
            failures = 0
            for _ in range(10):
                # unitary-plus-unipotent conjugation
                upper = np.triu(random_complex(rng, n, n), 1) * 0.6
                g = compact_group_element(alg, rng) @ scipy.linalg.expm(upper)
                conj = g @ e @ np.linalg.inv(g)
                assert is_mp_orbit(alg, conj) == (part[0] == 2)
                res = minimal_characteristic(alg, conj, 0)
                if part[0] == 2:
                    assert res.is_hermitian
                elif not res.is_hermitian:
                    failures += 1
            if part[0] > 2:
                assert failures >= 1

    def test_non_mp_orbit_has_bad_conjugate(self):
        # height > 2: tilting e along a positive weight vector outside the
        # centralizer destroys every Hermitian characteristic
        alg = GradedAlgebra("sl", (3,))
        e = jordan_nilpotent((3,))
        xi = np.zeros((3, 3), dtype=complex)
        xi[0, 1] = 1.0  # ad(h)-weight 2, [e, xi] != 0
        u = scipy.linalg.expm(xi)
        moved = u @ e @ np.linalg.inv(u)
        res = minimal_characteristic(alg, moved, 0)
        assert not res.is_hermitian
        assert res.hermitian_defect > 1e-3

    def test_mp_orbit_every_conjugate_hermitian(self):
        alg = GradedAlgebra("sl", (4,))
        e = jordan_nilpotent((2, 2))
        rng = np.random.default_rng(41)
        for _ in range(5):
            u = compact_group_element(alg, rng)
            assert is_mp_element(alg, u @ e @ u.conj().T, 0)


class TestHeightsAreRanks:
    """orbit_height decides ranks of ad(e) on its nested images, not the decay of its powers:
    a non-unitary conjugate keeps its height, and a generic element is not nilpotent."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_gaussian_conjugates_of_every_partition(self, n):
        alg = GradedAlgebra("sl", (n,))
        rng = np.random.default_rng(1300)
        for part in partitions(n):
            g = random_complex(rng, n, n)
            e = g @ jordan_nilpotent(part) @ np.linalg.inv(g)
            assert orbit_height(alg, e) == 2 * (part[0] - 1), part

    # the conjugators of the graded-ladder benchmark's regular nilpotents in sl(8) and sl(10)
    @pytest.mark.parametrize("n, seed", [(8, 12), (10, 23)])
    def test_regular_nilpotent_under_gaussian_conjugation(self, n, seed):
        g = random_complex(np.random.default_rng(seed), n, n)
        e = g @ jordan_nilpotent((n,)) @ np.linalg.inv(g)
        assert orbit_height(GradedAlgebra("sl", (n,)), e) == 2 * (n - 1)

    @pytest.mark.parametrize("kind, blocks", [
        ("so", (1,) * 7), ("so", (1,) * 8), ("sp", (1,) * 6), ("sp", (1,) * 8),
        ("so", (2, 2, 2, 2)), ("sp", (2, 2, 2)), ("so", (2, 3, 2)), ("sp", (1, 2, 2, 1)),
    ])
    def test_group_conjugates_keep_the_unitary_height(self, kind, blocks):
        alg = GradedAlgebra(kind, blocks)
        rng = np.random.default_rng(1310)
        e = alg.random_element(1, rng)
        u = compact_group_element(alg, rng)
        x = alg.random_element(None, rng)
        g = scipy.linalg.expm(4.0 * x / frob(x))  # condition number 11 to 55
        assert orbit_height(alg, g @ e @ np.linalg.inv(g)) == orbit_height(alg, u @ e @ u.conj().T)

    @pytest.mark.parametrize("kind, n, top", [("sl", 6, 10), ("sp", 4, 6), ("sp", 8, 14),
                                              ("so", 5, 6), ("so", 6, 4), ("so", 7, 10),
                                              ("so", 8, 6)])
    def test_regular_nilpotents_reach_the_height_bound(self, kind, n, top):
        # a generic element of g_1 in the finest grading is regular
        alg = GradedAlgebra(kind, (1,) * n)
        assert orbit_height(alg, alg.random_element(1, np.random.default_rng(5))) == top

    def test_height_above_the_regular_nilpotent_is_a_numerical_failure(self):
        alg, e = ill_conditioned_sp8_conjugate()
        with pytest.raises(ArithmeticError, match="height above 14"):
            orbit_height(alg, e)
        with pytest.raises(ArithmeticError, match="height above 14"):
            is_mp_orbit(alg, e)

    # a generic element is semisimple
    @pytest.mark.parametrize("kind, blocks", [("sl", (6, 6)), ("sl", (8, 8)), ("so", (2, 3, 2)),
                                              ("sp", (3, 3))])
    def test_generic_elements_are_not_nilpotent(self, kind, blocks):
        alg = GradedAlgebra(kind, blocks)
        x = alg.random_element(None, np.random.default_rng(3))
        with pytest.raises(NotNilpotent):
            orbit_height(alg, x)
        with pytest.raises(NotNilpotent):
            is_mp_orbit(alg, x)
        with pytest.raises(NotNilpotent):
            minimal_characteristic(alg, x, 0)


SCALE_ALGEBRAS = [("sl", (4, 4)), ("sp", (3, 3)), ("so", (1, 6, 1)), ("sl", (3, 3, 3))]
SCALES = (1e-150, 1e-8, 1e150)


class TestScaleFree:
    @pytest.mark.parametrize("kind,blocks", SCALE_ALGEBRAS)
    def test_completion_and_height_do_not_depend_on_scale(self, kind, blocks):
        alg = GradedAlgebra(kind, blocks)
        rng = np.random.default_rng(60)
        x = alg.random_element(1, rng)
        x /= frob(x)
        ref = minimal_characteristic(alg, x, 1)
        height = orbit_height(alg, x)
        for t in SCALES:
            res = minimal_characteristic(alg, t * x, 1)
            assert res.triple.passes()
            assert frob(res.h - ref.h) <= 1e-9 * (1.0 + frob(ref.h))
            assert frob(t * res.f - ref.f) <= 1e-9 * (1.0 + frob(ref.f))
            assert orbit_height(alg, t * x) == height

    def test_criterion_does_not_depend_on_scale(self):
        # a conjugate of the regular nilpotent of sl3 that is not Moore-Penrose
        alg = GradedAlgebra("sl", (3,))
        xi = np.zeros((3, 3), dtype=complex)
        xi[0, 1] = 1.0
        u = scipy.linalg.expm(xi)
        moved = u @ jordan_nilpotent((3,)) @ np.linalg.inv(u)
        h = minimal_characteristic(alg, moved, 0).h
        for t in SCALES:
            assert not annihilates_positive_part(alg, t * moved, h)
            assert not is_mp_element(alg, t * moved, 0)
            assert orbit_height(alg, t * moved) == 4


# Short, two-step and three-step gradings, with and without so/sp middle blocks.
CRITERION_GRADINGS = [
    ("sl", (2, 3, 2)), ("sl", (3, 3)), ("sl", (2, 2, 2, 2)), ("sl", (1, 3, 2)), ("sl", (4, 4, 4)),
    ("so", (2, 3, 2)), ("so", (1, 4, 1)), ("so", (2, 2, 2, 2)), ("sp", (2, 2, 2)), ("sp", (3, 3)),
]


def criterion_elements(alg, rng, count):
    """(degree, e) for homogeneous e of each positive degree, every block of random nonzero rank.

    In so(2, 3, 2) the Levi conjugates of a map of rank 2 whose image carries
    a form of rank 1 are added: that orbit is not Moore-Penrose.
    """
    k = len(alg.blocks)
    for m in [d for d in alg.degrees if d > 0]:
        for _ in range(count):
            e = np.zeros((alg.ambient_dim,) * 2, dtype=complex)
            for i in range(1, k + 1 - m):
                p, q = alg.blocks[i - 1], alg.blocks[i - 1 + m]
                r = int(rng.integers(1, min(p, q) + 1))
                e[alg.block_slice(i), alg.block_slice(i + m)] = random_matrix_with_rank(rng, p, q, r)
            yield m, alg.project(e)
    if (alg.kind, alg.blocks) == ("so", (2, 3, 2)):
        e = alg.element_from_block(1, 2, np.array([[1.0, 1j, 0.0], [0.0, 0.0, 1.0]]))
        for _ in range(count):
            g = levi_group_element(alg, rng)
            yield 1, g @ e @ np.linalg.inv(g)


def criterion_triple(kind, blocks, seed):
    """(alg, e, h): a random element from criterion_elements and its minimal characteristic."""
    alg = GradedAlgebra(kind, blocks)
    elements = list(criterion_elements(alg, np.random.default_rng(seed), 2))
    m, e = elements[seed % len(elements)]
    return alg, e, minimal_characteristic(alg, e, m).h


class TestCriterion:
    def test_agrees_with_eig_oracle(self):
        rng = np.random.default_rng(53)
        verdicts = []
        for kind, blocks in CRITERION_GRADINGS:
            alg = GradedAlgebra(kind, blocks)
            for m, e in criterion_elements(alg, rng, 8):
                h = minimal_characteristic(alg, e, m).h
                got = annihilates_positive_part(alg, e, h)
                assert got == positive_part_annihilated_eig(alg, e, h), (kind, blocks, m)
                verdicts.append(got)
        assert len(verdicts) >= 100 and verdicts.count(False) >= 20

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_agrees_with_eig_oracle_where_so_and_gl_differ(self, n):
        # a b^T - b a^T, a isotropic and b a unit vector orthogonal to it, has Jordan type
        # (3, 1, ...): it is Moore-Penrose in so(n) but not in gl(n), so ad(e) kills the
        # positive part of so(n) only, not that of gl(n)
        alg = GradedAlgebra("so", (n,))
        a, b = np.zeros(n, dtype=complex), np.zeros(n)
        a[:2], b[2] = (1.0, 1j), 1.0
        rng = np.random.default_rng(n)
        for _ in range(3):
            g = compact_group_element(alg, rng)
            e = g @ (np.outer(a, b) - np.outer(b, a)) @ g.conj().T
            h = minimal_characteristic(alg, e, 0).h
            assert annihilates_positive_part(alg, e, h) and positive_part_annihilated_eig(alg, e, h)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(case=st.sampled_from(CRITERION_GRADINGS), seed=st.integers(0, 2**16),
           exponent=st.floats(-150.0, 150.0))
    def test_verdict_does_not_depend_on_scale(self, case, seed, exponent):
        alg, e, h = criterion_triple(*case, seed)
        want = annihilates_positive_part(alg, e, h)
        assert annihilates_positive_part(alg, 10.0**exponent * e, h) == want

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(case=st.sampled_from(CRITERION_GRADINGS), seed=st.integers(0, 2**16))
    def test_verdict_is_invariant_under_unitary_levi_conjugation(self, case, seed):
        alg, e, h = criterion_triple(*case, seed)
        g = compact_group_element(alg, np.random.default_rng(seed))
        want = annihilates_positive_part(alg, e, h)
        assert annihilates_positive_part(alg, g @ e @ g.conj().T, g @ h @ g.conj().T) == want

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(case=st.sampled_from(CRITERION_GRADINGS), seed=st.integers(0, 2**16),
           t=st.floats(0.55, 0.65))
    def test_non_characteristic_raises(self, case, seed, t):
        alg, e, h = criterion_triple(*case, seed)
        # t h has an eigenvalue strictly between two integers; e lies outside g_0
        for bad in (t * h, e):
            with pytest.raises(NotCharacteristic):
                annihilates_positive_part(alg, e, bad)

    def test_non_semisimple_degree_zero_h_raises(self):
        alg = GradedAlgebra("sl", (3,))
        e = jordan_nilpotent((3,))
        jordan = np.diag([1.0, 1.0, -2.0])
        jordan[0, 1] = 1.0
        for bad in (e, jordan):  # integer eigenvalues, but a Jordan block
            with pytest.raises(NotCharacteristic):
                annihilates_positive_part(alg, e, bad)

    def test_agrees_across_two_triples(self):
        # the raising-space criterion must not depend on the chosen triple
        rng = np.random.default_rng(50)
        alg = GradedAlgebra("sl", (1, 1, 1))
        for _ in range(10):
            e = alg.random_element(1, rng)
            res = minimal_characteristic(alg, e, 1)
            first = annihilates_positive_part(alg, e, res.h)
            directions = characteristic_direction_space(alg, res)
            h_other = res.h
            if directions.shape[0]:
                coef = random_complex(rng, directions.shape[0])
                h_other = res.h + np.einsum("k,kab->ab", coef, directions)
            assert annihilates_positive_part(alg, e, h_other) == first

    def test_borel_gradings_always_mp(self):
        rng = np.random.default_rng(51)
        for n in (2, 3, 4):
            alg = GradedAlgebra("sl", (1,) * n)
            for m in range(1, n):
                e = alg.random_element(m, rng)
                assert is_mp_element(alg, e, m)

    def test_random_agreement_on_parabolics(self):
        rng = np.random.default_rng(52)
        for blocks in [(1, 1, 1), (2, 1, 1), (1, 2, 1)]:
            alg = GradedAlgebra("sl", blocks)
            for m in [d for d in alg.degrees if d > 0]:
                for _ in range(5):
                    e = alg.random_element(m, rng)
                    res = minimal_characteristic(alg, e, m)
                    crit = annihilates_positive_part(alg, e, res.h)
                    assert crit == res.is_hermitian


class TestMultidegree:
    def test_unit_block(self):
        alg = GradedAlgebra("sl", (1, 1, 1))
        e = np.zeros((3, 3), dtype=complex)
        e[0, 2] = 1.0
        assert mp_check_multidegree(alg, 1, 3, e)

    def test_block_pinv(self):
        rng = np.random.default_rng(60)
        alg = GradedAlgebra("sl", (2, 1))
        block = random_complex(rng, 2, 1)
        e = alg.element_from_block(1, 2, block)
        res = multidegree_characteristic(alg, 1, 2, e)
        assert res.is_hermitian
        assert frob(alg.block_component(res.f, 2, 1) - classical.pinv(block)) < 1e-9

    def test_zero_element(self):
        alg = GradedAlgebra("sl", (2, 1))
        assert mp_check_multidegree(alg, 1, 2, np.zeros((3, 3)))

    @pytest.mark.parametrize("blocks", [b for k, b in TestDirectionSpaceOracles.LONG if k == "sl"])
    def test_f_agrees_with_the_lstsq_oracle(self, blocks):
        alg = GradedAlgebra("sl", blocks)
        rng = np.random.default_rng(62)
        for i in range(1, len(blocks) + 1):
            for j in [j for j in range(1, len(blocks) + 1) if j != i]:
                block = random_complex(rng, blocks[i - 1], blocks[j - 1])
                res = multidegree_characteristic(alg, i, j, alg.element_from_block(i, j, block))
                opposite = (alg._block_of[:, None] == j - 1) & (alg._block_of[None, :] == i - 1)
                neg = alg._unit_basis(np.flatnonzero(opposite))
                TestDirectionSpaceOracles.assert_f_agrees(res, neg, alg._index_basis(0), (i, j))

    def test_unsupported_block(self):
        alg = GradedAlgebra("sl", (1, 1, 1))
        e = np.zeros((3, 3), dtype=complex)
        e[0, 1] = 1.0
        e[1, 2] = 1.0
        with pytest.raises(UnsupportedBlock):
            mp_check_multidegree(alg, 1, 2, e)


class TestWeightPart:
    @staticmethod
    def conditioned(rng, d, cond):
        """A complex d x d matrix with singular values from 1 down to 1/cond (1 at d = 1)."""
        q1, q2 = (np.linalg.qr(random_complex(rng, d, d))[0] for _ in range(2))
        return q1 @ np.diag(np.logspace(0, -np.log10(cond), d)) @ q2

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(blocks=st.sampled_from([(5,), (2, 3), (3, 1, 2), (2, 2, 2, 2)]),
           seed=st.integers(0, 2**16))
    def test_parts_sum_to_x_and_carry_their_weight(self, blocks, seed):
        # a non-normal, block-diagonal h = V diag(levels) V^-1 with cond V = 1e2
        rng = np.random.default_rng(seed)
        v = scipy.linalg.block_diag(*(self.conditioned(rng, d, 1e2) for d in blocks))
        h = v @ np.diag(rng.integers(-3, 4, v.shape[0]).astype(float)) @ np.linalg.inv(v)
        split = graded._levels(h, blocks, DEFAULT_TOL)
        x = random_complex(rng, *h.shape)
        parts = {w: graded._weight_part(x, split, w) for w in range(-6, 7)}
        assert frob(sum(parts.values()) - x) <= 1e-12 * frob(x)
        for w, part in parts.items():
            assert frob(bracket(h, part) - w * part) <= 1e-12 * frob(h) * frob(x), w


class TestTwoSplitRoutes:
    """_levels splits an h that is Hermitian within the cut with one eigh per block, and any
    other h by the per-block SVD route, graded._svd_split(h, blocks), the oracle here.  Where
    both apply, they give the same levels and spectral projectors, the eigh gate is never
    below the SVD gate, and NotCharacteristic fires on the same inputs."""

    @staticmethod
    def sweep():
        """(case, h, blocks) for the characteristics of the one-split sweep and the zero element."""
        for kind, blocks in ALL_PAIRS:
            alg = GradedAlgebra(kind, blocks)
            for case, degree, _, e in TestShortGradingInverse.cases(alg, np.random.default_rng(38)):
                for res in (minimal_characteristic(alg, e, degree),
                            engine_characteristic(alg, e, degree)):
                    yield (kind, blocks, case), res.h, res.levels.blocks
        rng = np.random.default_rng(39)
        for kind, blocks in TestDirectionSpaceOracles.LONG:
            alg = GradedAlgebra(kind, blocks)
            for m in [d for d in alg.degrees if d]:
                res = minimal_characteristic(alg, alg.random_element(m, rng), m)
                yield (kind, blocks, m), res.h, blocks
        rng = np.random.default_rng(40)
        for kind, blocks in [("sl", (2, 2)), ("so", (2, 2)), ("sp", (2, 2)), ("sl", (1, 3))]:
            alg = GradedAlgebra(kind, blocks)
            x, y = alg.random_element(1, rng), alg.random_element(-1, rng)
            g = scipy.linalg.expm(y)
            for case, e in (("conjugate", g @ x @ np.linalg.inv(g)), ("plain", x), ("zero", 0 * x)):
                res = minimal_characteristic(alg, e, 0)
                yield (kind, blocks, case), res.h, res.levels.blocks
        x = random_complex(np.random.default_rng(41), 4, 4)
        g = scipy.linalg.expm(2.0 * x / frob(x))
        for part in [(4,), (3, 1), (2, 2), (2, 1, 1)]:
            e = g @ jordan_nilpotent(part) @ np.linalg.inv(g)
            yield part, minimal_characteristic(GradedAlgebra("sl", (4,)), e, 0).h, (4,)

    @staticmethod
    def near_integer(rng, blocks, offset, skew):
        """A block-diagonal h = H + S: H exactly Hermitian, its eigenvalues integers moved by
        ``offset`` x cut, and S anti-Hermitian of norm ``skew`` x cut, cut that of the
        integer spectrum.  Returns (h, cut)."""
        n = sum(blocks)
        levels = rng.integers(-3, 4, n).astype(float)
        cut = DEFAULT_TOL.residual_tol * (1.0 + np.linalg.norm(levels))
        w = levels + offset * cut * rng.choice([-1.0, 1.0], n)
        q = scipy.linalg.block_diag(*(np.linalg.qr(random_complex(rng, d, d))[0] for d in blocks))
        h = q @ np.diag(w) @ q.conj().T
        h = (h + h.conj().T) / 2.0  # exactly Hermitian: h == h* bit for bit
        s = scipy.linalg.block_diag(*(random_complex(rng, d, d) for d in blocks))
        s -= s.conj().T
        return h + skew * cut / frob(s) * s, cut

    @classmethod
    def random_cases(cls):
        rng = np.random.default_rng(42)
        for blocks in [(1,), (5,), (2, 3), (3, 1, 2), (4, 4), (2, 2, 2, 2)]:
            for offset in (0.0, 1e-12, 0.5, 2.0):
                for skew in (0.0, 0.2, 0.45):  # a defect |h - h*| of 0, 0.4 and 0.9 cut
                    for _ in range(3):
                        h, cut = cls.near_integer(rng, blocks, offset, skew)
                        yield (blocks, offset, skew), h, cut, blocks

    @staticmethod
    def projectors(split):
        """The spectral projector V (W* V)^-1 W* of each (block, level) of a split."""
        right, left, level, blocks = split
        block = np.repeat(np.arange(len(blocks)), blocks)
        out = {}
        for key in sorted(set(zip(block, level))):
            at = (block == key[0]) & (level == key[1])
            v, w = right[:, at], left[at, :]
            out[key] = v @ np.linalg.solve(w @ v, w)
        return out

    def assert_routes_agree(self, case, h, blocks, cut):
        """Check the two routes on h; return (whether h took the eigh route, whether it raised)."""
        defect = frob(h - h.conj().T)
        old, old_gap = graded._svd_split(h, blocks)
        try:
            got = graded._levels(h, blocks, DEFAULT_TOL)
        except NotCharacteristic:
            got = None
        assert (got is None) == (old_gap > cut), case
        if defect > cut:  # the SVD route splits h in _levels
            return False, got is None
        new, new_gap = graded._eigh_split(h, blocks, defect / 2.0)
        if got is not None:
            for a, b in zip(got[:3], new[:3]):
                assert np.array_equal(a, b), case
        assert new.blocks == old.blocks == tuple(blocks), case
        assert np.array_equal(new.level, old.level), case
        assert new_gap >= old_gap - 1e-15 * (1.0 + frob(h)), case
        if not defect:
            assert new_gap - old_gap <= 1e-12 * (1.0 + frob(h)), case
        if got is not None and defect <= 1e-12 * (1.0 + frob(h)):
            want = self.projectors(old)
            for key, p in self.projectors(new).items():
                assert frob(p - want[key]) <= 1e-12, (case, key)
        return True, got is None

    def test_sweep(self):
        routes = [self.assert_routes_agree(case, h, blocks,
                                           DEFAULT_TOL.residual_tol * (1.0 + frob(h)))
                  for case, h, blocks in self.sweep()]
        assert not any(raised for _, raised in routes)
        hermitian = sum(route for route, _ in routes)
        assert hermitian >= 300 and len(routes) - hermitian >= 2  # two non-normal h

    def test_near_integer_hermitian(self):
        for case, h, cut, blocks in self.random_cases():
            assert self.assert_routes_agree(case, h, blocks, cut) == (True, case[1] == 2.0), case

    @pytest.fixture
    def no_eigh(self, monkeypatch):
        def eigh(*args, **kwargs):
            raise AssertionError("eigh called on an h that is not Hermitian")
        monkeypatch.setattr(np.linalg, "eigh", eigh)

    @pytest.mark.parametrize("symmetry,dim_v,dim_u,a,b", TestDirectionSpaceOracles.WITNESSES)
    def test_homform_certificate_takes_the_svd_route(self, no_eigh, symmetry, dim_v, dim_u, a, b):
        form = standard_form(symmetry, dim_v)
        alg = embedding_algebra(form, dim_u)
        res = minimal_characteristic(alg, hom_element(alg, generic_orbit_map(form, a, b, dim_u)), 1)
        assert not res.is_hermitian
        split = graded._levels(res.h, alg.blocks, DEFAULT_TOL)
        for got, want in zip(split, res.levels):
            assert np.array_equal(got, want)

    def test_non_normal_block_takes_the_svd_route(self, no_eigh):
        # h = V diag(levels) V^-1 with cond V = 1e2: an integer spectrum, far from Hermitian
        rng = np.random.default_rng(43)
        v = scipy.linalg.block_diag(*(TestWeightPart.conditioned(rng, d, 1e2) for d in (3, 4)))
        h = v @ np.diag([2.0, 0.0, 0.0, -1.0, 1.0, 1.0, -2.0]) @ np.linalg.inv(v)
        assert np.array_equal(graded._levels(h, (3, 4), DEFAULT_TOL).level,
                              [0.0, 0.0, 2.0, -2.0, -1.0, 1.0, 1.0])

    @pytest.mark.parametrize("skew", [0.55, 1.0, 2.5])  # a defect of 1.1, 2 and 5 cut
    def test_just_outside_the_cut_takes_the_svd_route(self, no_eigh, skew):
        for blocks in [(5,), (2, 3), (4, 4)]:
            h = self.near_integer(np.random.default_rng(44), blocks, 0.0, skew)[0]
            cut = DEFAULT_TOL.residual_tol * (1.0 + frob(h))
            assert frob(h - h.conj().T) > cut
            old, gap = graded._svd_split(h, blocks)
            if gap > cut:
                with pytest.raises(NotCharacteristic):
                    graded._levels(h, blocks, DEFAULT_TOL)
            else:
                assert np.array_equal(graded._levels(h, blocks, DEFAULT_TOL).level, old.level)


class TestUngradedProblemOnGradedAlgebras:
    """Degree 0 asks for the ungraded problem: h is split on all of g, whatever the grading."""

    @pytest.mark.parametrize("blocks", [(3,), (1, 2), (1, 1, 1)])
    def test_is_mp_element_takes_the_ungraded_verdict(self, blocks):
        # a non-normal regular nilpotent, whose h is not block diagonal on (1, 2) or (1, 1, 1)
        u = scipy.linalg.expm(jordan_nilpotent((2, 1)))  # expm(E_12)
        e = u @ jordan_nilpotent((3,)) @ np.linalg.inv(u)
        alg = GradedAlgebra("sl", blocks)
        assert minimal_characteristic(alg, e, 0).levels.blocks == (3,)
        assert not is_mp_element(alg, e, 0)


class TestSl2TripleType:
    def test_zero_triple_legal(self):
        z = np.zeros((2, 2))
        t = Sl2Triple.from_elements(z, z, z)
        assert t.max_residual() == 0.0 and t.passes()

    def test_residuals_detect_failure(self):
        t = Sl2Triple.from_elements(E12, H2, 2.0 * E21)
        assert not t.passes()

    def test_nan_residual_fails(self):
        z = np.zeros((2, 2))
        assert not Sl2Triple(z, z, z, (0.0, np.nan, 0.0)).passes()

    @pytest.mark.parametrize("t", [1e-300, 1.0, 1e300, 1e308])
    def test_residuals_are_scale_free(self, t):
        # [h, e] - 2e overflows at 1e308 unless e is brought to unit scale first
        triple = Sl2Triple.from_elements(t * E12, H2, E21 / t)
        assert triple.passes() and triple.max_residual() <= 1e-15
