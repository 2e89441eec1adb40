import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from liepinv import classical, complexes, forms, graded, numcore
from liepinv.errors import (
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
from liepinv.graded import (
    GradedAlgebra,
    Sl2Triple,
    annihilates_positive_part,
    bracket,
    characteristic_direction_space,
    is_mp_element,
    is_mp_orbit,
    minimal_characteristic,
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
    engine_system,
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
    random_unitary,
    resplit,
    solve_least_squares_constrained,
    split_form,
    stack_ad,
    standard_form,
    svd_graded_basis,
    whole_algebra_height,
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


class TestSharedRecord:
    """What depends on (kind, blocks) alone is built once per process and shared read-only."""

    def test_tables_are_built_once_per_algebra(self, monkeypatch):
        monkeypatch.setattr(graded, "_RECORDS", {})
        built, build = [], GradedAlgebra._build_basis
        monkeypatch.setattr(GradedAlgebra, "_build_basis",
                            lambda self: built.append((self.kind, self.blocks)) or build(self))
        first = GradedAlgebra("sp", (3, 4, 3))
        again = [GradedAlgebra("SP", [3, 4, 3]), GradedAlgebra("sp", (3.0, 4, 3))]
        GradedAlgebra("so", (3, 4, 3))
        assert built == [("sp", (3, 4, 3)), ("so", (3, 4, 3))]
        for alg in again:
            assert alg._record is first._record and alg._units is first._units
            assert (alg.dim, alg.degrees) == (first.dim, first.degrees)
        for _ in range(2):  # a record never replaces the checks of the arguments
            with pytest.raises(ValueError, match="even-sized middle block"):
                GradedAlgebra("sp", (3, 3, 3))
        assert set(graded._RECORDS) == {("sp", (3, 4, 3)), ("so", (3, 4, 3))}

    def test_racing_threads_keep_one_record_and_one_basis(self, monkeypatch):
        threads, interval = 4, sys.getswitchinterval()

        def build(barrier):
            barrier.wait()
            alg = GradedAlgebra("sp", (2, 3, 3, 2))
            return alg._record, alg._index_basis(1)

        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                monkeypatch.setattr(graded, "_RECORDS", {})
                barrier = threading.Barrier(threads, timeout=30)
                with ThreadPoolExecutor(threads) as pool:
                    futures = [pool.submit(build, barrier) for _ in range(threads)]
                    results = [future.result(timeout=30) for future in futures]
                assert {id(record) for record, _ in results} == {id(graded._RECORDS["sp", (2, 3, 3, 2)])}
                assert len({id(basis) for _, basis in results}) == 1
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("kind,blocks", [("sl", (2, 3)), ("sp", (2, 2, 2)), ("so", (1, 3, 1))])
    def test_instances_share_bases_and_hold_only_their_own(self, kind, blocks):
        first, second = GradedAlgebra(kind, blocks), GradedAlgebra(kind, blocks)
        got = {m: first._index_basis(m) for m in (None, 0, 1)}
        assert second._bases == {}
        assert second._index_basis(1) is got[1]
        assert set(second._bases) == {1}
        assert second._index_basis(None) is got[None] and second._index_basis(-1) is first._index_basis(-1)
        assert set(second._bases) == {None, 1, -1} and set(first._bases) == {None, 0, 1, -1}
        assert first._index_basis(len(blocks)) is not second._index_basis(len(blocks))  # no degree

    @pytest.mark.parametrize("kind,blocks", [("sl", (2, 3)), ("sp", (1, 2, 1)), ("so", (2, 2))])
    def test_shared_arrays_are_read_only(self, kind, blocks):
        alg = GradedAlgebra(kind, blocks)
        arrays = [v for v in alg._record.tables.values() if isinstance(v, np.ndarray)]
        for m in (None, *alg.degrees):
            basis = alg._index_basis(m)
            arrays += [basis.pos, basis.partner, basis.weight, basis.pweight, basis.cartan,
                       *(a for scatter in basis.scatters for a in scatter)]
        assert len(arrays) > 20
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        copy = alg.basis(1)
        copy[...] = 7.0  # basis() builds a fresh, writable stack
        assert np.array_equal(alg.basis(1), alg._index_basis(1).dense())
        assert not np.array_equal(alg.basis(1), copy)


class TestAdTable:
    """ad(x) on an index basis, one gather through a table, against the bracket stack."""

    @staticmethod
    def assert_matches_stack(basis, x):
        assert frob(basis.ad(x) - stack_ad(basis, x)) <= 1e-13 * frob(x)

    @pytest.mark.parametrize("kind,blocks", BASIS_GRADINGS)
    def test_every_degree_and_the_whole_algebra(self, kind, blocks):
        rng = np.random.default_rng(10)
        alg, k = GradedAlgebra(kind, blocks), len(blocks)
        n = alg.ambient_dim
        for m in (None, *range(1 - k, k)):
            basis = alg._index_basis(m)
            assert basis.ad(np.zeros((n, n), dtype=complex)).shape == (basis.count, basis.count)
            for x in (random_complex(rng, n, n), alg.random_element(None, rng)):
                self.assert_matches_stack(basis, x)

    def test_multidegree_unit_basis(self):
        rng = np.random.default_rng(11)
        alg = GradedAlgebra("sl", (2, 3, 2))
        block = (alg._block_of[:, None] == 2) & (alg._block_of[None, :] == 0)  # block (3, 1)
        basis = alg._unit_basis(np.flatnonzero(block))
        assert basis.count == 4
        for x in (random_complex(rng, 7, 7), alg.random_element(2, rng)):
            self.assert_matches_stack(basis, x)

    @pytest.mark.parametrize("kind,blocks", [("so", (2,)), ("sl", (1,)), ("so", (1, 1))])
    def test_smallest_algebras(self, kind, blocks):
        rng = np.random.default_rng(12)
        alg = GradedAlgebra(kind, blocks)
        n = alg.ambient_dim
        for m in (None, *alg.degrees):
            self.assert_matches_stack(alg._index_basis(m), random_complex(rng, n, n))
        assert alg.ad(np.eye(n)).shape == (alg.dim, alg.dim)

    @pytest.mark.parametrize("kind,blocks", [("sl", (2, 3)), ("sp", (1, 2, 1)), ("so", (1, 3, 1))])
    def test_table_is_shared_and_read_only(self, kind, blocks):
        first, second = GradedAlgebra(kind, blocks), GradedAlgebra(kind, blocks)
        for m in (None, 1, 0):
            table = first._index_basis(m).table
            assert second._index_basis(m).table is table
            for a in table:
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0


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
                tx = -x.conj().T  # theta, the conjugation fixing the compact form
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

    @pytest.mark.parametrize("kind,blocks", BASIS_GRADINGS)
    def test_membership_residual_is_the_distance_to_the_projection(self, kind, blocks):
        # sl: |tr x| / sqrt(n); so/sp: |x - tau(x)| / 2, without forming the projection
        rng = np.random.default_rng(9)
        alg = GradedAlgebra(kind, blocks)
        n = alg.ambient_dim
        for x in (*(random_complex(rng, n, n) for _ in range(3)), alg.random_element(None, rng)):
            want = frob(x - alg._project(x))
            assert abs(alg.membership_residual(x) - want) <= 1e-15 * (1.0 + frob(x))
            assert abs(alg._outside(x) - want) <= 1e-15 * (1.0 + frob(x))

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
    """orbit_height decides the ranks of e on the nested images of its powers, not the decay
    of powers: a non-unitary conjugate keeps its height, and a generic element is not
    nilpotent."""

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

    def test_the_ill_conditioned_sp8_conjugate_has_the_regular_height(self):
        # its e is not homogeneous, so the Jordan type of e decides its height
        alg, e = ill_conditioned_sp8_conjugate()
        assert orbit_height(alg, e) == 14
        assert not is_mp_orbit(alg, e)

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


# Gradings for the heights of homogeneous elements: several lengths and block sizes,
# finest gradings, and so/sp with and without a middle block.
HEIGHT_GRADINGS = [
    ("sl", (3, 3, 3)), ("sl", (4, 4, 4)), ("sl", (2, 3, 2, 3)), ("sl", (1,) * 6),
    ("sp", (2, 2, 2)), ("sp", (1,) * 6), ("so", (2, 3, 2)), ("so", (1,) * 7),
    ("sl", (5, 5)), ("sp", (3, 3)),
]


def outcome(call):
    """The height a call returns, or the class and message of what it raises."""
    try:
        return call()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def regular_height(alg):
    """The height of the regular nilpotent: 2n - 2 for sl_n and sp_n, 2n - 4 for so_n with
    n odd and 2n - 6 with n even."""
    n = alg.ambient_dim
    return 2 * n - 2 if alg.kind != "so" else 2 * n - (4 if n % 2 else 6)


def exact_degree(alg, x):
    """The one degree of the nonzero entries of x, None if they have several (or none)."""
    degrees = np.unique(alg._entry_degree[np.flatnonzero(x)])
    return int(degrees[0]) - (len(alg.blocks) - 1) if degrees.size == 1 else None


def degree_zero_nilpotent(alg, rng, entries=None):
    """A nilpotent of g_0, unitarily conjugated: strictly upper triangular diagonal blocks
    (for so/sp, those before their mirror), random in their first ``entries`` positions
    (all for None) and made a member by the projection, which fills the mirror blocks."""
    block, k = alg._block_of, len(alg.blocks)
    keep = (block[:, None] == block) & np.triu(np.ones((alg.ambient_dim,) * 2, bool), 1)
    if alg.kind != "sl":
        keep &= (block < k - 1 - block)[:, None]
    if entries is not None:
        keep.flat[np.flatnonzero(keep)[entries:]] = False
    u = compact_group_element(alg, rng)
    return u @ alg.project(np.where(keep, random_complex(rng, *keep.shape), 0.0)) @ u.conj().T


def homogeneous_elements(alg, rng):
    """(degree, e) for e of each degree +-1, +-2, dense and with about half its coordinates
    zero, for a nilpotent of degree 0 and for the zero element (degree None)."""
    for m in (1, -1, 2, -2):
        if alg.degree_dimension(m):
            basis = alg._index_basis(m)
            sparse = basis.combine(random_complex(rng, basis.count) * (rng.random(basis.count) < 0.5))
            yield m, alg.random_element(m, rng)
            yield (m if sparse.any() else None), sparse
    nilpotent = degree_zero_nilpotent(alg, rng)
    yield (0 if nilpotent.any() else None), nilpotent
    yield None, np.zeros((alg.ambient_dim,) * 2, dtype=complex)


class TestEngineSolve:
    """The engine's two-step solve gives the h of the general constrained least-squares
    solver on the engine's own system, and each of its gates raises NoTriple."""

    @pytest.mark.parametrize("kind, blocks", HEIGHT_GRADINGS)
    def test_h_is_that_of_the_least_squares_oracle(self, kind, blocks):
        alg = GradedAlgebra(kind, blocks)
        for degree, e in homogeneous_elements(alg, np.random.default_rng(3100)):
            if degree is None:
                continue
            m, c, d, br_e = engine_system(alg, e, degree)
            want = np.tensordot(solve_least_squares_constrained(m, np.zeros(len(m)), c, d), br_e, 1)
            # the engine, also in short gradings, where minimal_characteristic takes the closed form
            res = engine_characteristic(alg, e, degree) if degree else minimal_characteristic(alg, e, 0)
            assert frob(res.h - want) <= 1e-12 * (1.0 + frob(want)), degree

    @pytest.mark.parametrize("gate, message", [
        ("constraints", "inconsistent"), ("optimality", "optimality"), ("svd", "did not converge")])
    def test_each_gate_raises_no_triple(self, monkeypatch, gate, message):
        # the regular nilpotent of sl_4 under a non-unitary conjugation: its
        # characteristics form a 3-dimensional affine space, and the least-norm y on the
        # constraints is not the least |h|
        alg, g = GradedAlgebra("sl", (4,)), random_complex(np.random.default_rng(3101), 4, 4)
        e = alg._unit_member(g @ jordan_nilpotent((4,)) @ np.linalg.inv(g), DEFAULT_TOL)[1]
        neg = res = alg._index_basis()
        pinv, calls = numcore._pinv, []

        def broken(a, *args):  # an SVD that does not converge, or no second step
            if gate == "svd":
                raise np.linalg.LinAlgError("SVD did not converge")
            calls.append(a)
            a_plus, dec = pinv(a, *args)
            return (0.0 * a_plus if len(calls) == 2 else a_plus), dec

        if gate == "constraints":  # no multiple y of one unit matrix has [[e, y], e] = 2e
            neg = alg._unit_basis(alg._units[:1])
        else:
            monkeypatch.setattr(graded, "_pinv", broken)
        with pytest.raises(NoTriple, match=message):
            graded._minimal_triple(e, neg, res, res, (4,), DEFAULT_TOL)


class TestHeightsByDegree:
    """Graded elements, homogeneous of each degree or not, take the Jordan type of e: on a
    unitary conjugate the heights are those of the whole of ad(e), and under Levi conjugates
    and across the blocks they stay true where the whole of ad(e) loses them."""

    @pytest.mark.parametrize("kind, blocks", HEIGHT_GRADINGS)
    def test_homogeneous_heights_equal_the_whole_algebra_ranks(self, kind, blocks):
        alg = GradedAlgebra(kind, blocks)
        rng = np.random.default_rng(2600)
        for degree, e in homogeneous_elements(alg, rng):
            assert exact_degree(alg, e) == degree
            assert orbit_height(alg, e) == whole_algebra_height(alg, e), degree

    @pytest.mark.parametrize("kind, blocks", HEIGHT_GRADINGS)
    def test_other_elements_take_the_jordan_type(self, kind, blocks):
        alg = GradedAlgebra(kind, blocks)
        rng = np.random.default_rng(2601)
        generic = alg.random_element(None, rng)
        # block upper triangular with nilpotent diagonal blocks, unitarily conjugated:
        # nilpotent, of several degrees
        upper = alg.random_element(1, rng)
        if alg.degree_dimension(2):
            upper += alg.random_element(2, rng)
        nilpotent = degree_zero_nilpotent(alg, rng, 1) + upper
        full = degree_zero_nilpotent(alg, rng) + upper
        mixed = alg.random_element(1, rng) + alg.random_element(-1, rng)
        for e in (generic, nilpotent, full, mixed):
            assert exact_degree(alg, e) is None
        for e in (generic, mixed):  # semisimple
            with pytest.raises(NotNilpotent):
                orbit_height(alg, e)
        assert orbit_height(alg, nilpotent) == whole_algebra_height(alg, nilpotent) > 0
        # in sl, and in a finest grading, every simple root entry of the full one is random:
        # it is regular; the whole-algebra ranks lose that height on sl(5, 5), sl(3, 3, 3),
        # sl(4, 4, 4) and sl(2, 3, 2, 3)
        if kind == "sl" or max(blocks) == 1:
            assert orbit_height(alg, full) == regular_height(alg)
        else:
            assert orbit_height(alg, full) == whole_algebra_height(alg, full)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_ungraded_heights_are_the_jordan_type(self, n):
        alg = GradedAlgebra("sl", (n,))
        rng = np.random.default_rng(2602)
        for part in partitions(n):
            g, u = random_complex(rng, n, n), random_unitary(rng, n)
            e = g @ jordan_nilpotent(part) @ np.linalg.inv(g)
            assert orbit_height(alg, e) == 2 * (part[0] - 1)
            e = u @ jordan_nilpotent(part) @ u.conj().T
            assert orbit_height(alg, e) == whole_algebra_height(alg, e) == 2 * (part[0] - 1)
        with pytest.raises(NotNilpotent):
            orbit_height(alg, alg.random_element(None, rng))

    def test_the_ill_conditioned_conjugate_reads_its_true_height(self):
        # the whole-algebra ranks of ad(e) read a height above any nilpotent of sp_8 has
        alg, e = ill_conditioned_sp8_conjugate()
        assert exact_degree(alg, e) is None
        assert orbit_height(alg, e) == 14
        with pytest.raises(ArithmeticError, match="height above 14"):
            whole_algebra_height(alg, e)

    @pytest.mark.parametrize("blocks", [(4, 4), (5, 5), (3, 3, 3), (4, 4, 4)])
    def test_jordan_nilpotents_across_the_blocks(self, blocks):
        # a Jordan block that crosses a block boundary has entries of degree 0 and 1; on
        # these Levi conjugates (cond g up to 265) the whole-algebra ranks of ad(e) get 30
        # of the 369 heights wrong: NotNilpotent, too high, too low or LinAlgError
        alg = GradedAlgebra("sl", blocks)
        n, x = alg.ambient_dim, alg.random_element(0, np.random.default_rng(2604))
        crossing = [p for p in partitions(n) if exact_degree(alg, jordan_nilpotent(p)) is None]
        assert len(crossing) > 10
        for s in (2.0, 5.0, 8.0):
            g = scipy.linalg.expm(s * x / frob(x))
            for part in crossing:
                e = g @ jordan_nilpotent(part) @ np.linalg.inv(g)
                assert orbit_height(alg, e) == 2 * (part[0] - 1), (s, part)
        for part in crossing[::3]:  # the degree-0 problem checks nilpotency by the height
            e = g @ jordan_nilpotent(part) @ np.linalg.inv(g)
            try:
                minimal_characteristic(alg, e, 0)
            except NoTriple:  # a numerical failure (exit 2), not a verdict on the input
                pass

    @pytest.mark.parametrize("kind, blocks", HEIGHT_GRADINGS)
    @pytest.mark.parametrize("seeds, degrees, scales, every", [
        (range(6), (1,), (0.5, 2.0, 4.0, 6.0, 8.0), False),
        # the reach floor: every height right up to s = 12 (median cond g 3.8e3)
        (range(10), (1, 2), (2.0, 4.0, 8.0, 12.0), True),
    ], ids=["where-the-oracle-is-right", "reach-floor"])
    def test_levi_conjugates_keep_every_height_the_whole_algebra_gets_right(
            self, kind, blocks, seeds, degrees, scales, every):
        # g = exp(s x / |x|_F) for x of degree 0 preserves the grading, and g e g^-1 keeps
        # exact zeros off the degree of e; the whole-algebra ranks lose some of these heights
        alg = GradedAlgebra(kind, blocks)
        for seed in seeds:
            for degree in filter(alg.degree_dimension, degrees):
                rng = np.random.default_rng(seed)
                e = alg.random_element(degree, rng)
                height, x = orbit_height(alg, e), alg.random_element(0, rng)
                assert height == whole_algebra_height(alg, e) > 0, (seed, degree)
                for s in scales:
                    g = scipy.linalg.expm(s * x / frob(x))
                    moved = g @ e @ np.linalg.inv(g)
                    assert exact_degree(alg, moved) == degree
                    if every or outcome(lambda: whole_algebra_height(alg, moved)) == height:
                        assert outcome(lambda: orbit_height(alg, moved)) == height, (seed, s)


def power_ranks(part):
    """[rank e^0, rank e^1, ..., 0] for e of Jordan type ``part``."""
    return [sum(max(p - k, 0) for p in part) for k in range(part[0] + 1)]


def weight_height(kind, part):
    """The top ad(h)-weight on kind_n for h of the Jordan type ``part``: a part p carries the
    h-weights p - 1, p - 3, ..., 1 - p, and sl_n, sp_n = S^2(C^n) and so_n = L^2(C^n) have the
    weights w_i - w_j, w_i + w_j (i <= j) and w_i + w_j (i < j)."""
    w = np.concatenate([np.arange(p - 1, -p, -2) for p in part])
    if kind == "sl":
        return int(w.max() - w.min())
    pair = w[:, None] + w[None, :]
    return int(pair[np.triu_indices(len(w), 1 if kind == "so" else 0)].max(initial=0))


def is_jordan_type(kind, part):
    """Whether kind_n holds a nilpotent of Jordan type ``part``: in sp every odd part, in so
    every even part, occurs an even number of times."""
    parity = {"sl": None, "sp": 1, "so": 0}[kind]
    return all(part.count(p) % 2 == 0 for p in set(part) if p % 2 == parity)


# partitions of 12 whose conjugates the whole-algebra ranks of ad(e) misread
TWELVE = [(4, 4, 2, 1, 1), (3, 3, 3, 3), (5, 3, 2, 1, 1), (2, 2, 2, 2, 2, 2), (6, 5, 1)]


# (kind, blocks, m) for a random element of degree m = 1, 2, or a nilpotent of degree 0
HOMOGENEOUS_SCALE_CASES = [(kind, blocks, m) for kind, blocks in
                           [("sl", (3, 3, 3)), ("sp", (2, 2, 2)), ("so", (2, 3, 2))] for m in (1, 2, 0)]


class TestHeightsFromTheJordanType:
    """Every e is ranked on C^n, whatever its degrees: the ranks of its powers give its
    Jordan type, and the type gives the height.  No ad(e) is formed, and no ranked matrix
    is wider than n."""

    @pytest.mark.parametrize("kind", ["sl", "sp", "so"])
    def test_the_height_of_every_jordan_type(self, kind):
        seen = 0
        for n in range(1, 13):
            for part in partitions(n):
                ranks = power_ranks(part)
                if is_jordan_type(kind, part):  # for sp, no partition of an odd n is
                    assert graded._jordan_height(kind, ranks) == weight_height(kind, part), part
                    seen += 1
                elif kind != "sl":
                    with pytest.raises(ArithmeticError, match="Jordan type of no nilpotent"):
                        graded._jordan_height(kind, ranks)
        assert seen > 50

    @pytest.mark.parametrize("kind, ranks", [("sl", [4, 3, 1, 0]), ("sp", [4, 3, 1, 0]),
                                             ("so", [5, 4, 2, 1, 0]), ("sl", [3, 2, 0])])
    def test_ranks_that_are_no_partition(self, kind, ranks):
        # the rank drops r_(k-1) - r_k must not grow: here one drop is larger than the last
        with pytest.raises(ArithmeticError, match="Jordan type of no nilpotent"):
            graded._jordan_height(kind, ranks)

    @pytest.mark.parametrize("kappa", [1.0, 10.0, 1e2, 1e3])
    def test_reach_of_every_small_partition(self, kappa):
        # g = U diag(logspace(0, log10 kappa, n)) V with Haar U and V: cond g = kappa
        for part in [p for n in range(1, 9) for p in partitions(n)] + TWELVE:
            n = sum(part)
            alg, rng = GradedAlgebra("sl", (n,)), np.random.default_rng(2800 + n)
            for draw in range(5):
                g = random_unitary(rng, n) * np.logspace(0, np.log10(kappa), n)
                g = g @ random_unitary(rng, n)
                e = g @ jordan_nilpotent(part) @ np.linalg.inv(g)
                assert orbit_height(alg, e) == 2 * (part[0] - 1), (part, draw)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(case=st.one_of(st.sampled_from([p for n in range(2, 9) for p in partitions(n)] + TWELVE),
                          st.sampled_from(HOMOGENEOUS_SCALE_CASES)),
           seed=st.integers(0, 2**16), exponent=st.floats(-150.0, 150.0))
    def test_heights_do_not_depend_on_scale(self, case, seed, exponent):
        rng = np.random.default_rng(seed)
        if isinstance(case[0], str):  # homogeneous of degree m in a grading
            kind, blocks, m = case
            alg = GradedAlgebra(kind, blocks)
            e = alg.random_element(m, rng) if m else degree_zero_nilpotent(alg, rng)
            height = whole_algebra_height(alg, e)
        else:  # ungraded: a Gaussian conjugate of the Jordan type ``case``
            n = sum(case)
            g = random_complex(rng, n, n)
            alg, e = GradedAlgebra("sl", (n,)), g @ jordan_nilpotent(case) @ np.linalg.inv(g)
            height = 2 * (case[0] - 1)
        assert orbit_height(alg, 10.0**exponent * e) == orbit_height(alg, e) == height

    @pytest.mark.parametrize("kind, blocks", [("sl", (10,)), ("sp", (8,)), ("so", (9,)),
                                              ("sl", (10, 10)), ("sl", (4, 4, 4)), ("sp", (3, 3)),
                                              ("so", (2, 3, 2))])
    def test_no_ad_and_nothing_wider_than_n(self, monkeypatch, kind, blocks):
        alg = GradedAlgebra(kind, blocks)
        n, rng = alg.ambient_dim, np.random.default_rng(2605)
        g = scipy.linalg.expm(alg.project(random_complex(rng, n, n)) / n)
        if len(blocks) > 1:  # homogeneous of degrees 1, 2 and 0, and nilpotent of several
            elements = [alg.random_element(m, rng) for m in (1, 2) if alg.degree_dimension(m)]
            elements += [degree_zero_nilpotent(alg, rng),
                         degree_zero_nilpotent(alg, rng, 1) + alg.random_element(1, rng)]
            # in sl the degree-0 nilpotent is regular in each block: the whole-algebra ranks
            # lose its height, 18, on sl(10, 10)
            heights = [2 * max(blocks) - 2 if kind == "sl" and exact_degree(alg, e) == 0
                       else whole_algebra_height(alg, e) for e in elements]
        elif kind == "sl":
            elements, heights = [g @ jordan_nilpotent((n,)) @ np.linalg.inv(g)], [18]
        else:  # square zero: x^T J + J x = 0 for J = I (so) and for J = [[0, I], [-I, 0]] (sp)
            a, b = np.eye(n)[0] + 1j * np.eye(n)[1], np.eye(n)[2]
            x = np.outer(a, b) - np.outer(b, a) if kind == "so" else np.eye(n, k=n // 2)
            elements, heights = [g @ x @ np.linalg.inv(g)], [2]
        generic = alg.project(random_complex(rng, n, n))
        monkeypatch.setattr(graded, "_RECORDS", {})  # a fresh algebra
        alg = GradedAlgebra(kind, blocks)
        shapes, rank, calls, ad = [], numcore._rank_decomposition, [], GradedAlgebra.ad

        def spy(a, *args):
            shapes.append(a.shape)
            return rank(a, *args)

        def ad_spy(self, x):
            calls.append(x)
            return ad(self, x)

        for module in (numcore, graded):  # the public route as well as the private one
            monkeypatch.setattr(module, "_rank_decomposition", spy)
        monkeypatch.setattr(GradedAlgebra, "ad", ad_spy)
        for e, height in zip(elements, heights):
            shapes.clear()
            assert orbit_height(alg, e) == height > 0
            assert not calls and max(map(max, shapes)) == n
        with pytest.raises(NotNilpotent):
            orbit_height(alg, generic)
        assert not calls and None not in alg._record.bases


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
        assert multidegree_characteristic(alg, 1, 3, e).is_hermitian

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
        assert multidegree_characteristic(alg, 1, 2, np.zeros((3, 3))).is_hermitian

    @pytest.mark.parametrize("blocks", [b for k, b in TestDirectionSpaceOracles.LONG if k == "sl"])
    def test_f_agrees_with_the_lstsq_oracle(self, monkeypatch, blocks):
        # and with the engine on the units of block (j, i), which the closed form never calls
        alg = GradedAlgebra("sl", blocks)
        rng, engine, calls = np.random.default_rng(62), graded._minimal_triple, []
        monkeypatch.setattr(graded, "_minimal_triple", lambda *args: calls.append(args))
        for i in range(1, len(blocks) + 1):
            for j in [j for j in range(1, len(blocks) + 1) if j != i]:
                p, q = blocks[i - 1], blocks[j - 1]
                for rank in range(min(p, q) + 1):
                    e = alg.element_from_block(i, j, random_matrix_with_rank(rng, p, q, rank))
                    res = multidegree_characteristic(alg, i, j, e)
                    opposite = (alg._block_of[:, None] == j - 1) & (alg._block_of[None, :] == i - 1)
                    neg = alg._unit_basis(np.flatnonzero(opposite))
                    case = (i, j, rank)
                    TestDirectionSpaceOracles.assert_f_agrees(res, neg, alg._index_basis(0), case)
                    unit, k = _unit_scale(e)
                    ref = graded._at_scale(engine(unit, neg, alg._index_basis(j - i),
                                                  alg._index_basis(0), blocks, DEFAULT_TOL), e, k)
                    assert frob(res.h - ref.h) <= 1e-10 * (1.0 + frob(ref.h)), case
                    assert frob(res.f - ref.f) <= 1e-10 * (1.0 + frob(ref.f)), case
        assert not calls

    def test_unsupported_block(self):
        alg = GradedAlgebra("sl", (1, 1, 1))
        e = np.zeros((3, 3), dtype=complex)
        e[0, 1] = 1.0
        e[1, 2] = 1.0
        with pytest.raises(UnsupportedBlock):
            multidegree_characteristic(alg, 1, 2, e)


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
