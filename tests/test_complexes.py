import numpy as np
import pytest

from liepinv import classical
from liepinv.complexes import (
    ChainTuple,
    assemble_lowering,
    assemble_raising,
    certify_complex,
    complex_pinv,
    verify_complex_pinv,
)
from liepinv.errors import NotAComplex, ShapeMismatch
from liepinv.graded import GradedAlgebra, Sl2Triple, bracket, minimal_characteristic
from liepinv.numcore import frob

from helpers import complex_rank_profiles, random_exact_complex


def chain(sizes, maps):
    return ChainTuple(tuple(sizes), tuple(np.asarray(m, dtype=complex) for m in maps))


class TestCertify:
    def test_composable_zero(self):
        t = chain((1, 1, 1), [[[1.0]], [[0.0]]])
        cert = certify_complex(t)
        assert cert.is_complex
        assert cert.ranks == (1, 0)

    def test_nonzero_composition(self):
        t = chain((1, 1, 1), [[[1.0]], [[1.0]]])
        cert = certify_complex(t)
        assert not cert.is_complex
        assert cert.composition_residuals[0] == 1.0

    def test_single_map_vacuous(self):
        t = chain((2, 2), [np.diag([1.0, 0.0])])
        cert = certify_complex(t)
        assert cert.is_complex and cert.ranks == (1,)

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            chain((2, 2, 2), [np.eye(2)])
        with pytest.raises(ShapeMismatch):
            chain((2, 3), [np.eye(2)])


class TestComplexPinv:
    def test_triple_at_1e308_passes(self):
        # [h, e] - 2e would overflow here; the residuals are taken with e at unit scale
        t = chain((1, 1), [[[1e308]]])
        out, cert = complex_pinv(t)
        report = verify_complex_pinv(t, cert, out)
        assert report.passed and max(report.residuals["triple_residuals"]) <= 1e-15

    def test_wrongly_sized_inverse_names_the_map(self):
        t = chain((2, 3), [np.ones((2, 3))])
        cert = complex_pinv(t)[1]
        with pytest.raises(ShapeMismatch, match=r"lowering map 1 must be \(3, 2\), got \(2, 2\)"):
            verify_complex_pinv(t, cert, chain((2, 2), [np.ones((2, 2))]))
        with pytest.raises(ShapeMismatch, match="inverse tuple must have sizes"):
            verify_complex_pinv(t, cert, chain((3, 2, 2), [np.zeros((3, 2)), np.zeros((2, 2))]))

    def test_simple_chain(self):
        t = chain((1, 1, 1), [[[1.0]], [[0.0]]])
        out, _ = complex_pinv(t)
        assert out.sizes == (1, 1, 1)
        assert out.maps[0][0, 0] == 0.0 and out.maps[1][0, 0] == 1.0
        e = assemble_raising(t)
        f = assemble_lowering(t, list(out.maps)[::-1])
        h = bracket(e, f)
        assert frob(h - np.diag(np.diag(h))) < 1e-14
        assert frob(h - h.conj().T) < 1e-14

    def test_zero_maps(self):
        t = chain((2, 3, 2), [np.zeros((2, 3)), np.zeros((3, 2))])
        out, _ = complex_pinv(t)
        assert all(frob(m) == 0.0 for m in out.maps)

    def test_column_chain(self):
        t = chain((2, 1, 1), [np.array([[1.0], [0.0]]), np.zeros((1, 1))])
        out, _ = complex_pinv(t)
        # reversed order: first the pinv of the zero map, then the row
        assert frob(out.maps[1] - np.array([[1.0, 0.0]])) < 1e-14
        e = assemble_raising(t)
        f = assemble_lowering(t, list(out.maps)[::-1])
        assert Sl2Triple.from_elements(e, bracket(e, f), f).passes()

    def test_rejects_non_complex(self):
        with pytest.raises(NotAComplex):
            complex_pinv(chain((1, 1, 1), [[[1.0]], [[1.0]]]))

    def test_random_complexes(self):
        rng = np.random.default_rng(90)
        for _ in range(25):
            k = int(rng.integers(2, 5))
            sizes = [int(rng.integers(1, 5)) for _ in range(k)]
            ranks = complex_rank_profiles(sizes, rng)
            maps = random_exact_complex(rng, sizes, ranks)
            t = chain(sizes, maps)
            assert certify_complex(t).is_complex
            out, _ = complex_pinv(t)
            assert certify_complex(out).is_complex
            e = assemble_raising(t)
            f = assemble_lowering(t, list(out.maps)[::-1])
            h = bracket(e, f)
            triple = Sl2Triple.from_elements(e, h, f)
            assert triple.max_residual() <= 1e-8
            assert frob(h - h.conj().T) <= 1e-8 * (1.0 + frob(h))

    def test_involution(self):
        rng = np.random.default_rng(91)
        sizes = [3, 4, 2]
        maps = random_exact_complex(rng, sizes, [2, 1])
        t = chain(sizes, maps)
        back, _ = complex_pinv(complex_pinv(t)[0])
        assert back.sizes == t.sizes
        for got, want in zip(back.maps, t.maps):
            assert frob(got - want) <= 1e-8 * (1.0 + frob(want))

    def test_agreement_with_graded_engine(self):
        rng = np.random.default_rng(92)
        sizes = [2, 3, 2]
        maps = random_exact_complex(rng, sizes, [1, 1])
        t = chain(sizes, maps)
        out, _ = complex_pinv(t)
        alg = GradedAlgebra("sl", t.sizes)
        e = assemble_raising(t)
        res = minimal_characteristic(alg, e, 1)
        f_expected = assemble_lowering(t, list(out.maps)[::-1])
        assert frob(res.f - f_expected) <= 1e-8 * (1.0 + frob(f_expected))

    def test_negative_control_violates_weight_relation(self):
        t_maps = [np.array([[1.0]]), np.array([[1.0]])]
        e = assemble_raising(chain((1, 1, 1), t_maps))
        f = assemble_lowering(
            chain((1, 1, 1), t_maps), [classical.pinv(m) for m in t_maps]
        )
        h = bracket(e, f)
        defect = frob(bracket(h, e) - 2.0 * e)
        assert defect >= 0.9 * frob(e)
