"""The public surface: each layer module's ``__all__``, re-exported by the package."""

import re

import numpy as np
import pytest

import liepinv
from liepinv import classical, complexes, errors, forms, graded, homform, jordan, numcore
from liepinv.errors import ShapeMismatch
from liepinv.numcore import as_matrix

MODULES = (numcore, classical, graded, forms, homform, complexes, jordan, errors)


def test_package_lists_each_module_once_in_order():
    names = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert liepinv.__all__ == names
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_listed_names_resolve(module):
    for name in module.__all__:
        assert getattr(liepinv, name) is getattr(module, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from liepinv import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(liepinv.__all__)


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
def test_as_matrix_rejects_other_ranks(shape):
    with pytest.raises(ShapeMismatch, match=f"ndim={len(shape)}"):
        as_matrix(np.zeros(shape))


def test_quaternion_matrix_keeps_only_its_boundary():
    """Shape checks, the complex embedding and its inverse: the algebra runs on embed()."""
    q = numcore.QuaternionMatrix(np.zeros((1, 2, 4)))
    assert {name for name in dir(q) if not name.startswith("_")} == {
        "data", "shape", "embed", "from_embedding"}
    assert not hasattr(numcore, "_hamilton")


@pytest.mark.parametrize("build, name", [
    (lambda: graded.GradedAlgebra("sl", (2.7, 3)), "blocks[0]"),
    (lambda: graded.GradedAlgebra("sl", (True, 3)), "blocks[0]"),
    (lambda: graded.GradedAlgebra("sp", (2, np.float64("nan"), 2)), "blocks[1]"),
    (lambda: complexes.ChainTuple((2.5, 3), (np.zeros((2, 3)),)), "sizes[0]"),
    (lambda: forms.PseudoEuclideanSpace(2.5, 1), "n"),
    (lambda: forms.PseudoEuclideanSpace(1, np.bool_(True)), "m"),
    (lambda: forms.pseudo_euclidean_pinv(forms.PseudoEuclideanSpace(1, 1), np.array([1 + 1j, 2])),
     "vector"),
], ids=["float-block", "bool-block", "nan-block", "float-size", "float-n", "bool-m",
        "complex-vector"])
def test_constructors_refuse_what_they_would_truncate(build, name):
    """Sizes must be whole numbers, not bools, and a real vector must not be complex: each is
    refused where it enters, naming the argument, not truncated or cast."""
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be")):
        build()
    # what they accept: numpy integers and whole floats, read as ints
    assert graded.GradedAlgebra("sl", (np.int64(2), 3.0)).blocks == (2, 3)
    assert forms.PseudoEuclideanSpace(np.int32(2), 1.0) == forms.PseudoEuclideanSpace(2, 1)
