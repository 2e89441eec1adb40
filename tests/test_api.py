"""The public surface: each layer module's ``__all__``, re-exported by the package."""

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
