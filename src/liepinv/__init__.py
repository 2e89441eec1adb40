"""Generalized Moore-Penrose inverses in graded classical Lie algebras and Jordan pairs.

The classical pseudoinverse of a matrix is the f-leg of an sl2-triple whose
characteristic is Hermitian.  This package carries that viewpoint through
block-graded realizations of sl_n, so_n and sp_n: completion of homogeneous
nilpotents to norm-minimal triples, Moore-Penrose inverses in short gradings,
orbit-height tests, per-block checks for parabolics of sl_n, closed-form
inverses for bilinear forms and vectors, inverses of maps into a space with a
symmetric or symplectic form, varieties of complexes, and the Jordan-pair
formulation.  A batch CLI exposes every operation on JSON documents.
"""

from . import classical, complexes, errors, forms, graded, homform, jordan, numcore
from .classical import *
from .complexes import *
from .errors import *
from .forms import *
from .graded import *
from .homform import *
from .jordan import *
from .numcore import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (numcore, classical, graded, forms, homform, complexes, jordan, errors)
    for name in module.__all__
]
