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

from .classical import (
    pinv,
    pinv_quaternion,
    pinv_real,
    verify_penrose,
)
from .complexes import (
    ChainTuple,
    ComplexCertificate,
    certify_complex,
    complex_pinv,
    verify_complex_pinv,
)
from .errors import (
    DegenerateForm,
    EmbeddingMismatch,
    InconsistentConstraints,
    LiepinvError,
    NoTriple,
    NotAComplex,
    NotCharacteristic,
    NotInAlgebra,
    NotMoorePenroseOrbit,
    NotNilpotent,
    NotShortGrading,
    ShapeMismatch,
    SymmetryViolation,
    UnsupportedBlock,
    WrongComponent,
    ZeroElement,
)
from .forms import (
    BilinearForm,
    PseudoEuclideanSpace,
    form_pinv,
    hermitian_pinv,
    pseudo_euclidean_pinv,
    vector_pinv,
)
from .graded import (
    CharacteristicResult,
    GradedAlgebra,
    Sl2Triple,
    annihilates_positive_part,
    bracket,
    is_mp_element,
    is_mp_orbit,
    minimal_characteristic,
    mp_check_multidegree,
    mp_inverse_short,
    multidegree_characteristic,
    orbit_height,
)
from .homform import (
    OrbitLabel,
    classify_orbit,
    mp_inverse_homform,
    sharp,
    verify_homform,
)
from .jordan import (
    CartanInvolution,
    JordanPair,
    killing_pairing,
    mp_inverse_jordan,
    standard_cartan_involution,
    triple_product,
    verify_jordan_mp,
)
from .numcore import (
    DEFAULT_TOL,
    Quaternion,
    QuaternionMatrix,
    Report,
    Tolerance,
    rank_decomposition,
    solve_least_squares_constrained,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # numcore
    "Tolerance", "DEFAULT_TOL", "Report", "rank_decomposition",
    "solve_least_squares_constrained", "Quaternion", "QuaternionMatrix",
    # classical
    "pinv", "verify_penrose",
    "pinv_real", "pinv_quaternion",
    # graded
    "GradedAlgebra", "Sl2Triple", "CharacteristicResult", "bracket",
    "minimal_characteristic",
    "mp_inverse_short", "annihilates_positive_part", "is_mp_element",
    "orbit_height", "is_mp_orbit", "multidegree_characteristic",
    "mp_check_multidegree",
    # forms
    "BilinearForm", "form_pinv", "vector_pinv", "PseudoEuclideanSpace",
    "pseudo_euclidean_pinv", "hermitian_pinv",
    # homform
    "OrbitLabel", "sharp", "classify_orbit",
    "mp_inverse_homform", "verify_homform",
    # complexes
    "ChainTuple", "ComplexCertificate", "certify_complex", "complex_pinv",
    "verify_complex_pinv",
    # jordan
    "JordanPair", "CartanInvolution", "triple_product", "killing_pairing",
    "standard_cartan_involution", "mp_inverse_jordan", "verify_jordan_mp",
    # errors
    "LiepinvError", "ShapeMismatch", "InconsistentConstraints",
    "EmbeddingMismatch", "NotInAlgebra", "NoTriple", "NotShortGrading",
    "NotCharacteristic", "NotNilpotent", "ZeroElement", "UnsupportedBlock", "SymmetryViolation",
    "DegenerateForm", "NotMoorePenroseOrbit", "NotAComplex", "WrongComponent",
]
