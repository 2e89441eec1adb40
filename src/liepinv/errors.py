"""Exception types shared across the package."""

__all__ = [
    "LiepinvError",
    "ShapeMismatch",
    "InconsistentConstraints",
    "EmbeddingMismatch",
    "NotInAlgebra",
    "NoTriple",
    "NotShortGrading",
    "NotCharacteristic",
    "NotNilpotent",
    "ZeroElement",
    "UnsupportedBlock",
    "SymmetryViolation",
    "DegenerateForm",
    "NotMoorePenroseOrbit",
    "NotAComplex",
    "WrongComponent",
]


class LiepinvError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(LiepinvError, ValueError):
    """Operands have incompatible shapes."""


class InconsistentConstraints(LiepinvError, ValueError):
    """The equality constraints of a least-squares problem have no solution."""


class EmbeddingMismatch(LiepinvError, ArithmeticError):
    """A complex matrix is not (numerically) in the image of the quaternion embedding."""


class NotInAlgebra(LiepinvError, ValueError):
    """An ambient matrix does not belong to the given matrix Lie algebra."""


class NoTriple(LiepinvError, ArithmeticError):
    """The sl2 completion system for the given element is inconsistent."""


class NotShortGrading(LiepinvError, ValueError):
    """Operation requires a grading with only degrees -1, 0, 1."""


class NotCharacteristic(LiepinvError, ValueError):
    """A matrix is not semisimple of degree 0 with integer eigenvalues, as a characteristic is."""


class NotNilpotent(LiepinvError, ValueError):
    """Operation requires a nilpotent element."""


class ZeroElement(LiepinvError, ValueError):
    """Operation is undefined for the zero element."""


class UnsupportedBlock(LiepinvError, ValueError):
    """Element has mass outside the designated block."""


class SymmetryViolation(LiepinvError, ValueError):
    """Matrix does not have the required (skew-)symmetry or Hermitian class."""


class DegenerateForm(LiepinvError, ValueError):
    """Bilinear form is singular where a nondegenerate one is required."""


class NotMoorePenroseOrbit(LiepinvError, ArithmeticError):
    """The orbit admits no Moore-Penrose inverse; carries a numerical certificate.

    Attributes
    ----------
    a, b : int
        Orbit label: rank and radical dimension of the restricted form.
    certificate : float
        Hermitian defect of the norm-minimal characteristic of the embedded
        element (strictly positive for genuine non-MP orbits).
    """

    def __init__(self, a: int, b: int, certificate: float):
        self.a = int(a)
        self.b = int(b)
        self.certificate = float(certificate)
        super().__init__(
            f"orbit (a={a}, b={b}) is not Moore-Penrose (0 < b < a); "
            f"minimal characteristic has Hermitian defect {certificate:.3e}"
        )


class NotAComplex(LiepinvError, ValueError):
    """Chain tuple fails the zero-composition requirement."""


class WrongComponent(LiepinvError, ValueError):
    """Jordan-pair argument does not lie in the expected component."""
