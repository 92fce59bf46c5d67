"""Exception taxonomy shared across the package."""


class WeylError(Exception):
    """Base class for all package errors."""


class DimensionError(WeylError):
    """Matrix dimensions are inconsistent with the requested operation."""


class SingularMatrixError(WeylError):
    """A linear solve hit a pivot below the singularity threshold."""

    def __init__(self, message: str, smallest_pivot: float):
        super().__init__(f"{message} (smallest pivot {smallest_pivot:.3e})")
        self.smallest_pivot = smallest_pivot


class ContractError(WeylError):
    """An input violated a documented precondition (e.g. non-Hermitian input)."""


class RangeError(WeylError):
    """Argument outside the implemented validity regime (explicit, not silent)."""


class PoleError(WeylError):
    """Evaluation requested at (or numerically indistinguishable from) a pole."""

    def __init__(self, message: str, location=None):
        super().__init__(message)
        self.location = location


class DomainError(WeylError):
    """z outside the admissible set of a model (e.g. on the essential spectrum)."""


class AccuracyError(WeylError):
    """Requested accuracy is unattainable; carries the estimated error bound."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (estimated error {estimate:.3e})")
        self.estimate = estimate


class TransversalityError(WeylError):
    """Singular Mobius denominator / unbounded M(0): transversality failure."""


class TransformValidationError(WeylError):
    """A block transform failed the J-unitarity relations."""

    def __init__(self, failures):
        lines = ", ".join(f"{name}: residual {res:.3e}" for name, res in failures)
        super().__init__(f"J-unitarity violated: {lines}")
        self.failures = failures


class DegenerateColligationError(WeylError):
    """Im B = 0: the characteristic function degenerates to the identity."""


class SpectralPointError(WeylError):
    """Evaluation at a point of the spectrum of an extension."""


class ArgumentPrincipleError(WeylError):
    """Contour sampling could not certify the winding number."""


class BoundaryZeroError(WeylError):
    """det(M(z)-B) vanishes on the contour; perturb the rectangle."""


class EvalError(WeylError):
    """Expression evaluation failed (non-finite or domain violation), or a
    constructor refused a parameter: field then names it, as in "a_diag[1]"."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field, self.reason = field, message


class ParseError(WeylError):
    """Expression or problem-file parse failure with position information."""

    def __init__(self, message: str, line: int = 1, column: int = 0, expected=()):
        loc = f"line {line}, column {column}"
        exp = f"; expected one of {sorted(expected)}" if expected else ""
        super().__init__(f"{message} at {loc}{exp}")
        self.line = line
        self.column = column
        self.expected = tuple(expected)


class SchemaError(WeylError):
    """A problem file or a request flag violated its format; message carries the JSON path or the flag."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
