"""Exception types shared across the package.

Plain I/O failures (unwritable paths, missing files) are left to the
builtin ``OSError``; everything domain-specific lives here.
"""


class MahashotError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(MahashotError, ValueError):
    """Operands disagree on the feature dimension or array shape."""


class NotSymmetric(MahashotError, ValueError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class FactorizationFailed(MahashotError, ArithmeticError):
    """Cholesky factorization failed for every jitter value in the schedule."""


class EmptyInput(MahashotError, ValueError):
    """An operation received an empty sequence where at least one entry is required."""


class NonFiniteInput(MahashotError, ValueError):
    """An operation received NaN or infinite entries."""


class ParseError(MahashotError, ValueError):
    """A dataset file could not be parsed; carries the offending line or byte offset."""

    def __init__(self, message: str, *, line: int | None = None, offset: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif offset is not None:
            where = f" (byte offset {offset})"
        super().__init__(message + where)
        self.line = line
        self.offset = offset


class EmptyClass(MahashotError, ValueError):
    """A dataset class has zero embeddings."""


class InvalidSpec(MahashotError, ValueError):
    """A synthetic-dataset or sampler configuration violates its invariants."""


class DegenerateClass(MahashotError, ArithmeticError):
    """A soft class count collapsed below the usable threshold."""

    def __init__(self, class_index: int, count: float):
        super().__init__(f"soft count for class {class_index} collapsed to {count:.3e}")
        self.class_index = class_index
        self.count = count


class InsufficientClasses(MahashotError, ValueError):
    """The dataset has fewer classes than the sampler requires."""


class InsufficientExamples(MahashotError, ValueError):
    """A class has too few examples to satisfy the sampler's draw."""
