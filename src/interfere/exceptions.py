"""Exception types shared across the library."""


class DomainError(ValueError):
    """An input violates a documented precondition (range, shape or index)."""


class ResourceError(DomainError):
    """A requested computation exceeds the supported size budget."""


class ConsistencyError(ArithmeticError):
    """An internal numerical invariant was violated during evaluation."""
