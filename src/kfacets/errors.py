"""Shared exception types."""


class InputError(ValueError):
    """Raised when arguments violate a documented precondition."""


class DegeneracyError(ValueError):
    """Raised when a point set violates a required genericity condition.

    ``subset`` names point indices witnessing the violation.
    """

    def __init__(self, message: str, subset: tuple[int, ...]):
        super().__init__(message)
        self.subset = tuple(subset)


class GenerationError(RuntimeError):
    """Raised when rejection sampling exhausts its retry budget."""
