"""Exception types shared across the package."""


class CprankError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(CprankError, ValueError):
    """Raised when an argument violates a documented input contract."""


class PreconditionError(CprankError, ValueError):
    """Raised when a caller-established precondition does not hold."""


class ComputationFailureError(CprankError, RuntimeError):
    """Raised when an internal numerical procedure fails to converge."""
