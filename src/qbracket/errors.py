"""Exception types shared across the package."""

__all__ = [
    "CertificationFailure",
    "ContextMismatch",
    "DomainError",
    "LiftFailure",
    "PadicError",
    "PrecisionExhausted",
]


class PadicError(Exception):
    """Base class for everything raised by this package on purpose."""


class ContextMismatch(PadicError):
    """Two numbers from different contexts met in one operation."""


class PrecisionExhausted(PadicError):
    """A query needed more precision than the value carries.

    Typical trigger: asking for the exact valuation of a value that is
    indistinguishable from zero at its carried precision.
    """


class DomainError(PadicError):
    """Input outside the mathematical domain of an operation.

    Carries ``required_e`` when the fix is rebuilding the context with a
    finer ramification index.
    """

    def __init__(self, message: str, *, required_e: int | None = None):
        super().__init__(message)
        self.required_e = required_e


class LiftFailure(PadicError):
    """Newton iteration could not be started or did not converge."""


class CertificationFailure(PadicError):
    """A result could not be certified at the requested precision."""
