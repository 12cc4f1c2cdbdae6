"""Exception types shared across the package."""


class StriplexError(Exception):
    """Base class for all package errors."""


class ParseError(StriplexError):
    """Malformed spline-spec text."""


class ValidationError(StriplexError):
    """Structurally valid input that violates a data invariant."""


class InvalidParametersError(StriplexError):
    """Problem constants outside the allowed ranges (e.g. L <= L_f)."""


class AdmissibilityError(StriplexError):
    """delta is not strictly below the required caps."""

    def __init__(self, message: str, violated_cap: str | None = None):
        super().__init__(message)
        self.violated_cap = violated_cap


class DomainError(StriplexError):
    """Evaluation requested outside an operation's domain."""


class NonConvergenceError(StriplexError):
    """Fixed-point iteration reached its iteration cap without meeting
    tolerance."""


class ConfigurationError(StriplexError):
    """Unusable run configuration (window, margin, sampling settings)."""


class UsageError(StriplexError):
    """Bad command-line invocation."""
