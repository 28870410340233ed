"""Exception types shared across the package."""

from __future__ import annotations


class ExpressionError(ValueError):
    """Raised when an expression string falls outside the whitelisted grammar."""


class ProfileDerivativeError(ValueError):
    """Raised when Taylor data at the origin is requested but unavailable."""


class WitnessSearchError(RuntimeError):
    """Raised when the witness search cannot complete.

    ``reason`` is a short machine-readable tag; the message carries detail.
    """

    def __init__(self, message: str, reason: str = "search-failed") -> None:
        super().__init__(message)
        self.reason = reason


class EvaluationError(ArithmeticError):
    """Raised when a candidate function or a sequence is undefined where it must be evaluated.

    The message names the function or sequence and the point; the cause is
    the arithmetic error (division by zero, a complex result) that arose there.
    """

    @classmethod
    def undefined(cls, subject: str, point: str, cause: BaseException) -> "EvaluationError":
        """``subject`` is undefined at ``point``, as the arithmetic error ``cause`` shows."""
        reason = "division by zero" if isinstance(cause, ZeroDivisionError) else str(cause)
        return cls(f"{subject} is undefined at {point}: {reason}")


class SingularGramError(ArithmeticError):
    """Raised when a Gram matrix is numerically singular at the working precision."""


class ConfigError(ValueError):
    """Raised for malformed or unresolvable run configurations."""
