"""Exception hierarchy shared by every module.

Every error derives from ``IgacError`` and from exactly one built-in
class, which is its category in the CLI's exit-code contract:
``ValueError`` for validation and domain problems (exit 2),
``RuntimeError`` for resource limits (exit 3) and ``ArithmeticError``
for numerical failures (exit 4).
"""

from __future__ import annotations


class IgacError(Exception):
    """Base class for package-specific errors.

    ``field`` names the input at fault (a parameter, coordinate or
    configuration key), or is None when no single input is.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class DomainError(IgacError, ValueError):
    """A parameter or coordinate lies outside its declared open domain."""


class ShapeError(IgacError, ValueError):
    """Vector or matrix dimensions do not match the declared layout."""


class UnsupportedFamilyError(IgacError, ValueError):
    """The requested family has no registered closed form."""


class ValidationError(IgacError, ValueError):
    """A configuration value failed validation before dispatch."""


class InsufficientDataError(IgacError, ValueError):
    """Too few samples to carry out the requested estimate."""


class ResourceError(IgacError, RuntimeError):
    """A configured resource ceiling (memory, matrix size) would be exceeded."""


class AccuracyError(IgacError, ArithmeticError):
    """Successive numerical refinements failed to converge.

    Carries the last two estimates so callers can inspect the residual.
    """

    def __init__(self, message: str, estimates: tuple = ()):
        super().__init__(message)
        self.estimates = estimates


class InversionError(IgacError, ArithmeticError):
    """The metric is singular at the evaluation point."""


class SingularityError(IgacError, ArithmeticError):
    """Step size underflowed near a singular region.

    ``last_state`` holds the final valid ``(tau, y)`` pair of the
    integration.
    """

    def __init__(self, message: str, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class FitError(IgacError, ArithmeticError):
    """A least-squares fit is ill-conditioned or otherwise unusable."""


class InapplicableError(IgacError, ValueError):
    """The operation does not apply to the given input (wrong regime)."""
