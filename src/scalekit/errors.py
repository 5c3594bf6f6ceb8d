"""Exception hierarchy for scalekit.

ParameterError signals invalid model parameters (CLI exit code 2); the
NumericalError family signals a computation that could not be completed to
tolerance (CLI exit code 1).
"""


class ScalekitError(Exception):
    """Base class for all scalekit errors."""


class ParameterError(ScalekitError, ValueError):
    """A parameter combination violates a model invariant."""


class CapabilityError(ScalekitError):
    """The request is valid but outside what this routine can evaluate stably."""


class NumericalError(ScalekitError):
    """A numerical procedure failed to converge or lost too much accuracy."""


class SaturationError(NumericalError):
    """An intermediate quantity exceeded floating-point range."""


class ConditioningError(NumericalError):
    """A result failed its own accuracy check: a Mittag-Leffler contour sum against its
    finer-step self-check (or no contour fits), a partial fraction against its rational
    function, or a series reciprocal whose leading coefficient vanishes."""


class InversionError(NumericalError):
    """Numerical Laplace inversion did not meet its error target.

    The tolerance messages name the best value and its error estimate.
    """


class NotApplicableError(ScalekitError):
    """The requested quantity is undefined for this model (e.g. ruin with zero drift)."""
