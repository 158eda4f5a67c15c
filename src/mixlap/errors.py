"""Exception hierarchy shared by all mixlap modules."""


class MixlapError(Exception):
    """Base class for all library errors."""


class DomainError(MixlapError):
    """An input violates a mathematical precondition (range, smoothness)."""


class TailDivergenceError(DomainError):
    """The far-field growth of a function makes a required integral infinite."""


class AccuracyError(MixlapError):
    """A quadrature or self-check failed to reach the requested tolerance."""


class InputError(MixlapError):
    """Malformed numeric input (non-finite samples, bad vectors)."""


class NumericalError(MixlapError):
    """A linear-algebra step failed; carries an eigenvalue estimate if known."""

    def __init__(self, message, eigenvalue_estimate=None):
        super().__init__(message)
        self.eigenvalue_estimate = eigenvalue_estimate


class ConstructionError(MixlapError):
    """The barrier builder could not satisfy its inequalities.

    ``trace`` holds one diagnostic line per window size down to the floor,
    skipped or imaged; it is empty when the first ladder rung already rules
    out every window.
    """

    def __init__(self, message, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)


class ResolutionError(MixlapError):
    """A discrete construction needs a finer mesh to expose the target sign."""


class ConfigError(MixlapError):
    """Configuration parsing failed; message names the offending key."""
