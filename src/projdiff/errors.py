"""Exception types shared across the library.

Plain ValueError is used for malformed arguments (bad shapes, out-of-domain
scalars).  The classes below mark failure modes a caller may want to catch
and handle separately.
"""


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending section/key."""


class ResourceLimitError(ValueError):
    """Requested construction exceeds a configured size cap."""


class NumericFailureError(RuntimeError):
    """An iterative numeric routine failed to converge."""

    def __init__(self, message, last_gap=None):
        super().__init__(message)
        self.last_gap = last_gap


class DivergenceError(RuntimeError):
    """An iterate left the finite-float range; carries the iteration index."""

    def __init__(self, message, iteration):
        super().__init__(message)
        self.iteration = iteration


class DegenerateWeightsError(RuntimeError):
    """Importance weights collapsed; the estimate would be meaningless."""


class FrontierError(ValueError):
    """The query point sits on (or past) a decision frontier where the
    requested quantity is undefined."""


class InsufficientDataError(ValueError):
    """Not enough usable points for the requested fit."""
