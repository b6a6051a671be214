"""Exception hierarchy shared by all modules.

InvalidInput is the one error of the input: points that are not finite,
not distinct (tracker.distinct_points) or of the wrong number, and any
argument outside its function's domain.  It is a ValueError, so the CLI
exits 2 for it.  Every other class is a failure of the numerics on valid
input, and the CLI exits 1 for those.  The solver's output never raises
InvalidInput: a computed class that misses a check raises a numerical
error, so a valid input exits 0 or 1.
"""


class WronskiError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(WronskiError, ValueError):
    pass


class ChartDegenerate(WronskiError):
    pass


class PathStuck(WronskiError):
    pass


class CountMismatch(WronskiError):
    pass


class NotASolution(WronskiError):
    pass


class TraceLost(WronskiError):
    pass
