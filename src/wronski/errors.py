"""Exception hierarchy shared by all modules."""


class WronskiError(Exception):
    """Base class for all errors raised by this package.

    `numerical` marks a failure of the numerics (a path, count, trace or
    conditioning problem) rather than of the input; the CLI exits 1 for
    those and 2 for the rest.
    """
    numerical = False


class ZeroPolynomial(WronskiError):
    pass


class DegeneratePair(WronskiError):
    pass


class InvalidBallot(WronskiError):
    pass


class InvalidContent(WronskiError):
    pass


class NotPermitted(WronskiError):
    pass


class NegativeParameter(WronskiError):
    pass


class ChartDegenerate(WronskiError):
    numerical = True


class PathStuck(WronskiError):
    numerical = True


class CountMismatch(WronskiError):
    numerical = True

    def __init__(self, message, branch_logs=None):
        super().__init__(message)
        self.branch_logs = branch_logs or []


class MultipleRoot(WronskiError):
    numerical = True


class DuplicatePoints(WronskiError):
    pass


class NegativeDiscriminant(WronskiError):
    pass


class NotASolution(WronskiError):
    numerical = True


class Collision(WronskiError):
    pass


class NonzeroResidue(WronskiError):
    pass


class SharedRoot(WronskiError):
    pass


class TraceLost(WronskiError):
    numerical = True


class NonRealInput(WronskiError):
    pass


class LengthMismatch(WronskiError):
    pass


class IndexOutOfRange(WronskiError):
    pass
