"""Exception types shared across the package."""


class ProxequilError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(ProxequilError):
    """Operands live in different ambient dimensions."""


class NonFiniteValue(ProxequilError):
    """A NaN or infinity appeared where a finite number is required."""


class PointNotInSet(ProxequilError):
    """A point failed the membership test of its constraint set."""


class SamplingExhausted(ProxequilError):
    """Rejection sampling could not produce the requested number of points."""


class MissingGradient(ProxequilError):
    """An operation needs a gradient the bifunction does not provide."""


class InnerSolveFailed(ProxequilError):
    """No start of the inner minimization reached the requested tolerance."""


class SubproblemFailed(ProxequilError):
    """The per-iteration subproblem did not reach a fixed point in time."""


class EmptyTrace(ProxequilError):
    """A checker was handed a trace with no records."""


class GridTooLarge(ProxequilError):
    """Requested grid exceeds the desk-scale guard of the oracle."""


class EmptyGrid(ProxequilError):
    """No grid point passed the membership test."""


class ParseError(ProxequilError):
    """Config file is syntactically malformed."""


class ValidationError(ProxequilError):
    """Config file parsed but violates one or more invariants."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
