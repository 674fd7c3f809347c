"""Exception types shared across the package."""


class ShiftlabError(Exception):
    """Base class for all shiftlab-specific errors."""


class ConfigError(ShiftlabError, ValueError):
    """A config document is malformed; message names the offending field."""


class NonPositiveMeasure(ShiftlabError):
    """A cell measure or tail ratio is zero or negative."""


class EmptyWindow(ShiftlabError):
    """The explicit level window contains no levels."""


class TailRuleMissing(ShiftlabError):
    """A level or weight index beyond the window was requested but the
    sequence carries no tail rule to extend it."""


class InconsistentWitness(ShiftlabError):
    """An identity that holds exactly failed: the factor identity.  It
    signals a defect in the code, never a short horizon or another user-set
    extent; never swallowed."""


class NoAdmissibleLevels(ShiftlabError):
    """Not enough levels with a contracting n-step measure ratio exist to
    build a subspace witness."""


class HypothesisViolated(ShiftlabError):
    """A per-block ratio assumption failed; carries the offending level."""

    def __init__(self, message: str, level: int | None = None):
        super().__init__(message)
        self.level = level


class HorizonExhausted(ShiftlabError):
    """No schedule within the horizon met the approximation budget."""


class UsageError(ShiftlabError):
    """Command line invocation problem; maps to exit status 64."""
