"""Error types raised across the package.

Every error carries a short human-readable message; callers that need to
distinguish failure modes catch the specific class.
"""


class SeqentError(Exception):
    """Base class for all package errors."""


class HorizonExceeded(SeqentError):
    """An orbit step or query time points past the built trajectory."""


class UnknownBlock(SeqentError):
    """A block index outside the built range was requested."""


class Infeasible(SeqentError):
    """No wind of the requested length connects the given endpoints."""


class ScheduleInvalid(SeqentError):
    """A growth schedule fails structural validation for the builder."""


class CapExceeded(SeqentError):
    """A query would enumerate more assignments than the configured cap."""


class ResourceBudgetExceeded(SeqentError):
    """The search ran out of its node or time budget; result inconclusive."""


class InvalidConfig(SeqentError):
    """A run configuration is malformed or internally inconsistent."""
