"""Exception taxonomy shared by all modules.

Each class maps to a distinct CLI exit code so that scripted callers can
tell input mistakes from resource caps from internal bugs.
"""


class TsGroupsError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class MalformedInputError(TsGroupsError):
    """Input data is structurally invalid (bad letters, empty sets, ...)."""

    exit_code = 2


class ConfigurationError(TsGroupsError):
    """Unknown descriptor, bad flag combination, unparsable config."""

    exit_code = 2


class ResourceLimitError(TsGroupsError):
    """A configured budget (solver cap, ball size, search states) was hit."""

    exit_code = 3


class PreconditionError(TsGroupsError):
    """A documented operation precondition does not hold for the input."""

    exit_code = 4


class DegenerateXiError(PreconditionError):
    """The link element is trivial; relatedness would be vacuous."""


class InternalInvariantError(TsGroupsError):
    """The library detected a breach of one of its own invariants."""

    exit_code = 5
