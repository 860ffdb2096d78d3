"""Exception types shared across mdtune, and the one error of a bad count."""


class MdtuneError(Exception):
    """Base class for all mdtune errors."""


class InvalidConfigError(MdtuneError):
    """A launch configuration or plan violates a hardware or engine constraint."""


class MissingDatumError(MdtuneError):
    """An economics calculation needs a price or power figure that was not declared.

    Hardware prices and idle powers are optional in a node declaration; operations
    that need them fail loudly instead of assuming a default.
    """


class LogParseError(MdtuneError):
    """A recognized log line or block is present but malformed.

    Carries the character offset of the offending text in the decoded log
    when known: a log decoded with replacement characters has no exact byte
    offset.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (character offset {offset})"
        super().__init__(message)
        self.offset = offset


class ManifestError(MdtuneError):
    """An input document (a manifest, node, plan, profile, rows or series
    document) failed validation. ``path``, which the message starts with, is a
    field the schema rejects or a record whose own check fails (``rows.0.power``)."""

    def __init__(self, message, path=""):
        if path:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path


class ExecutorError(MdtuneError):
    """The executor backing a sweep is unavailable or misconfigured."""


class RunFailure(MdtuneError):
    """A single benchmark run failed; sweeps record this and continue."""


def count_error(name: str, value, rule: str) -> InvalidConfigError:
    """The error for a count that breaks ``rule`` or is no int: a bool would
    pass as 0 or 1, and a float would reach a command line as written
    ("-ntmpi 4.0") or break the thread arithmetic."""
    if type(value) is not int:
        return InvalidConfigError(f"{name} must be an integer, not {value!r}")
    return InvalidConfigError(f"{name} must be {rule}")
