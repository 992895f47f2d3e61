"""Exception types shared across the package."""


class TreebetError(Exception):
    """Base class for every error raised by this package."""


class DomainError(TreebetError):
    """An argument lies outside an operation's mathematical domain."""


class ConfigError(TreebetError):
    """A forecasting system or other configured object is malformed."""


class ContractError(TreebetError):
    """A caller-supplied object violates a stated precondition; ``reason``, if given, says where."""

    def __init__(self, message: str, reason: str | None = None):
        super().__init__(message)
        self.reason = reason


class ResourceError(TreebetError):
    """An operation would exceed a configured size cap."""


class ParseError(TreebetError):
    """A text artifact could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
