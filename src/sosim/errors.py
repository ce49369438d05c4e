"""Exception types shared across the package, and the integer-count check."""

import operator


class SosimError(Exception):
    """Base class for all package errors."""


class ConfigError(SosimError):
    """Invalid configuration (bad source spec, empty trace, bad experiment)."""


class ParseError(ConfigError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class ValidationError(SosimError):
    """Argument or data violates a stated contract (negative delay, bad split...)."""


class DomainError(SosimError):
    """Numeric argument outside its mathematical domain."""


class NoDataError(SosimError):
    """A statistic was requested from an empty sample window."""


class DegenerateInputError(SosimError):
    """Optimizer input admits no meaningful solution (zero-delay path)."""


class InfeasibleError(SosimError):
    """Requested quantity does not exist for the given data."""


class UsageError(SosimError):
    """Bad CLI/sweep usage (wrong axis, empty value list...)."""


def require_count(name: str, value, minimum: int, error: type[SosimError] = ConfigError) -> None:
    """Refuse a count that is not an integer (ints and numpy ints pass) or is below `minimum`."""
    try:
        operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
