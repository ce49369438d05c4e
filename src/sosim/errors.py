"""Exception types shared across the package, and the checks of its inputs.

One type per fault: `ConfigError` for a bad run setting (a field of
`SimConfig`, `ExperimentConfig` or `DelaySourceSpec`, or a bad config file,
page spec, trace file or command line), with `ParseError` when one file line
is at fault; `ValidationError` for a bad argument to a library function; and
`NoDataError` when estimated mode has nothing to estimate from.  All derive
from `SosimError`.

Each kind of input has one check: `require_count` for an integer count,
`require_finite` for a finite, nonnegative real, and `read_text` for an
input file.
"""

import math
import operator
from pathlib import Path


class SosimError(Exception):
    """Base class for all package errors."""


class ConfigError(SosimError):
    """Bad run setting (config field, config file, page spec, trace file, CLI value)."""


class ParseError(ConfigError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class ValidationError(SosimError):
    """Bad argument to a library function (negative count, bad split, bad epsilon...)."""


class NoDataError(SosimError):
    """A statistic was requested from an empty sample window."""


def require_count(name: str, value, minimum: int, error: type[SosimError] = ConfigError) -> None:
    """Refuse a count that is not an integer (ints and numpy ints pass) or is below `minimum`."""
    try:
        operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")


def require_finite(name: str, value, error: type[SosimError] = ConfigError) -> None:
    """Refuse a value that is not a finite real >= 0 (NaN fails both comparisons)."""
    try:
        if 0.0 <= value < math.inf:
            return
    except TypeError:  # not a number at all
        pass
    raise error(f"{name} must be finite and nonnegative, got {value!r}")


def read_text(path, what: str) -> str:
    """The text of the `what` file at `path`; one that cannot be read or decoded
    is a `ConfigError`."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
