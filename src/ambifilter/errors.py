"""Exception hierarchy.

Split into "usage" errors (bad arguments or configuration, CLI exit code 1),
"numerical" errors (the computation itself degenerated, CLI exit code 2) and
data errors (non-finite inputs, also CLI exit code 2). Each class carries its
CLI exit code and the prefix of its stderr lines.
"""

from __future__ import annotations


class AmbiFilterError(Exception):
    """Base class for all package errors."""

    exit_code = 1
    prefix = "error"

    def report_lines(self) -> list[str]:
        return [f"{self.prefix}: {self}"]


class InvalidArgumentError(AmbiFilterError, ValueError):
    """A precondition on an operation's arguments was violated."""


class MissingFeatureError(AmbiFilterError):
    """A drift policy needs state features the caller did not supply."""


class ShapeError(AmbiFilterError):
    """Array arguments are not aligned (path counts, grid lengths)."""


class DataError(AmbiFilterError):
    """Non-finite or otherwise unusable observation data."""

    exit_code = 2
    prefix = "bad data"


class NumericalError(AmbiFilterError):
    """Base class for failures of the computation itself."""

    exit_code = 2
    prefix = "numerical failure"


class DegenerateCloudError(NumericalError):
    """Total particle mass underflowed; the cloud carries no information."""


class IllConditionedBasisError(NumericalError):
    """Regression design is singular beyond the ridge guard, or too rich."""


class ConfigError(AmbiFilterError):
    """Configuration file problems. Carries every problem found, not just the first."""

    prefix = "config error"

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))

    def report_lines(self) -> list[str]:
        return [f"{self.prefix}: {p}" for p in self.problems]
