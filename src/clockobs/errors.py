"""Exception types shared across the package."""

from __future__ import annotations


class ClockObsError(Exception):
    """Base class for all errors raised by this package."""


class SpecParseError(ClockObsError):
    """Machine spec text is malformed or internally inconsistent."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc = f" ({loc})"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class MachineStepError(ClockObsError):
    """A machine step was requested where no transition applies."""


class PermutationError(ClockObsError):
    """A gate or circuit table failed to be a bijection."""


class DimensionError(ClockObsError):
    """A basis state does not match the layout it is used with."""


class BudgetExceededError(ClockObsError):
    """Work would exceed a stated size cap or step budget."""


class StageError(ClockObsError):
    """Pipeline failure tagged with the stage that produced it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
