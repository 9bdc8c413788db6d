"""Exception types shared across the package, and the integer check of
arguments that count or seed something."""

import numpy as np


class AdpmError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(AdpmError):
    """Operand shapes are incompatible with the requested operation."""


class ConfigError(AdpmError):
    """A configuration value is out of its valid range."""


class UsageError(AdpmError):
    """An operation was called in a way its contract forbids."""


class ScheduleInfeasibleError(ConfigError):
    """Some lambda_j * beta^t >= 1, so the noise schedule cannot be built."""

    def __init__(self, class_index: int, t: int, value: float):
        self.class_index = class_index
        self.t = t
        self.value = value
        super().__init__(
            f"infeasible schedule: lambda*beta = {value:.6g} >= 1 "
            f"for class {class_index} at t={t}"
        )

    def __reduce__(self):
        # rebuilt from the fields, so the error survives a process pool
        return type(self), (self.class_index, self.t, self.value)


class IngestionError(AdpmError):
    """A CSV file could not be parsed; carries the offending row."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"{message} (row {row})"
        super().__init__(message)


def as_integer(name: str, value) -> int:
    """value as an int; a bool or a non-integer raises UsageError naming name."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    return int(value)
