"""Exception types shared across the package, and the type rule of
config fields and of arguments that count or seed something."""

import dataclasses

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


# the types each field annotation accepts, and the plain Python types a
# field stores; the config dataclasses' modules postpone annotations, so
# field.type is the string "int" or "float"
_FIELD_TYPES = {"int": (int, np.integer), "float": (int, float, np.integer, np.floating)}
_PLAIN_TYPES = {"int": (int,), "float": (float, int)}


def fits_type(annotation: str, value) -> bool:
    """Whether value fits a field annotated "int", as a Python or NumPy
    integer, or "float", as a Python or NumPy real number. A bool fits
    neither."""
    return not isinstance(value, bool) and isinstance(value, _FIELD_TYPES[annotation])


def check_fields(instance) -> None:
    """Raise ConfigError naming the first field of the dataclass instance
    whose value does not fit its annotation (fits_type). A fitting value
    that is not a plain int or float, such as a NumPy scalar, is stored
    as the plain number it equals, so the instance serializes to JSON."""
    for field in dataclasses.fields(instance):
        value = getattr(instance, field.name)
        if type(value) not in _PLAIN_TYPES[field.type]:
            if not fits_type(field.type, value):
                raise ConfigError(f"{field.name} must be of type {field.type}, got {value!r}")
            object.__setattr__(instance, field.name, _PLAIN_TYPES[field.type][0](value))


def as_integer(name: str, value) -> int:
    """value as an int; a bool or a non-integer raises UsageError naming name."""
    if not fits_type("int", value):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    return int(value)
