"""Exception types shared across the package, and the rules every
config field and every argument that counts or seeds something obeys:
its type (fits_type), finiteness for a real number, and a lower bound
stated once in a caller's table or call (check_at_least)."""

import dataclasses
import math

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


def check_at_least(name: str, value, bound, error: type[Exception]) -> None:
    """Raise error "name must be >= bound, got value" unless value >= bound."""
    if not value >= bound:
        raise error(f"{name} must be >= {bound}, got {value}")


def check_fields(instance, at_least: dict) -> None:
    """Check each field of the dataclass instance, in field order, and
    raise ConfigError naming the first that breaks a rule: its value must
    fit its annotation (fits_type), a float field must be finite (an int
    there must convert to a finite float), and a field named in at_least
    must be at least its bound there. A fitting value that is not a plain
    int or float, such as a NumPy scalar, is stored as the plain number it
    equals, so the instance serializes to JSON."""
    for field in dataclasses.fields(instance):
        name, value = field.name, getattr(instance, field.name)
        if type(value) not in _PLAIN_TYPES[field.type]:
            if not fits_type(field.type, value):
                raise ConfigError(f"{name} must be of type {field.type}, got {value!r}")
            value = _PLAIN_TYPES[field.type][0](value)
            object.__setattr__(instance, name, value)
        if field.type == "float":
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int beyond the largest float
                raise ConfigError(f"{name} must be finite, got an int of "
                                  f"{value.bit_length()} bits, too large for a float") from None
            if not finite:
                raise ConfigError(f"{name} must be finite, got {value}")
        if name in at_least:
            check_at_least(name, value, at_least[name], ConfigError)


def as_integer(name: str, value, minimum: int | None = None) -> int:
    """value as an int; a bool, a non-integer or a value below minimum
    raises UsageError naming name."""
    if not fits_type("int", value):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None:
        check_at_least(name, value, minimum, UsageError)
    return value
