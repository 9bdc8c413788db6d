"""The rules every config field and every count or seed argument obeys:
one type, finiteness and lower-bound check (errors.check_fields,
errors.as_integer), run by each config class when it is built."""

import dataclasses
import math

import numpy as np
import pytest

from adpm.data import LongTailSpec
from adpm.errors import ConfigError, UsageError, as_integer, check_at_least
from adpm.schedule import NoiseLevelConfig
from adpm.trainer import TrainConfig

# each config class with valid values for its fields, and the lower bound
# of each field that has one
CONFIGS = {
    "TrainConfig": (TrainConfig, {}, {
        "sample_steps": 1, "batch_size": 1, "hidden": 1, "attn_dim": 1, "time_dim": 1,
        "prior_hidden": 1, "epochs": 0, "warmup_epochs": 0, "seed": 0,
        "checkpoint_every": 0, "alpha": 0, "c": 0}),
    "LongTailSpec": (LongTailSpec, dict(k=3, head_count=10, decay=0.5, d=2, separation=4.0,
                                        spread=1.0, seed=0), {
        "k": 1, "head_count": 1, "d": 1, "separation": 0, "seed": 0}),
    "NoiseLevelConfig": (NoiseLevelConfig, dict(alpha=0.5, c=1.0), {"alpha": 0, "c": 0}),
}
# a bound that another rule of the class rejects, with that rule's message
AT_BOUND_ERRORS = {("TrainConfig", "time_dim"): "time_dim must be even, got 1"}


FLOAT_FIELDS = [pytest.param(cls, base, f.name, id=f"{cls_name}-{f.name}")
                for cls_name, (cls, base, _) in CONFIGS.items()
                for f in dataclasses.fields(cls) if f.type == "float"]
BOUNDED_FIELDS = [pytest.param(cls, base, name, bound, id=f"{cls_name}-{name}")
                  for cls_name, (cls, base, bounds) in CONFIGS.items()
                  for name, bound in bounds.items()]


@pytest.mark.parametrize("cls, base, name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)],
                         ids=["nan", "inf", "-inf", "numpy-nan"])
def test_every_float_field_must_be_finite(cls, base, name, value):
    with pytest.raises(ConfigError) as info:
        cls(**{**base, name: value})
    assert str(info.value) == f"{name} must be finite, got {float(value)}"


@pytest.mark.parametrize("cls, base, name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [10**400, -(2**1024)], ids=["10**400", "-2**1024"])
def test_every_float_field_rejects_an_int_beyond_the_largest_float(cls, base, name, value):
    with pytest.raises(ConfigError) as info:
        cls(**{**base, name: value})
    assert str(info.value) == (f"{name} must be finite, got an int of {value.bit_length()} "
                               "bits, too large for a float")


@pytest.mark.parametrize("cls, base, name", [
    param for param in FLOAT_FIELDS if param.id in (
        "TrainConfig-alpha", "TrainConfig-c", "LongTailSpec-separation",
        "LongTailSpec-spread", "NoiseLevelConfig-c")])
def test_an_int_that_fits_a_float_field_is_stored_as_it_was_given(cls, base, name):
    # the largest int that rounds to a finite float, in fields with no upper limit
    value = 2**1024 - 2**970 - 1
    got = getattr(cls(**{**base, name: value}), name)
    assert type(got) is int and got == value


@pytest.mark.parametrize("cls, base, name, bound", BOUNDED_FIELDS)
def test_every_bounded_field_rejects_one_step_below_its_bound(cls, base, name, bound):
    below = bound - 1 if cls.__dataclass_fields__[name].type == "int" \
        else math.nextafter(bound, -math.inf)
    with pytest.raises(ConfigError) as info:
        cls(**{**base, name: below})
    assert str(info.value) == f"{name} must be >= {bound}, got {below}"


@pytest.mark.parametrize("cls, base, name, bound", BOUNDED_FIELDS)
def test_every_bounded_field_accepts_its_bound(cls, base, name, bound):
    expected = AT_BOUND_ERRORS.get((cls.__name__, name))
    if expected is None:
        assert getattr(cls(**{**base, name: bound}), name) == bound
    else:
        with pytest.raises(ConfigError) as info:
            cls(**{**base, name: bound})
        assert str(info.value) == expected


def test_the_first_field_that_breaks_a_rule_is_named():
    # fields are checked in declaration order; T comes before beta1
    with pytest.raises(ConfigError, match=r"^T must be of type int, got '5'$"):
        TrainConfig(T="5", beta1=math.nan)
    with pytest.raises(ConfigError, match=r"^beta1 must be finite, got nan$"):
        TrainConfig(beta1=math.nan, epochs=-1)


@pytest.mark.parametrize("value, minimum, expected", [
    (0, None, 0), (-4, None, -4), (1, 1, 1), (np.int64(7), 1, 7), (0, 0, 0)])
def test_as_integer_returns_a_plain_int_at_or_above_its_minimum(value, minimum, expected):
    got = as_integer("n", value, minimum)
    assert got == expected and type(got) is int


@pytest.mark.parametrize("value, minimum, message", [
    (0, 1, "n must be >= 1, got 0"), (np.int64(-1), 0, "n must be >= 0, got -1"),
    (2.0, 1, "n must be an integer, got 2.0"), (True, 0, "n must be an integer, got True")])
def test_as_integer_rejects_a_non_integer_or_a_value_below_its_minimum(value, minimum, message):
    with pytest.raises(UsageError) as info:
        as_integer("n", value, minimum)
    assert str(info.value) == message


@pytest.mark.parametrize("error", [ConfigError, UsageError, ValueError])
def test_check_at_least_raises_the_callers_error_class(error):
    check_at_least("--n0", 1, 1, error)
    with pytest.raises(error) as info:
        check_at_least("--n0", 0, 1, error)
    assert type(info.value) is error and str(info.value) == "--n0 must be >= 1, got 0"
