import pickle

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from adpm.errors import ConfigError, ScheduleInfeasibleError
from adpm.schedule import (ClassCensus, NoiseLevelConfig, build_schedule,
                           class_proportions, imbalance_ratio, inference_lambda,
                           lambda_vector, linear_beta)

counts_strategy = st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=12)


def test_imbalance_ratio_benchmark_censuses():
    # tabulated ratios are the floor of the exact max/min
    cases = [((845, 52), 16), ((6705, 115), 58), ((1078, 3), 359), ((1148, 6), 191)]
    for counts, table in cases:
        exact, floored = imbalance_ratio(ClassCensus(counts))
        assert floored == table
        assert exact == Fraction(max(counts), min(counts))
    assert imbalance_ratio(ClassCensus((845, 52)))[0] == Fraction(65, 4)


def test_imbalance_ratio_balanced():
    exact, floored = imbalance_ratio(ClassCensus((7, 7, 7)))
    assert exact == 1 and floored == 1


def test_census_validation():
    with pytest.raises(ConfigError):
        ClassCensus(())
    with pytest.raises(ConfigError):
        ClassCensus((3, 0))


def test_class_proportions_uniform_at_alpha_zero():
    p = class_proportions(ClassCensus((5, 50, 500)), NoiseLevelConfig(alpha=0.0, c=1.0))
    assert np.allclose(p, [1 / 3] * 3, rtol=0, atol=1e-15)


def test_class_proportions_two_class_oracle():
    # counts {100, 10}, alpha = 1/2; recomputed with mpmath
    p = class_proportions(ClassCensus((100, 10)), NoiseLevelConfig(alpha=0.5, c=1.0))
    assert np.allclose(p, [0.24025307335204215, 0.7597469266479578], rtol=0, atol=1e-12)
    assert abs(p.sum() - 1.0) < 1e-12


def test_class_proportions_single_class():
    p = class_proportions(ClassCensus((42,)), NoiseLevelConfig(alpha=0.3, c=1.0))
    assert np.array_equal(p, [1.0])


@pytest.mark.filterwarnings("ignore:alpha=2000.0 is outside")
def test_class_proportions_zero_weights_rejected():
    # a large alpha underflows every n_j^-alpha to 0, so the shares are 0/0
    for call in (lambda: lambda_vector(ClassCensus((2, 3)),
                                       NoiseLevelConfig(alpha=2000.0, c=0.0)),
                 lambda: class_proportions(ClassCensus((2, 3)),
                                           NoiseLevelConfig(alpha=2000.0, c=5.0))):
        with pytest.raises(ConfigError) as info:
            call()
        assert str(info.value) == ("class proportions are undefined: n_j^-alpha underflows "
                                   "to 0 for every class at alpha=2000.0")


def test_alpha_outside_unit_interval_warns():
    with pytest.warns(UserWarning):
        NoiseLevelConfig(alpha=1.5, c=1.0)
    with pytest.raises(ConfigError):
        NoiseLevelConfig(alpha=-0.1, c=1.0)


@pytest.mark.parametrize("field", ["alpha", "c"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_noise_level_config_rejects_non_finite_values(field, value):
    kwargs = {"alpha": 0.5, "c": 1.0, field: value}
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        NoiseLevelConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [{"alpha": "0.5", "c": 1.0}, {"alpha": 0.5, "c": None},
                                    {"alpha": True, "c": 1.0}],
                         ids=["string-alpha", "none-c", "bool-alpha"])
def test_noise_level_config_checks_field_types(kwargs):
    # the type rule runs before the range rules, whose np.isfinite would
    # raise a bare TypeError on a string or None and accept a bool
    field = next(name for name, value in kwargs.items() if type(value) is not float)
    with pytest.raises(ConfigError, match=rf"^{field} must be of type float, got "):
        NoiseLevelConfig(**kwargs)


@given(counts_strategy)
def test_proportions_sum_to_one(counts):
    p = class_proportions(ClassCensus(tuple(counts)), NoiseLevelConfig(alpha=0.5, c=1.0))
    assert abs(p.sum() - 1.0) < 1e-12


def test_lambda_uniform_at_alpha_zero():
    census = ClassCensus((100, 10, 1))
    lam = lambda_vector(census, NoiseLevelConfig(alpha=0.0, c=5.0))
    nu = 100.0
    assert np.allclose(lam, 5.0 * nu / 3 + 1.0, rtol=0, atol=1e-12)


def test_lambda_two_class_oracle():
    # counts {100, 10}, alpha = 1/2, c = 5, nu = 10; recomputed with mpmath
    lam = lambda_vector(ClassCensus((100, 10)), NoiseLevelConfig(alpha=0.5, c=5.0))
    assert np.allclose(lam, [13.012653667602107, 38.987346332397896], rtol=0, atol=1e-11)


def test_lambda_single_class():
    lam = lambda_vector(ClassCensus((9,)), NoiseLevelConfig(alpha=0.5, c=5.0))
    assert np.allclose(lam, [6.0], rtol=0, atol=1e-12)


@given(counts_strategy, st.floats(min_value=0.0, max_value=1.0))
def test_lambda_properties(counts, alpha):
    census = ClassCensus(tuple(counts))
    cfg = NoiseLevelConfig(alpha=alpha, c=5.0)
    lam = lambda_vector(census, cfg)
    assert (lam >= 1.0 - 1e-12).all()
    # monotone: bigger class, no more noise
    n = np.asarray(counts)
    order = np.argsort(n)
    assert (np.diff(lam[order]) <= 1e-12).all()


@given(counts_strategy, st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=50.0))
def test_lambda_is_built_from_the_class_proportions(counts, alpha, c):
    # lambda_j = c nu p_j + 1 with the very p_j the bound weighs
    census = ClassCensus(tuple(counts))
    cfg = NoiseLevelConfig(alpha=alpha, c=c)
    exact, _ = imbalance_ratio(census)
    nu = exact.numerator / exact.denominator
    expected = c * nu * class_proportions(census, cfg) + 1.0
    assert lambda_vector(census, cfg).tobytes() == expected.tobytes()


@given(st.permutations(range(6)))
def test_lambda_permutation_equivariance(perm):
    counts = (120, 60, 30, 15, 8, 4)
    cfg = NoiseLevelConfig(alpha=0.25, c=3.0)
    lam = lambda_vector(ClassCensus(counts), cfg)
    permuted = tuple(counts[i] for i in perm)
    lam_p = lambda_vector(ClassCensus(permuted), cfg)
    assert np.array_equal(lam_p, lam[list(perm)])


def test_linear_beta_cases():
    assert np.allclose(linear_beta(2, 0.1, 0.2), [0.1, 0.2], rtol=0, atol=0)
    assert np.allclose(linear_beta(3, 0.1, 0.3), [0.1, 0.2, 0.3], rtol=0, atol=1e-16)
    beta = linear_beta(1000, 0.0001, 0.02)
    assert beta[0] == 0.0001 and beta[-1] == 0.02
    step = (0.02 - 0.0001) / 999
    assert np.allclose(np.diff(beta), step, rtol=0, atol=1e-15)
    assert np.array_equal(linear_beta(1, 0.3, 0.3), [0.3])
    # a one-step schedule is beta1 alone, whatever betaT
    for beta1, betaT in ((0.3, 0.3), (1e-4, 0.02), (0.1, 0.9)):
        one = linear_beta(1, beta1, betaT)
        assert one.dtype == np.float64 and one.tobytes() == np.array([beta1]).tobytes()


def test_linear_beta_range_violations():
    for bad in [(5, 0.0, 0.1), (5, 0.2, 0.1), (5, 0.1, 1.0), (0, 0.1, 0.2)]:
        with pytest.raises(ConfigError):
            linear_beta(*bad)


def test_gamma_constant_beta_power():
    sched = build_schedule(np.full(5, 0.1), np.array([1.0]))
    assert np.allclose(sched.gamma[0], 0.9 ** np.arange(6), rtol=0, atol=1e-15)
    assert sched.gamma[0, 2] == pytest.approx(0.81, abs=1e-15)


def test_gamma_isotropic_special_case_is_alpha_bar():
    beta = linear_beta(50, 0.001, 0.05)
    sched = build_schedule(beta, np.array([1.0]))
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - beta)])
    assert np.array_equal(sched.gamma[0], alpha_bar)


def test_gamma_class_ordering():
    beta = linear_beta(10, 0.01, 0.05)
    sched = build_schedule(beta, np.array([1.0, 5.0]))
    # direct product oracle
    for j, lam in enumerate([1.0, 5.0]):
        direct = np.ones(11)
        for t in range(1, 11):
            direct[t] = np.prod(1.0 - lam * beta[:t])
        assert np.allclose(sched.gamma[j], direct, rtol=0, atol=1e-14)
    assert (sched.gamma[1] <= sched.gamma[0]).all()


def test_gamma_recurrence_is_bitwise():
    beta = linear_beta(40, 0.001, 0.02)
    lam = np.array([1.0, 3.0, 17.0])
    sched = build_schedule(beta, lam)
    for j in range(3):
        for t in range(1, 41):
            assert sched.gamma[j, t] == sched.gamma[j, t - 1] * (1.0 - lam[j] * beta[t - 1])


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=6),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=1, max_value=60))
def test_gamma_feasible_schedules_properties(counts, alpha, T):
    census = ClassCensus(tuple(counts))
    cfg = NoiseLevelConfig(alpha=alpha, c=2.0)
    lam = lambda_vector(census, cfg)
    beta_top = 0.9 / lam.max()
    beta = linear_beta(T, beta_top / 10, beta_top)
    sched = build_schedule(beta, lam)
    assert (sched.gamma > 0).all() and (sched.gamma <= 1).all()
    assert (np.diff(sched.gamma, axis=1) < 0).all()
    order = np.argsort(lam)
    gamma_sorted = sched.gamma[order]
    assert (np.diff(gamma_sorted, axis=0) <= 1e-15).all()


def test_infeasible_schedule_names_offender():
    beta = np.array([0.01, 0.5])
    with pytest.raises(ScheduleInfeasibleError) as err:
        build_schedule(beta, np.array([1.0, 2.0]))
    assert err.value.class_index == 1
    assert err.value.t == 2


def test_infeasible_error_survives_pickling():
    # sweep cells run in a process pool, which pickles the error back
    err = pickle.loads(pickle.dumps(ScheduleInfeasibleError(1, 2, 1.5)))
    assert (err.class_index, err.t, err.value) == (1, 2, 1.5)
    assert str(err) == str(ScheduleInfeasibleError(1, 2, 1.5))


def test_schedule_rejects_a_first_step_lost_to_rounding():
    # 1 - 1e-17 rounds to 1, so gamma^1 would be 1; 1 - 1e-15 does not
    beta = linear_beta(10, 1e-17, 0.001)
    with pytest.raises(ConfigError, match=r"lambda\*beta\^1 = 1e-17 is too small for class 1"):
        build_schedule(beta, np.array([100.0, 1.0]))
    assert build_schedule(beta, np.array([100.0])).gamma[0, 1] < 1.0


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0, -2.0])
def test_schedule_rejects_a_non_finite_or_non_positive_lambda(value):
    beta = linear_beta(10, 0.001, 0.01)
    with pytest.raises(ConfigError, match="lambda must be finite and positive"):
        build_schedule(beta, np.array([1.0, value]))
    with pytest.raises(ConfigError, match="lambda must be finite and positive"):
        build_schedule(beta, np.array([1.0])).gamma_for(value)


def test_gamma_for_matches_table_row_bitwise():
    beta = linear_beta(30, 0.001, 0.03)
    lam = np.array([1.0, 4.5])
    sched = build_schedule(beta, lam)
    assert np.array_equal(sched.gamma_for(4.5), sched.gamma[1])


def test_inference_lambda_one_hot_and_ties():
    census = ClassCensus((100, 10))
    cfg = NoiseLevelConfig(alpha=0.5, c=5.0)
    lam = lambda_vector(census, cfg)
    assert inference_lambda([5.0, -1.0], census, cfg) == lam[0]
    # all-equal logits break toward the lowest index
    assert inference_lambda([0.7, 0.7], census, cfg) == lam[0]


def test_inference_lambda_two_class_oracle():
    census = ClassCensus((100, 10))
    cfg = NoiseLevelConfig(alpha=0.5, c=5.0)
    assert inference_lambda([0.1, 2.0], census, cfg) == pytest.approx(38.987346332397896, abs=1e-11)


def test_schedule_arrays_are_read_only():
    # one schedule is shared by every caller, so no caller may write it
    beta = linear_beta(10, 0.01, 0.05)
    lam = np.array([1.0, 5.0])
    sched = build_schedule(beta, lam)
    for name in ("beta", "lam", "gamma"):
        arr = getattr(sched, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            arr += 1.0
    # the caller's arrays are copied, not frozen
    assert beta.flags.writeable and lam.flags.writeable
    assert not np.shares_memory(beta, sched.beta) and not np.shares_memory(lam, sched.lam)


@given(counts_strategy, st.floats(min_value=0.0, max_value=1.0))
def test_c_zero_gives_the_isotropic_chain_bitwise(counts, alpha):
    lam = lambda_vector(ClassCensus(tuple(counts)), NoiseLevelConfig(alpha=alpha, c=0.0))
    ones = np.full(len(counts), 1.0)
    assert lam.tobytes() == ones.tobytes()
    beta = linear_beta(40, 1e-4, 0.02)
    assert build_schedule(beta, lam).gamma.tobytes() == build_schedule(beta, ones).gamma.tobytes()
    with pytest.raises(ConfigError, match="^c must be >= 0, got -1e-300$"):
        NoiseLevelConfig(alpha=alpha, c=-1e-300)
