import numpy as np
import pytest

from adpm.denoiser import DenoiserParams, predict_noise
from adpm.diffusion import (forward_sample, reverse_step, sample, sample_timesteps)
from adpm.errors import ShapeError, UsageError
from adpm.priors import PriorBundle
from adpm.schedule import (ClassCensus, NoiseLevelConfig, NoiseSchedule, build_schedule,
                           inference_lambda, lambda_vector, linear_beta)

import sampler_oracle


class ZeroRng:
    def standard_normal(self, shape):
        return np.zeros(shape)


def small_schedule(T=20, lam=(1.0, 5.0)):
    return build_schedule(linear_beta(T, 0.001, 0.02), np.array(lam))


def test_forward_t_zero_returns_y0_exactly():
    sched = small_schedule()
    y0 = np.array([1.0, 0.0, 0.0])
    prior = np.array([0.2, 0.3, 0.5])
    draw = forward_sample(sched, 0, y0, prior, 0, np.random.default_rng(0))
    assert np.array_equal(draw.y_t, y0)


def test_forward_zero_noise_zero_prior():
    sched = small_schedule()
    y0 = np.array([0.0, 1.0])
    draw = forward_sample(sched, 1, y0, np.zeros(2), 7, ZeroRng())
    assert np.array_equal(draw.y_t, np.sqrt(sched.gamma[1, 7]) * y0)


def test_forward_t_out_of_range():
    sched = small_schedule()
    with pytest.raises(UsageError):
        forward_sample(sched, 0, np.ones(2), np.zeros(2), 21, ZeroRng())


def test_forward_marginal_monte_carlo():
    sched = small_schedule(T=30, lam=(1.0, 4.0))
    rng = np.random.default_rng(1)
    y0 = np.array([1.0, 0.0])
    prior = np.array([0.6, 0.4])
    n = 20_000
    j, t = 1, 17
    draws = np.stack([forward_sample(sched, j, y0, prior, t, rng).y_t for v in range(n)])
    gamma = sched.gamma[j, t]
    expected_mean = np.sqrt(gamma) * y0 + (1 - np.sqrt(gamma)) * prior
    se = np.sqrt((1 - gamma) / n)
    assert np.abs(draws.mean(axis=0) - expected_mean).max() < 4 * se
    var = draws.var(axis=0, ddof=1)
    assert np.abs(var - (1 - gamma)).max() < 0.03 * (1 - gamma)


def test_reverse_step_hand_case():
    # beta = 0.1 twice, lambda = 2: gamma^1 = 0.8, gamma^2 = 0.64; the
    # expected value recomputes the update formula with mpmath at 30 digits
    sched = build_schedule(np.array([0.1, 0.1]), np.array([2.0]))
    assert sched.gamma[0, 1] == pytest.approx(0.8, abs=1e-15)
    assert sched.gamma[0, 2] == pytest.approx(0.64, abs=1e-15)
    out = reverse_step(sched, 2.0, 2, np.array([0.5]), np.array([0.3]),
                       np.array([0.2]), np.array([1.0]))
    assert out[0] == pytest.approx(1.3157378651666526, abs=1e-12)


def test_reverse_step_final_step_deterministic():
    sched = small_schedule()
    y = np.array([0.4, -0.2])
    a = reverse_step(sched, 1.0, 1, y, np.zeros(2), np.zeros(2), np.ones(2))
    b = reverse_step(sched, 1.0, 1, y, np.zeros(2), np.zeros(2), -np.ones(2))
    assert np.array_equal(a, b)  # sigma^1 = 0 because gamma^0 = 1


def test_reverse_step_reduces_to_isotropic_update():
    # lambda = 1, y_f = 0 must match the classic update to 1e-14
    T = 50
    beta = linear_beta(T, 0.0005, 0.03)
    sched = build_schedule(beta, np.array([1.0]))
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - beta)])
    rng = np.random.default_rng(2)
    for _ in range(300):
        t = int(rng.integers(1, T + 1))
        y_t = rng.standard_normal(3)
        eps_hat = rng.standard_normal(3)
        z = rng.standard_normal(3)
        got = reverse_step(sched, 1.0, t, y_t, np.zeros(3), eps_hat, z)
        alpha_t = 1.0 - beta[t - 1]
        sigma = np.sqrt(beta[t - 1] * (1.0 - alpha_bar[t - 1]) / (1.0 - alpha_bar[t]))
        ref = (y_t - beta[t - 1] / np.sqrt(1.0 - alpha_bar[t]) * eps_hat) \
            / np.sqrt(alpha_t) + sigma * z
        assert np.abs(got - ref).max() < 1e-14


def test_reverse_step_batched_matches_scalar_rows():
    sched = small_schedule(T=30, lam=(1.0, 3.0, 7.5))
    rng = np.random.default_rng(3)
    lam = np.array([7.5, 1.0, 3.0, 3.0, 1.0])
    y_t, y_f, eps_hat, z = (rng.standard_normal((5, 3)) for _ in range(4))
    for t in (30, 17, 2, 1):
        got = reverse_step(sched, lam, t, y_t, y_f, eps_hat, z)
        for r in range(5):
            assert np.array_equal(got[r], reverse_step(sched, float(lam[r]), t, y_t[r],
                                                       y_f[r], eps_hat[r], z[r]))


def test_sample_timesteps_strided():
    ts = sample_timesteps(100, 25)
    assert ts[0] == 100 and ts[-1] == 1 and len(ts) == 25
    assert (np.diff(ts) < 0).all()
    assert np.array_equal(sample_timesteps(10, 10), np.arange(10, 0, -1))


def _sampler_fixture(k=3, T=40, seed=5):
    census = ClassCensus((60, 20, 8))
    cfg = NoiseLevelConfig(alpha=0.25, c=2.0)
    sched = build_schedule(linear_beta(T, 0.001, 0.02), lambda_vector(census, cfg))
    params = DenoiserParams.init(k, 6, 4, 4, np.random.default_rng(seed))
    rng = np.random.default_rng(6)
    bundle = PriorBundle(*(rng.dirichlet(np.ones(k)) for _ in range(3)))
    rng.standard_normal(6)  # the former cond draw, kept so logits keep their values
    logits = rng.standard_normal(k)
    return sched, params, bundle, logits, census, cfg


def _batch_fixture(n=6, k=3, seed=12):
    rng = np.random.default_rng(seed)
    bundle = PriorBundle(*(rng.dirichlet(np.ones(k), size=n) for _ in range(3)))
    rng.standard_normal((n, 6))  # the former cond draw
    return bundle, 2.0 * rng.standard_normal((n, k))


def test_sample_batched_matches_single_rows():
    sched, params, _, _, census, cfg = _sampler_fixture()
    n = 6
    bundle, logits = _batch_fixture(n)
    batch = sample(sched, params, bundle, logits, census, cfg,
                   [np.random.default_rng([7, r]) for r in range(n)], steps=15)
    assert len(batch) == n
    assert len({res.lam for res in batch}) > 1  # rows run at different levels
    for r, res in enumerate(batch):
        row = PriorBundle(bundle.y_g[r], bundle.y_l[r], bundle.y_f[r])
        one = sample(sched, params, row, logits[r], census, cfg,
                     np.random.default_rng([7, r]), steps=15)
        assert np.abs(res.y0 - one.y0).max() <= 1e-9
        assert res.pred_class == one.pred_class and res.lam == one.lam


def test_sample_rejects_generator_count():
    sched, params, _, _, census, cfg = _sampler_fixture()
    bundle, logits = _batch_fixture(3)
    with pytest.raises(ShapeError):
        sample(sched, params, bundle, logits, census, cfg,
               [np.random.default_rng(0)], steps=5)


def test_sample_deterministic_under_seed():
    sched, params, bundle, logits, census, cfg = _sampler_fixture()
    runs = [sample(sched, params, bundle, logits, census, cfg,
                   np.random.default_rng([7, i % 1]), steps=10) for i in range(2)]
    assert np.array_equal(runs[0].y0, runs[1].y0)
    assert runs[0].pred_class == runs[1].pred_class
    assert runs[0].lam == runs[1].lam


def test_sample_trace_snapshot_count_and_order():
    sched, params, bundle, logits, census, cfg = _sampler_fixture()
    steps = 13
    res = sample(sched, params, bundle, logits, census, cfg,
                 np.random.default_rng(8), steps=steps, trace=True)
    bundle, logits = _batch_fixture(4)
    batch = sample(sched, params, bundle, logits, census, cfg,
                   [np.random.default_rng([8, r]) for r in range(4)], steps=steps, trace=True)
    for one in [res, *batch]:
        assert len(one.trace) == steps + 1
        ts = [t for t, _ in one.trace]
        assert ts[0] == sched.T and ts[-1] == 0
        assert all(a > b for a, b in zip(ts, ts[1:]))
        assert np.array_equal(one.trace[-1][1], one.y0)


def test_sample_isotropic_reference_trajectory():
    # lambda forced to 1 with zero priors must track an independently
    # coded isotropic chain fed the identical random stream
    k, T, steps = 3, 30, 30
    sched = build_schedule(linear_beta(T, 0.001, 0.02), np.array([1.0] * k))
    params = DenoiserParams.init(k, 6, 4, 4, np.random.default_rng(9))
    census = ClassCensus((5, 5, 5))
    cfg = NoiseLevelConfig(alpha=0.0, c=1.0)
    bundle = PriorBundle(np.zeros(k), np.zeros(k), np.zeros(k))

    res = sample(sched, params, bundle, np.zeros(k), census, cfg,
                 np.random.default_rng(11), steps=steps, lam=1.0)

    rng = np.random.default_rng(11)
    beta = sched.beta
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - beta)])
    y = rng.standard_normal(k)
    for t in range(T, 0, -1):
        z = rng.standard_normal(k)
        eps_hat = predict_noise(params, y, np.zeros(k), t, T)
        sigma = np.sqrt(beta[t - 1] * (1.0 - alpha_bar[t - 1]) / (1.0 - alpha_bar[t]))
        y = (y - beta[t - 1] / np.sqrt(1.0 - alpha_bar[t]) * eps_hat) \
            / np.sqrt(1.0 - beta[t - 1]) + sigma * z
    assert np.abs(res.y0 - y).max() < 1e-12


def test_signal_coefficient_ordering_across_classes():
    sched = small_schedule(T=25, lam=(1.0, 2.5, 9.0))
    root = np.sqrt(sched.gamma)
    assert (root[0] >= root[1]).all() and (root[1] >= root[2]).all()


def test_sample_infeasible_lambda_fails_before_loop():
    sched = small_schedule()
    census = ClassCensus((4, 4))
    cfg = NoiseLevelConfig(alpha=0.0, c=1.0)
    bundle = PriorBundle(np.zeros(2), np.zeros(2), np.zeros(2))
    from adpm.errors import ScheduleInfeasibleError
    with pytest.raises(ScheduleInfeasibleError):
        sample(sched, DenoiserParams.init(2, 4, 2, 4, np.random.default_rng(0)),
               bundle, np.zeros(2), census, cfg,
               np.random.default_rng(1), steps=5, lam=90.0)


def _refuse_the_loop(monkeypatch):
    import adpm.denoiser

    def no_step(*args, **kwargs):
        raise AssertionError("the loop started")
    monkeypatch.setattr(adpm.denoiser.DenoiserParams, "trunk", no_step)


def test_sample_infeasible_row_lambda_fails_before_loop(monkeypatch):
    from adpm.errors import ScheduleInfeasibleError

    _refuse_the_loop(monkeypatch)
    sched = small_schedule()
    census = ClassCensus((4, 4))
    cfg = NoiseLevelConfig(alpha=0.0, c=1.0)
    bundle = PriorBundle(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2)))
    rngs = [np.random.default_rng([1, r]) for r in range(3)]
    before = [g.bit_generator.state for g in rngs]
    with pytest.raises(ScheduleInfeasibleError):
        sample(sched, DenoiserParams.init(2, 4, 2, 4, np.random.default_rng(0)),
               bundle, np.zeros((3, 2)), census, cfg, rngs,
               steps=5, lam=np.array([1.0, 90.0, 5.0]))
    assert [g.bit_generator.state for g in rngs] == before


class SingularAt10(NoiseSchedule):
    """A schedule whose gamma rows read 1 at t = 10, which no feasible
    schedule.gamma_for returns."""

    def gamma_for(self, lam):
        row = super().gamma_for(lam)
        row[10] = 1.0
        return row


def test_sample_singular_visited_step_fails_before_loop(monkeypatch):
    # t = 10 is the third of the 5 visited steps (20, 15, 10, 6, 1): the
    # check runs before the loop, not when the chains reach it
    _refuse_the_loop(monkeypatch)
    base = small_schedule()
    sched = SingularAt10(beta=base.beta, lam=base.lam, gamma=base.gamma)
    assert 10 in sample_timesteps(sched.T, 5)
    census = ClassCensus((4, 4))
    cfg = NoiseLevelConfig(alpha=0.0, c=1.0)
    bundle = PriorBundle(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2)))
    rngs = [np.random.default_rng([1, r]) for r in range(3)]
    before = [g.bit_generator.state for g in rngs]
    with pytest.raises(UsageError, match="singular at t=10"):
        sample(sched, DenoiserParams.init(2, 4, 2, 4, np.random.default_rng(0)),
               bundle, np.zeros((3, 2)), census, cfg, rngs,
               steps=5, lam=np.array([1.0, 2.0, 5.0]))
    assert [g.bit_generator.state for g in rngs] == before


def test_sample_rejects_a_label_width_the_denoiser_does_not_have(monkeypatch):
    _refuse_the_loop(monkeypatch)
    sched, params, _, _, census, cfg = _sampler_fixture()
    bundle = PriorBundle(*(np.full((2, 4), 0.25) for _ in range(3)))
    rngs = [np.random.default_rng([1, r]) for r in range(2)]
    before = [g.bit_generator.state for g in rngs]
    with pytest.raises(ShapeError, match="k=3.*k=4"):
        sample(sched, params, bundle, np.zeros((2, 4)), census, cfg, rngs, steps=5, lam=1.0)
    assert [g.bit_generator.state for g in rngs] == before


def _oracle_case(case, n=9):
    """sample's arguments for one input, an n-row batch whose rows run at
    every level of the census, or that batch at the forced level 1."""
    sched, params, bundle, logits, census, cfg = _sampler_fixture()
    if case == "single":
        return sched, params, bundle, logits, census, cfg, None, [8]
    bundle, logits = _batch_fixture(n)
    lam = 1.0 if case == "iso" else None
    return sched, params, bundle, logits, census, cfg, lam, [[8, r] for r in range(n)]


# _sampler_fixture has T = 40
@pytest.mark.parametrize("steps", [40, 13], ids=["steps=T", "steps<T"])
@pytest.mark.parametrize("case", ["single", "batch", "iso"])
def test_sample_matches_the_per_step_oracle_bitwise(case, steps):
    sched, params, bundle, logits, census, cfg, lam, keys = _oracle_case(case)
    single = case == "single"

    def gens():
        if single:
            return np.random.default_rng(keys[0])
        return [np.random.default_rng(key) for key in keys]
    got = sample(sched, params, bundle, logits, census, cfg, gens(), steps,
                 lam=lam, trace=True)
    want_lam = inference_lambda(np.atleast_2d(logits), census, cfg) if lam is None else lam
    y0, trace = sampler_oracle.sample(sched, params, bundle.y_f, want_lam,
                                      [np.random.default_rng(key) for key in keys], steps)
    if single:
        assert got.lam == want_lam[0]
        assert got.y0.tobytes() == y0[0].tobytes()
        assert got.pred_class == int(np.argmax(y0[0]))
        got_trace = [(t, ys[None, :]) for t, ys in got.trace]
    else:
        if lam is None:
            assert len(np.unique(got.lam)) == 3  # every level of the census
        assert np.array_equal(got.lam, np.broadcast_to(want_lam, (len(keys),)))
        assert got.y0.tobytes() == y0.tobytes()
        assert [r.pred_class for r in got] == list(np.argmax(y0, axis=1))
        got_trace = got.trace
    assert [t for t, _ in got_trace] == [t for t, _ in trace]
    for (_, a), (_, b) in zip(got_trace, trace):
        assert a.tobytes() == b.tobytes()

    untraced = sample(sched, params, bundle, logits, census, cfg, gens(), steps, lam=lam)
    assert untraced.trace is None
    assert untraced.y0.tobytes() == got.y0.tobytes()
