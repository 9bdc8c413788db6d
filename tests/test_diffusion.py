import numpy as np
import pytest

from adpm.denoiser import DenoiserParams, predict_noise
from adpm.diffusion import (forward_sample, reverse_step, sample, sample_timesteps)
from adpm.errors import ShapeError, UsageError
from adpm.priors import PriorNetParams, mlp_forward, prior_bundle
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
    out = reverse_step(sched, 0, 2, np.array([0.5]), np.array([0.3]),
                       np.array([0.2]), np.array([1.0]))
    assert out[0] == pytest.approx(1.3157378651666526, abs=1e-12)


def test_reverse_step_final_step_deterministic():
    sched = small_schedule()
    y = np.array([0.4, -0.2])
    a = reverse_step(sched, 0, 1, y, np.zeros(2), np.zeros(2), np.ones(2))
    b = reverse_step(sched, 0, 1, y, np.zeros(2), np.zeros(2), -np.ones(2))
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
        got = reverse_step(sched, 0, t, y_t, np.zeros(3), eps_hat, z)
        alpha_t = 1.0 - beta[t - 1]
        sigma = np.sqrt(beta[t - 1] * (1.0 - alpha_bar[t - 1]) / (1.0 - alpha_bar[t]))
        ref = (y_t - beta[t - 1] / np.sqrt(1.0 - alpha_bar[t]) * eps_hat) \
            / np.sqrt(alpha_t) + sigma * z
        assert np.abs(got - ref).max() < 1e-14


def test_reverse_step_batched_matches_scalar_rows():
    sched = small_schedule(T=30, lam=(1.0, 3.0, 7.5))
    rng = np.random.default_rng(3)
    classes = np.array([2, 0, 1, 1, 0])
    y_t, y_f, eps_hat, z = (rng.standard_normal((5, 3)) for _ in range(4))
    for t in (30, 17, 2, 1):
        got = reverse_step(sched, classes, t, y_t, y_f, eps_hat, z)
        for r in range(5):
            assert np.array_equal(got[r], reverse_step(sched, int(classes[r]), t, y_t[r],
                                                       y_f[r], eps_hat[r], z[r]))


@pytest.mark.parametrize("bad", [-1, 3, 2.0, [0, 3]], ids=["negative", "k", "float", "row"])
def test_reverse_step_rejects_a_class_outside_the_schedule(bad):
    sched = small_schedule(T=30, lam=(1.0, 3.0, 7.5))
    y = np.zeros((2, 3)) if isinstance(bad, list) else np.zeros(3)
    with pytest.raises(UsageError, match=r"classes must be integers in \[0, 3\)"):
        reverse_step(sched, bad, 5, y, y, y, y)


def test_sample_timesteps_strided():
    ts = sample_timesteps(100, 25)
    assert ts[0] == 100 and ts[-1] == 1 and len(ts) == 25
    assert (np.diff(ts) < 0).all()
    assert np.array_equal(sample_timesteps(10, 10), np.arange(10, 0, -1))
    # one step visits T alone
    for T in (1, 2, 5, 100, 1000):
        one = sample_timesteps(T, 1)
        assert one.dtype == np.int64 and one.tobytes() == np.array([T], np.int64).tobytes()


def _sampler_fixture(k=3, T=40, seed=5):
    census = ClassCensus((60, 20, 8))
    cfg = NoiseLevelConfig(alpha=0.25, c=2.0)
    sched = build_schedule(linear_beta(T, 0.001, 0.02), lambda_vector(census, cfg))
    params = DenoiserParams.init(k, 6, 4, 4, np.random.default_rng(seed))
    return sched, params


def _batch_fixture(n=6, k=3, seed=12):
    """Fused priors (n, k) and the class of each row's noise level, every
    class on some row once n >= k."""
    rng = np.random.default_rng(seed)
    y_f = rng.dirichlet(np.ones(k), size=n)
    return y_f, rng.permutation(np.arange(n) % k)


def _gens(key, n):
    return [np.random.default_rng([key, r]) for r in range(n)]


def test_sample_batched_matches_single_rows():
    sched, params = _sampler_fixture()
    n = 6
    y_f, classes = _batch_fixture(n)
    batch = sample(sched, params, y_f, classes, _gens(7, n), steps=15)
    assert len(batch) == n
    assert len({res.lam for res in batch}) > 1  # rows run at different levels
    for r, res in enumerate(batch):
        one = sample(sched, params, y_f[r:r + 1], classes[r:r + 1],
                     [np.random.default_rng([7, r])], steps=15)[0]
        assert np.abs(res.y0 - one.y0).max() <= 1e-9
        assert res.pred_class == one.pred_class and res.lam == one.lam
        assert res.lam == sched.lam[classes[r]]


def test_sample_rejects_generator_count():
    sched, params = _sampler_fixture()
    y_f, classes = _batch_fixture(3)
    with pytest.raises(ShapeError):
        sample(sched, params, y_f, classes, _gens(0, 1), steps=5)


def test_sample_rejects_a_class_count_or_prior_shape_that_does_not_match():
    sched, params = _sampler_fixture()
    y_f, classes = _batch_fixture(3)
    with pytest.raises(ShapeError, match=r"shape \(3, 3\), 2 classes, 3 generators"):
        sample(sched, params, y_f, classes[:2], _gens(0, 3), steps=5)
    with pytest.raises(ShapeError, match=r"shape \(3,\), 1 classes, 1 generators"):
        sample(sched, params, y_f[0], classes[:1], _gens(0, 1), steps=5)


def test_sample_deterministic_under_seed():
    sched, params = _sampler_fixture()
    y_f, classes = _batch_fixture(1)
    runs = [sample(sched, params, y_f, classes, _gens(7, 1), steps=10)[0] for _ in range(2)]
    assert np.array_equal(runs[0].y0, runs[1].y0)
    assert runs[0].pred_class == runs[1].pred_class
    assert runs[0].lam == runs[1].lam


def test_sample_trace_snapshot_count_and_order():
    sched, params = _sampler_fixture()
    steps = 13
    y_f, classes = _batch_fixture(4)
    batch = sample(sched, params, y_f, classes, _gens(8, 4), steps=steps, trace=True)
    row = sample(sched, params, y_f[:1], classes[:1], [np.random.default_rng(8)], steps=steps,
                 trace=True)
    for one in [row, *batch]:
        assert len(one.trace) == steps + 1
        ts = [t for t, _ in one.trace]
        assert ts[0] == sched.T and ts[-1] == 0
        assert all(a > b for a, b in zip(ts, ts[1:]))
        assert np.array_equal(one.trace[-1][1], one.y0)


def test_sample_isotropic_reference_trajectory():
    # the isotropic schedule with zero priors must track an independently
    # coded isotropic chain fed the identical random stream
    k, T, steps = 3, 30, 30
    sched = build_schedule(linear_beta(T, 0.001, 0.02), np.array([1.0] * k))
    params = DenoiserParams.init(k, 6, 4, 4, np.random.default_rng(9))

    res = sample(sched, params, np.zeros((1, k)), [2], [np.random.default_rng(11)],
                 steps=steps)[0]

    rng = np.random.default_rng(11)
    beta = sched.beta
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - beta)])
    y = rng.standard_normal((1, k))
    for t in range(T, 0, -1):
        z = rng.standard_normal((1, k))
        eps_hat = predict_noise(params, y, np.zeros((1, k)), t, T)
        sigma = np.sqrt(beta[t - 1] * (1.0 - alpha_bar[t - 1]) / (1.0 - alpha_bar[t]))
        y = (y - beta[t - 1] / np.sqrt(1.0 - alpha_bar[t]) * eps_hat) \
            / np.sqrt(1.0 - beta[t - 1]) + sigma * z
    assert res.lam == 1.0
    assert np.abs(res.y0 - y[0]).max() < 1e-12


def test_signal_coefficient_ordering_across_classes():
    sched = small_schedule(T=25, lam=(1.0, 2.5, 9.0))
    root = np.sqrt(sched.gamma)
    assert (root[0] >= root[1]).all() and (root[1] >= root[2]).all()


def _refuse_the_loop(monkeypatch):
    import adpm.denoiser

    def no_step(*args, **kwargs):
        raise AssertionError("the loop started")
    monkeypatch.setattr(adpm.denoiser.DenoiserParams, "trunk", no_step)


def _fails_before_any_generator_advances(sched, params, y_f, classes, steps, error, match):
    rngs = _gens(1, y_f.shape[0])
    before = [g.bit_generator.state for g in rngs]
    with pytest.raises(error, match=match):
        sample(sched, params, y_f, classes, rngs, steps=steps)
    assert [g.bit_generator.state for g in rngs] == before


@pytest.mark.parametrize("bad", [[0, -1, 1], [0, 3, 1], [0.0, 1.0, 2.0]],
                         ids=["negative", "k", "float"])
def test_sample_rejects_a_class_outside_the_schedule(monkeypatch, bad):
    _refuse_the_loop(monkeypatch)
    sched, params = _sampler_fixture()
    _fails_before_any_generator_advances(sched, params, np.zeros((3, 3)), np.array(bad), 5,
                                         UsageError, r"classes must be integers in \[0, 3\)")


def test_sample_singular_visited_step_fails_before_loop(monkeypatch):
    # t = 10 is the third of the 5 visited steps (20, 15, 10, 6, 1): the
    # check runs before the loop, not when the chains reach it
    _refuse_the_loop(monkeypatch)
    base = small_schedule()
    gamma = base.gamma.copy()
    gamma[1, 10] = 1.0  # no feasible schedule holds gamma^t = 1 for t >= 1
    sched = NoiseSchedule(beta=base.beta, lam=base.lam, gamma=gamma)
    assert 10 in sample_timesteps(sched.T, 5)
    _fails_before_any_generator_advances(
        sched, DenoiserParams.init(2, 4, 2, 4, np.random.default_rng(0)), np.zeros((3, 2)),
        np.array([0, 1, 1]), 5, UsageError, "singular at t=10")


def test_sample_rejects_a_label_width_the_denoiser_does_not_have(monkeypatch):
    _refuse_the_loop(monkeypatch)
    sched, params = _sampler_fixture()
    _fails_before_any_generator_advances(sched, params, np.full((2, 4), 0.25),
                                         np.array([0, 1]), 5, ShapeError, "k=3.*k=4")


def _oracle_case(case, n=9):
    """sample's schedule, denoiser, priors, classes and generator keys for
    one input, an n-row batch whose rows run at every level of the census,
    or that batch on the isotropic schedule."""
    sched, params = _sampler_fixture()
    y_f, classes = _batch_fixture(n)
    if case == "single":
        return sched, params, y_f[:1], classes[:1], [8]
    if case == "iso":
        sched = build_schedule(sched.beta, np.ones(sched.k))
    return sched, params, y_f, classes, [[8, r] for r in range(n)]


# _sampler_fixture has T = 40
@pytest.mark.parametrize("steps", [40, 13], ids=["steps=T", "steps<T"])
@pytest.mark.parametrize("case", ["single", "batch", "iso"])
def test_sample_matches_the_per_step_oracle_bitwise(case, steps):
    sched, params, y_f, classes, keys = _oracle_case(case)

    def gens():
        return [np.random.default_rng(key) for key in keys]
    got = sample(sched, params, y_f, classes, gens(), steps, trace=True)
    want_lam = sched.lam[classes]
    if case == "batch":
        assert len(np.unique(want_lam)) == 3  # every level of the census
    y0, trace = sampler_oracle.sample(sched, params, y_f, want_lam, gens(), steps)
    assert got.lam.tobytes() == want_lam.tobytes()
    assert got.y0.tobytes() == y0.tobytes()
    assert [r.pred_class for r in got] == list(np.argmax(y0, axis=1))
    assert [t for t, _ in got.trace] == [t for t, _ in trace]
    for (_, a), (_, b) in zip(got.trace, trace):
        assert a.tobytes() == b.tobytes()

    untraced = sample(sched, params, y_f, classes, gens(), steps)
    assert untraced.trace is None
    assert untraced.y0.tobytes() == got.y0.tobytes()


def _adversarial_logits(rng, n, k):
    """(n, k) logits at one scale, with exact ties and 1-ulp near-ties of
    the row maximum among random rows."""
    scale = 10.0 ** rng.uniform(-300, np.log10(800))
    logits = scale * rng.standard_normal((n, k))
    for r in range(n):
        top = int(np.argmax(logits[r]))
        other = int(rng.integers(k))
        kind = rng.integers(3)
        if kind == 0:
            logits[r, other] = logits[r, top]
        elif kind == 1:
            logits[r, other] = np.nextafter(logits[r, top], rng.choice([-np.inf, np.inf]))
    return logits


@pytest.mark.parametrize("seed", range(8))
def test_prior_argmax_picks_the_level_inference_lambda_picks(seed):
    # classify_dataset runs each row at the class argmax(y_g) of its global
    # prior; inference_lambda picks the same class from the same logits,
    # ties included, at every scale. A prior network whose hidden layer is
    # the identity turns the rows of w2 into the logits, exactly.
    rng = np.random.default_rng([31, seed])
    census = ClassCensus((90, 40, 12, 5, 5, 2))
    cfg = NoiseLevelConfig(alpha=1.0 / 6.0, c=5.0)
    sched = build_schedule(linear_beta(100, 1e-4, 0.004), lambda_vector(census, cfg))
    n = 16
    for _ in range(40):
        k = int(rng.integers(2, census.k + 1))
        logits = _adversarial_logits(rng, n, k)
        params = PriorNetParams(w1=40.0 * np.eye(n), b1=np.zeros((1, n)), w2=logits,
                                b2=np.zeros((1, k)), mask_size=1)
        assert mlp_forward(params, np.eye(n))[1].tobytes() == logits.tobytes()
        y_g = prior_bundle(params, np.eye(n)).y_g
        sub = ClassCensus(census.counts[:k])
        sub_lam = build_schedule(sched.beta, lambda_vector(sub, cfg)).lam
        assert sub_lam[np.argmax(y_g, axis=1)].tobytes() == \
            inference_lambda(logits, sub, cfg).tobytes()
