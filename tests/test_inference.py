import re

import numpy as np
import pytest

from adpm.data import DatasetTable, LongTailSpec, generate_longtail, split_fractions
from adpm.errors import ConfigError, UsageError
from adpm.inference import classify_dataset
from adpm.priors import mlp_forward, prior_bundle
from adpm.schedule import ClassCensus, NoiseLevelConfig, inference_lambda
from adpm.trainer import TrainConfig, fit, noise_schedule

import sampler_oracle


@pytest.fixture(scope="module")
def trained():
    table = generate_longtail(LongTailSpec(k=3, head_count=15, decay=0.6, d=3,
                                           separation=6.0, spread=1.0, seed=21))
    train, test = split_fractions(table, (0.7, 0.3), seed=21)
    cfg = TrainConfig(T=20, sample_steps=8, epochs=3, warmup_epochs=10, seed=21,
                      hidden=6, attn_dim=4, time_dim=4, prior_hidden=6, batch_size=16)
    return fit(train, cfg), test


@pytest.fixture(scope="module")
def desk_shaped():
    # the desk workload's shapes (k=6, d=8, default widths), where a 1-row
    # matmul takes a different BLAS path than the same row in a batch
    table = generate_longtail(LongTailSpec(k=6, head_count=40, decay=0.57, d=8,
                                           separation=6.0, spread=1.0, seed=22))
    train, test = split_fractions(table, (0.7, 0.3), seed=22)
    cfg = TrainConfig(T=20, sample_steps=5, epochs=2, warmup_epochs=5, seed=22)
    return fit(train, cfg), test


def test_classify_deterministic_and_ordered(trained):
    ckpt, test = trained
    a = classify_dataset(ckpt, test)
    b = classify_dataset(ckpt, test)
    assert np.array_equal(a.predictions, b.predictions)
    assert np.array_equal(a.results[0].y0, b.results[0].y0)
    assert len(a.results) == test.n


def test_per_input_streams_independent_of_subset(trained, desk_shaped):
    # a row's chain draws nothing and depends on no other row, so
    # evaluating a prefix gives the same results as evaluating everything;
    # a 1-row table is padded to two rows, so it too matches bitwise
    for ckpt, test in (trained, desk_shaped):
        full = classify_dataset(ckpt, test)
        for m in (4, 2, 1):
            prefix = classify_dataset(ckpt, test.take(range(m)))
            assert np.array_equal(full.predictions[:m], prefix.predictions)
            assert np.array_equal(full.prior_predictions[:m], prefix.prior_predictions)
            assert len(prefix.results) == m
            for i in range(m):
                assert np.array_equal(full.results[i].y0, prefix.results[i].y0)


def test_steps_override_and_trace(trained):
    ckpt, test = trained
    out = classify_dataset(ckpt, test.take([0]), steps=5, trace=True)
    assert len(out.results[0].trace) == 6
    assert out.steps == 5
    assert classify_dataset(ckpt, test.take([0])).steps == ckpt.config.sample_steps


def test_lambda_comes_from_frozen_prior_census(trained):
    ckpt, test = trained
    lam_table = noise_schedule(ckpt.counts, ckpt.config).lam
    out = classify_dataset(ckpt, test)
    assert set(r.lam for r in out.results) <= set(float(v) for v in lam_table)
    # the one prior network picks each row's level: its global prior's argmax
    y_g = prior_bundle(ckpt.model.prior, test.features).y_g
    assert np.array_equal(out.results.lam, lam_table[np.argmax(y_g, axis=1)])


def test_k_mismatch_rejected(trained):
    ckpt, test = trained
    wide = DatasetTable(test.features, test.labels, 5)
    with pytest.raises(ConfigError):
        classify_dataset(ckpt, wide)


def test_d_mismatch_rejected(trained):
    ckpt, test = trained
    narrow = DatasetTable(test.features[:, :2], test.labels, test.k)
    with pytest.raises(ConfigError, match="d=3.*d=2"):
        classify_dataset(ckpt, narrow)


def test_prior_predictions_are_fused_prior_argmax(trained):
    ckpt, test = trained
    out = classify_dataset(ckpt, test)
    y_f = prior_bundle(ckpt.model.prior, test.features).y_f
    assert np.array_equal(out.prior_predictions, np.argmax(y_f, axis=1))
    assert out.prior_predictions.dtype == out.predictions.dtype


def test_denoiser_runs_without_a_tape(trained, monkeypatch):
    # the sampler runs the denoiser's forward pass only: no tape, no backward
    import adpm.autodiff
    import adpm.denoiser

    def refuse(*args, **kwargs):
        raise AssertionError("the sampler built a tape or ran a backward pass")
    monkeypatch.setattr(adpm.autodiff.Tape, "__init__", refuse)
    monkeypatch.setattr(adpm.denoiser.DenoiserParams, "backward", refuse)
    ckpt, test = trained
    assert classify_dataset(ckpt, test.take(range(3))).predictions.shape == (3,)


def test_classify_runs_the_prior_once_per_branch(trained, monkeypatch):
    # one global pass gives y_g (which picks each row's noise level), one
    # local pass y_l; y_f is their mean
    import adpm.priors

    calls = []
    forward = adpm.priors.mlp_forward

    def counting(params, x):
        calls.append(x.shape)
        return forward(params, x)
    monkeypatch.setattr(adpm.priors, "mlp_forward", counting)
    ckpt, test = trained
    classify_dataset(ckpt, test)
    assert calls == [(test.n, test.d)] * 2


def test_classify_builds_no_tape(trained, monkeypatch):
    import adpm.autodiff

    def no_tape(*args, **kwargs):
        raise AssertionError("classify_dataset built an autodiff tape")
    monkeypatch.setattr(adpm.autodiff.Tape, "__init__", no_tape)
    ckpt, test = trained
    for rows in (test, test.take([0])):
        assert classify_dataset(ckpt, rows).predictions.shape == (rows.n,)


def test_empty_table(trained):
    ckpt, test = trained
    out = classify_dataset(ckpt, test.take([]))
    assert out.predictions.shape == (0,) and len(out.results) == 0


def test_one_row_table_matches_the_per_step_oracle_bitwise(trained, desk_shaped):
    # a 1-row table runs as two copies of the row, as the oracle's two
    # rows do
    for ckpt, test in (trained, desk_shaped):
        cfg = ckpt.config
        out = classify_dataset(ckpt, test.take([1]), trace=True)
        x = test.features[[1, 1]]
        lam = inference_lambda(mlp_forward(ckpt.model.prior, x)[1], ClassCensus(ckpt.counts),
                               NoiseLevelConfig(alpha=cfg.alpha, c=cfg.c))
        bundle = prior_bundle(ckpt.model.prior, x)
        y0, trace = sampler_oracle.sample(noise_schedule(ckpt.counts, cfg),
                                          ckpt.model.denoiser, bundle.y_f, lam,
                                          cfg.sample_steps)
        assert out.results.y0.tobytes() == y0[:1].tobytes()
        assert out.predictions.tolist() == [int(np.argmax(y0[0]))]
        assert [t for t, _ in out.results[0].trace] == [t for t, _ in trace]
        for (_, a), (_, b) in zip(out.results[0].trace, trace):
            assert a.tobytes() == b[0].tobytes()


def test_folded_chains_track_the_unfolded_network(trained, desk_shaped):
    # classify's chains, on the folded trunk, against the same chains run
    # step by step through the network as it is trained
    from adpm.denoiser import predict_noise

    for ckpt, test in (trained, desk_shaped):
        cfg = ckpt.config
        out = classify_dataset(ckpt, test)
        lam = inference_lambda(mlp_forward(ckpt.model.prior, test.features)[1],
                               ClassCensus(ckpt.counts), NoiseLevelConfig(alpha=cfg.alpha, c=cfg.c))
        y0, _ = sampler_oracle.sample(noise_schedule(ckpt.counts, cfg), ckpt.model.denoiser,
                                      prior_bundle(ckpt.model.prior, test.features).y_f, lam,
                                      cfg.sample_steps, predict=predict_noise)
        sampler_oracle.assert_tracks(out.results.y0, y0)
        assert out.predictions.tolist() == np.argmax(y0, axis=1).tolist()


def test_classify_builds_no_generator(trained, monkeypatch):
    # classification draws nothing, for a whole table or a padded 1-row one
    def refuse(*args, **kwargs):
        raise AssertionError("classify_dataset built a random generator")
    monkeypatch.setattr(np.random, "default_rng", refuse)
    ckpt, test = trained
    for rows in (test, test.take([1])):
        assert classify_dataset(ckpt, rows, trace=True).predictions.shape == (rows.n,)


def _clear_caches():
    import adpm.diffusion
    import adpm.trainer
    adpm.trainer._schedule.cache_clear()
    adpm.diffusion.sampler_plan.cache_clear()


def test_classify_runs_the_trunk_once_per_step_and_gamma_once_per_level(trained, monkeypatch):
    # structural guard on the sampler's cost, with no timing in it: work
    # that does not depend on the chains' states (the time projection and
    # the folding of the weights) stays out of the loop, which runs the
    # folded trunk once per step and training's trunk never; the gamma
    # rows are the k rows of the one schedule build, indexed by class, and
    # the step table is built once per plan; a second call on the same
    # checkpoint builds neither
    import adpm.diffusion
    import adpm.schedule
    from adpm.denoiser import DenoiserParams, FoldedTrunk
    from adpm.schedule import NoiseSchedule

    calls = {}

    def count(owner, name):
        method = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return method(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    count(DenoiserParams, "trunk")
    count(DenoiserParams, "fold")
    count(FoldedTrunk, "step")
    count(DenoiserParams, "project_time")
    count(NoiseSchedule, "gamma_for")
    count(adpm.schedule, "_gamma_row")
    count(adpm.diffusion, "_step_table")
    ckpt, test = trained
    k = len(ckpt.counts)
    steps = ckpt.config.sample_steps
    once = {"fold": 1, "project_time": 1}
    _clear_caches()
    assert np.unique(classify_dataset(ckpt, test).results.lam).size > 1
    assert calls == {"step": steps, **once, "_gamma_row": k, "_step_table": 1}
    calls.clear()
    classify_dataset(ckpt, test)
    assert calls == {"step": steps, **once}
    calls.clear()
    classify_dataset(ckpt, test.take([0]), steps=5)  # two rows at one level, a new plan
    assert calls == {"step": 5, **once, "_step_table": 1}
    assert adpm.diffusion.sampler_plan.cache_info().misses == 2


def test_warm_caches_give_the_bits_of_cold_ones(trained):
    ckpt, test = trained
    warm = [classify_dataset(ckpt, rows, trace=True) for rows in (test, test.take([2]))]
    _clear_caches()
    cold = [classify_dataset(ckpt, rows, trace=True) for rows in (test, test.take([2]))]
    for a, b in zip(warm, cold):
        assert a.predictions.tobytes() == b.predictions.tobytes()
        assert a.results.y0.tobytes() == b.results.y0.tobytes()
        for (ta, sa), (tb, sb) in zip(a.results.trace, b.results.trace):
            assert ta == tb and sa.tobytes() == sb.tobytes()


def test_caches_stay_within_their_bounds():
    import adpm.diffusion
    import adpm.trainer
    from adpm.denoiser import DenoiserParams
    from adpm.diffusion import sample, sampler_plan

    T = 60
    for beta_t in np.linspace(0.01, 0.02, adpm.trainer.SCHEDULE_CACHE_SIZE + 5):
        sched = noise_schedule((5, 3), TrainConfig(T=T, sample_steps=5, betaT=float(beta_t)))
    assert adpm.trainer._schedule.cache_info().currsize == adpm.trainer.SCHEDULE_CACHE_SIZE
    params = DenoiserParams.draw((2, 4, 2, 4), np.random.default_rng(0))
    assert T > adpm.diffusion.PLAN_CACHE_SIZE
    for steps in range(1, T + 1):
        sample(sched, params, np.full((1, 2), 0.5), [0], steps)
    assert sampler_plan.cache_info().currsize == adpm.diffusion.PLAN_CACHE_SIZE


def test_outputs_are_arrays_of_their_own(trained):
    # y0 is a C-contiguous array that owns its data, and no trace
    # snapshot shares memory with another or with y0
    ckpt, test = trained
    for rows in (test, test.take([0])):
        out = classify_dataset(ckpt, rows, trace=True)
        y0 = out.results.y0
        assert y0.flags.c_contiguous and y0.flags.owndata
        arrays = [y0] + [s for _, s in out.results.trace]
        assert len(arrays) == ckpt.config.sample_steps + 2
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


@pytest.mark.parametrize("name,value", [("steps", 2.5), ("steps", True), ("steps", "3"),
                                        ("steps", np.float64(3.0))])
def test_classify_rejects_a_step_count_or_seed_that_is_not_an_integer(trained, monkeypatch,
                                                                      name, value):
    import adpm.diffusion
    import adpm.inference

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")
    monkeypatch.setattr(adpm.inference, "prior_bundle", refuse)
    monkeypatch.setattr(adpm.inference, "noise_schedule", refuse)
    monkeypatch.setattr(adpm.diffusion, "sampler_plan", refuse)
    ckpt, test = trained
    with pytest.raises(UsageError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        classify_dataset(ckpt, test, **{name: value})


def test_classify_accepts_numpy_integers(trained):
    ckpt, test = trained
    a = classify_dataset(ckpt, test, steps=5)
    b = classify_dataset(ckpt, test, steps=np.int64(5))
    assert a.results.y0.tobytes() == b.results.y0.tobytes()
    assert type(b.steps) is int and b.steps == 5
