import numpy as np
import pytest

from adpm.data import DatasetTable, LongTailSpec, generate_longtail, split_fractions
from adpm.errors import ConfigError, UsageError
from adpm.inference import classify_dataset
from adpm.priors import mlp_forward, prior_bundle
from adpm.schedule import ClassCensus, inference_lambda
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
    # input i's chain is keyed by its index, so evaluating a prefix gives
    # the same results as evaluating everything; a 1-row table is padded
    # to two rows, so it too matches bitwise
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


def test_lambda_comes_from_frozen_prior_census(trained):
    ckpt, test = trained
    lam_table = noise_schedule(ckpt.counts, ckpt.config).lam
    out = classify_dataset(ckpt, test)
    assert set(r.lam for r in out.results) <= set(float(v) for v in lam_table)
    # the one prior network picks each row's level: its global prior's argmax
    y_g = prior_bundle(ckpt.model.prior, test.features).y_g
    assert np.array_equal(out.results.lam, lam_table[np.argmax(y_g, axis=1)])


def test_negative_seed_rejected(trained):
    ckpt, test = trained
    with pytest.raises(UsageError, match="seed must be >= 0, got -1"):
        classify_dataset(ckpt, test, seed=-1)


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
    # a 1-row table runs as two copies of the row, each on stream (seed, 3, 0)
    for ckpt, test in (trained, desk_shaped):
        cfg = ckpt.config
        out = classify_dataset(ckpt, test.take([1]), trace=True)
        x = test.features[[1, 1]]
        lam = inference_lambda(mlp_forward(ckpt.model.prior, x)[1], ClassCensus(ckpt.counts),
                               cfg.noise_cfg())
        bundle = prior_bundle(ckpt.model.prior, x)
        y0, trace = sampler_oracle.sample(
            noise_schedule(ckpt.counts, cfg), ckpt.model.denoiser, bundle.y_f, lam,
            [np.random.default_rng([cfg.seed, 3, 0]) for _ in range(2)], cfg.sample_steps)
        assert out.results.y0.tobytes() == y0[:1].tobytes()
        assert out.predictions.tolist() == [int(np.argmax(y0[0]))]
        assert [t for t, _ in out.results[0].trace] == [t for t, _ in trace]
        for (_, a), (_, b) in zip(out.results[0].trace, trace):
            assert a.tobytes() == b[0].tobytes()


def test_classify_runs_the_trunk_once_per_step_and_gamma_once_per_level(trained, monkeypatch):
    # structural guard on the sampler's cost, with no timing in it: work
    # that does not depend on the chains' states (the time projection)
    # stays out of the loop, and the gamma rows are the k rows of the one
    # schedule build, indexed by class; no level's row is computed again
    import adpm.schedule
    from adpm.denoiser import DenoiserParams
    from adpm.schedule import NoiseSchedule

    calls = {}

    def count(owner, name):
        method = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return method(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    count(DenoiserParams, "trunk")
    count(DenoiserParams, "project_time")
    count(NoiseSchedule, "gamma_for")
    count(adpm.schedule, "_gamma_row")
    ckpt, test = trained
    k = len(ckpt.counts)
    assert np.unique(classify_dataset(ckpt, test).results.lam).size > 1
    assert calls == {"trunk": ckpt.config.sample_steps, "project_time": 1, "_gamma_row": k}
    calls.clear()
    classify_dataset(ckpt, test.take([0]), steps=5)  # two rows at one level
    assert calls == {"trunk": 5, "project_time": 1, "_gamma_row": k}
