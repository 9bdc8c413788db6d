import dataclasses
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adpm import optim
from adpm.autodiff import Tape, scalar
from adpm.cli import DATA_DEFAULTS
from adpm.data import LongTailSpec, generate_longtail
from adpm.denoiser import DenoiserParams, time_embed_batch
from adpm.diffusion import forward_kernel, forward_sample
from adpm.errors import AdpmError, ConfigError, ScheduleInfeasibleError, ShapeError
from adpm.priors import PriorNetParams, prior_bundle, warmup_train
from adpm.trainer import (_CHECKPOINT_FIELDS, BRANCHES, KERNEL_BANDWIDTH, MMD_WEIGHT,
                          RETIRED_KEYS, Checkpoint, TrainConfig, batch_loss,
                          check_field_types, draw_batch_noise, fit, fit_tables, init_model,
                          load_checkpoint, model_shapes, named_views, noise_schedule,
                          save_checkpoint)

import batch_loss_oracle
from tape_oracle import (DenoiserGraph, eps_loss_graph, mmd_loss_graph, tape_batch_loss,
                         total_loss_graph)

DATA = os.path.join(os.path.dirname(__file__), "data")


def toy_table(k=3, head=24, decay=0.5, d=4, seed=0):
    return generate_longtail(LongTailSpec(k=k, head_count=head, decay=decay, d=d,
                                          separation=5.0, spread=1.0, seed=seed))


def toy_config(**kw):
    base = dict(T=30, sample_steps=10, epochs=3, batch_size=16, warmup_epochs=2,
                seed=0, hidden=8, attn_dim=4, time_dim=4, prior_hidden=6)
    base.update(kw)
    return TrainConfig(**base)


def blocks_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[n], b[n]) for n in a)


def loss_and_grads(table, model, schedule, cfg, draws):
    """batch_loss on all of table, with fit's tables for it and the
    gradient as named blocks."""
    priors, t_table = fit_tables(model.prior, table, cfg.T, cfg.time_dim)
    report, grad = batch_loss(table.labels, priors, t_table, model, schedule, draws)
    return report, named_views(model, grad)


def test_zero_epoch_run_leaves_parameters_unchanged():
    table = toy_table()
    cfg = toy_config(epochs=0, warmup_epochs=0)
    before = init_model(table.d, table.k, cfg)
    ckpt = fit(table, cfg)
    assert blocks_equal(ckpt.model.blocks(), before.blocks())


def test_init_draws_the_prior_then_the_denoiser_in_table_order():
    # stream (seed, 0) yields the weights of the prior and then of the
    # denoiser, each network in its shapes() order; biases draw nothing
    table = toy_table()
    cfg = toy_config(seed=3)
    model = init_model(table.d, table.k, cfg)
    rng = np.random.default_rng([cfg.seed, 0])
    weights = {"prior.w1", "prior.w2", "denoiser.fuse_w", "denoiser.enc_w", "denoiser.wv",
               "denoiser.wo", "denoiser.time_w", "denoiser.dec1_w", "denoiser.dec2_w"}
    expected = {name: rng.standard_normal(shape) / np.sqrt(shape[0]) if name in weights
                else np.zeros(shape)
                for name, shape in model_shapes(table.d, table.k, cfg).items()}
    assert list(model.blocks()) == list(expected)
    assert blocks_equal(model.blocks(), expected)


@pytest.mark.parametrize("how", ["extra-column", "flattened"])
@pytest.mark.parametrize("block", list(model_shapes(4, 3, toy_config())))
def test_a_mis_shaped_block_raises_shape_error(block, how):
    # every block of both networks, biases included, is checked against
    # the shape table of the dimensions the blocks give
    network, name = block.split(".")
    params = getattr(init_model(4, 3, toy_config()), network)
    arr = getattr(params, name)
    bad = np.zeros((arr.shape[0], arr.shape[1] + 1)) if how == "extra-column" else arr.ravel()
    with pytest.raises(ShapeError, match=f"^{type(params).__name__} block "):
        dataclasses.replace(params, **{name: bad})


def test_fit_deterministic_bitwise():
    table = toy_table()
    cfg = toy_config()
    a = fit(table, cfg)
    b = fit(table, cfg)
    assert blocks_equal(a.model.blocks(), b.model.blocks())
    assert blocks_equal(a.opt_state, b.opt_state)


def test_infeasible_schedule_fails_before_any_mutation():
    table = toy_table(k=2, head=100, decay=0.01)  # counts 100 and 1: nu = 100
    cfg = toy_config(c=100.0, alpha=1.0)
    with pytest.raises(ScheduleInfeasibleError):
        fit(table, cfg)


def test_full_batch_descent_loss_non_increasing():
    table = toy_table(k=2, head=12, decay=1.0, d=3)
    cfg = toy_config(T=20, sample_steps=5, batch_size=table.n, warmup_epochs=0,
                     learning_rate=2e-3, hidden=6, prior_hidden=4)
    model = init_model(table.d, table.k, cfg)
    schedule = noise_schedule(table.class_counts(), cfg)
    draws = draw_batch_noise(np.random.default_rng(1), table.n, table.k, cfg.T)
    losses = []
    blocks = model.denoiser_blocks()
    for _ in range(50):
        report, grads = loss_and_grads(table, model, schedule, cfg, draws)
        losses.append(report.L_total)
        for name in blocks:
            blocks[name] -= cfg.learning_rate * grads[name]
    assert (np.diff(losses) <= 1e-6).all()


def test_fit_builds_no_tape(tmp_path, monkeypatch):
    # warmup, the denoiser's steps and the checkpoints all run as plain numpy
    def no_tape(*args, **kwargs):
        raise AssertionError("fit built an autodiff tape")
    monkeypatch.setattr(Tape, "__init__", no_tape)
    cfg = toy_config(epochs=4, checkpoint_every=2)
    ckpt = fit(toy_table(), cfg, checkpoint_path=tmp_path / "ckpt.json",
               log_path=tmp_path / "log.jsonl")
    assert ckpt.opt_state["step_count"] == 4 * 3
    assert sorted(os.listdir(tmp_path)) == ["ckpt.epoch2.json", "ckpt.json", "log.jsonl"]


def _desk_batch(k=6, rows=32):
    """A batch of the desk workload's shapes (d = 8, default widths)."""
    table = generate_longtail(LongTailSpec(k=k, head_count=100, decay=0.57, d=8,
                                           separation=6.0, spread=1.0, seed=0))
    cfg = TrainConfig(T=100, sample_steps=25, betaT=0.004)
    return table, table.take(np.arange(rows)), cfg


@pytest.mark.parametrize("k, rows", [(6, 32), (3, 32), (6, 29)],
                         ids=["desk", "k3", "short-last-batch"])
def test_batch_loss_matches_the_tape_bitwise(k, rows):
    table, batch, cfg = _desk_batch(k, rows)
    model = init_model(table.d, table.k, cfg)
    schedule = noise_schedule(table.class_counts(), cfg)
    priors, t_table = fit_tables(model.prior, table, cfg.T, cfg.time_dim)
    idx = np.arange(rows)
    draws = draw_batch_noise(np.random.default_rng(k + rows), batch.n, batch.k, cfg.T)
    report, grad = batch_loss(batch.labels, priors[:, idx], t_table, model, schedule, draws)
    ref_report, ref_grads = tape_batch_loss(batch.labels, priors[:, idx], model, schedule,
                                            cfg, draws)
    assert report == ref_report
    grads = named_views(model, grad)
    assert list(grads) == list(ref_grads) and len(grads) == 12
    for name, ref in ref_grads.items():
        assert grads[name].tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("hidden", [2, 3, 64])
@pytest.mark.parametrize("k", [3, 6])
def test_batch_loss_matches_the_three_call_oracle_bitwise(k, hidden):
    # every batch of two epochs of a 33-row table at batch size 32, so the
    # second batch of each epoch holds one row; the gradient is written
    # into one vector, as fit writes it
    table, _, cfg = _desk_batch(k)
    per_class = [33 // k + (j < 33 % k) for j in range(k)]
    table = table.take(np.concatenate([np.flatnonzero(table.labels == j)[:n]
                                       for j, n in enumerate(per_class)]))
    cfg = dataclasses.replace(cfg, hidden=hidden)
    model = init_model(table.d, table.k, cfg)
    schedule = noise_schedule(table.class_counts(), cfg)
    priors, t_table = fit_tables(model.prior, table, cfg.T, cfg.time_dim)
    grad = np.full(sum(arr.size for arr in model.denoiser.blocks().values()), np.nan)
    sizes = []
    for epoch in range(2):
        rng = np.random.default_rng([cfg.seed, 2, epoch])
        order = rng.permutation(table.n)
        for start in range(0, table.n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            draws = draw_batch_noise(rng, idx.size, table.k, cfg.T)
            args = (table.labels[idx], priors[:, idx], t_table, model, schedule, draws)
            report, got = batch_loss(*args, grad)
            ref_report, ref_grad = batch_loss_oracle.batch_loss(*args)
            assert got is grad
            assert report == ref_report and got.tobytes() == ref_grad.tobytes()
            sizes.append(idx.size)
    assert sizes == [32, 1, 32, 1]


@pytest.mark.parametrize("nb, k", [(32, 6), (29, 3), (1, 1), (5, 7)])
def test_stacked_noise_draw_is_the_three_branch_draws_in_order(nb, k):
    # the epoch-stream contract: one (3, nb, k) draw gives the bits of the
    # timesteps and then three (nb, k) draws in branch order g, l, f, and
    # leaves the stream where those draws leave it
    stacked, sequential = (np.random.default_rng([5, 2, 1]) for _ in range(2))
    draws = draw_batch_noise(stacked, nb, k, 40)
    t = sequential.integers(1, 41, size=nb)
    eps = [sequential.standard_normal((nb, k)) for _ in BRANCHES]
    assert draws.t.tobytes() == t.tobytes()
    assert draws.eps.shape == (len(BRANCHES), nb, k)
    for branch, e in zip(draws.eps, eps):
        assert branch.tobytes() == e.tobytes()
    assert stacked.bit_generator.state == sequential.bit_generator.state
    assert stacked.standard_normal(3).tobytes() == sequential.standard_normal(3).tobytes()


def test_forward_sample_and_batch_loss_corrupt_through_forward_kernel(monkeypatch):
    calls = []

    def recording(gamma, y0, eps, prior):
        calls.append(forward_kernel(gamma, y0, eps, prior))
        return calls[-1]
    monkeypatch.setattr("adpm.diffusion.forward_kernel", recording)
    monkeypatch.setattr("adpm.trainer.forward_kernel", recording)
    table, batch, cfg = _desk_batch(rows=8)
    schedule = noise_schedule(table.class_counts(), cfg)
    draw = forward_sample(schedule, 2, np.eye(table.k)[2], np.full(table.k, 0.1), 30,
                          np.random.default_rng(0))
    assert len(calls) == 1 and calls[0] is draw.y_t

    # batch_loss corrupts the whole (3, nb, k) stack in one call and feeds
    # that output to the denoiser
    inputs = []
    forward = DenoiserParams.forward

    def recording_forward(self, y_t, *rest):
        inputs.append(y_t)
        return forward(self, y_t, *rest)
    monkeypatch.setattr(DenoiserParams, "forward", recording_forward)
    model = init_model(table.d, table.k, cfg)
    priors, t_table = fit_tables(model.prior, table, cfg.T, cfg.time_dim)
    draws = draw_batch_noise(np.random.default_rng(1), batch.n, batch.k, cfg.T)
    batch_loss(batch.labels, priors[:, :batch.n], t_table, model, schedule, draws)
    assert len(calls) == 2 and calls[1].shape == (len(BRANCHES), batch.n, batch.k)
    assert inputs[0].tobytes() == calls[1].tobytes()


def test_fit_trains_on_the_whole_table_priors(monkeypatch):
    # every batch gathers its priors from one prior_bundle of the whole
    # table, computed after warmup, even at k = 3 where a per-batch bundle
    # can differ in its last bits; the time embeddings come from one table
    table = toy_table()
    cfg = toy_config(epochs=2)
    seen = []
    original = batch_loss

    def recording(labels, priors, t_table, *rest):
        seen.append((labels, priors, t_table))
        return original(labels, priors, t_table, *rest)
    monkeypatch.setattr("adpm.trainer.batch_loss", recording)
    ckpt = fit(table, cfg)
    bundle = prior_bundle(ckpt.model.prior, table.features)
    t_table = time_embed_batch(np.arange(cfg.T + 1), cfg.T, cfg.time_dim)
    step = 0
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, 2, epoch]).permutation(table.n)
        for start in range(0, table.n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            labels, priors, used_table = seen[step]
            assert np.array_equal(labels, table.labels[idx])
            for branch, rows in zip(priors, (bundle.y_g, bundle.y_l, bundle.y_f)):
                assert branch.tobytes() == rows[idx].tobytes()
            assert used_table.tobytes() == t_table.tobytes()
            step += 1
    assert step == len(seen)


def test_eps_term_gradient_is_additive_over_samples():
    # the reconstruction term (as a sum over rows) must distribute over
    # the batch; MMD terms are deliberately batch coupled and excluded
    table = toy_table(k=2, head=4, decay=1.0, d=3, seed=4)
    cfg = toy_config(T=12, sample_steps=4, hidden=6, prior_hidden=4)
    model = init_model(table.d, table.k, cfg)
    schedule = noise_schedule(table.class_counts(), cfg)
    draws = draw_batch_noise(np.random.default_rng(2), table.n, table.k, cfg.T)

    def eps_sum_grad(rows):
        sub = table.take(rows)
        y_f = prior_bundle(model.prior, sub.features).y_f
        gamma_t = schedule.gamma[sub.labels, draws.t[rows]]
        root = np.sqrt(gamma_t)[:, None]
        eps = draws.eps[BRANCHES.index("fused")][rows]
        y_t = root * sub.onehot + np.sqrt(1 - gamma_t)[:, None] * eps + (1.0 - root) * y_f
        acts = model.denoiser.forward(
            y_t, y_f, time_embed_batch(draws.t[rows], cfg.T, cfg.time_dim))
        return model.denoiser.backward(acts, 2.0 * (acts.out - eps))

    full = eps_sum_grad(list(range(table.n)))
    summed = sum(eps_sum_grad([i]) for i in range(table.n))
    assert np.allclose(full, summed, rtol=0, atol=1e-11)


def test_fit_writes_log_records(tmp_path):
    table = toy_table()
    cfg = toy_config(epochs=5)
    log = tmp_path / "train_log.jsonl"
    fit(table, cfg, log_path=log)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(records) == 5
    assert [r["epoch"] for r in records] == list(range(5))
    steps_per_epoch = -(-table.n // cfg.batch_size)
    for r in records:
        assert abs(r["L_total"] - (0.5 * (r["L_g"] + r["L_l"]) + r["L_eps"])) < 1e-12
        # the learning rate of the epoch's last step
        last = (r["epoch"] + 1) * steps_per_epoch - 1
        assert r["lr"] == optim.lr_at(last, 5 * steps_per_epoch, cfg.learning_rate)
        assert np.isfinite(r["grad_norm"]) and r["grad_norm"] > 0


def test_log_grad_norm_is_the_mean_step_gradient_norm(tmp_path):
    table = toy_table()
    cfg = toy_config(epochs=1)
    log = tmp_path / "log.jsonl"
    ckpt = fit(table, cfg, log_path=log)
    # replay the epoch's steps from the same start
    model = init_model(table.d, table.k, cfg)
    model.prior = ckpt.model.prior
    priors, t_table = fit_tables(model.prior, table, cfg.T, cfg.time_dim)
    schedule = noise_schedule(table.class_counts(), cfg)
    model.denoiser, params = model.denoiser.flat()
    opt = optim.Adam(cfg.learning_rate)
    rng = np.random.default_rng([cfg.seed, 2, 0])
    order = rng.permutation(table.n)
    total = -(-table.n // cfg.batch_size)
    norms = []
    for start in range(0, table.n, cfg.batch_size):
        idx = order[start:start + cfg.batch_size]
        draws = draw_batch_noise(rng, idx.size, table.k, cfg.T)
        _, grad = batch_loss(table.labels[idx], priors[:, idx], t_table, model, schedule, draws)
        norms.append(np.linalg.norm(grad))
        opt.step(params, grad, lr=optim.lr_at(opt.step_count, total, cfg.learning_rate))
    assert params.tobytes() == optim.flatten(ckpt.model.denoiser.blocks().values()).tobytes()
    (record,) = [json.loads(line) for line in log.read_text().splitlines()]
    assert record["grad_norm"] == pytest.approx(np.mean(norms), rel=1e-12)


def test_log_leaves_the_trained_bits_unchanged(tmp_path):
    table = toy_table()
    cfg = toy_config(epochs=4)
    quiet = fit(table, cfg)
    logged = fit(table, cfg, log_path=tmp_path / "log.jsonl")
    assert blocks_equal(quiet.model.blocks(), logged.model.blocks())
    assert blocks_equal(quiet.opt_state, logged.opt_state)


def test_checkpoint_round_trip_bitwise(tmp_path):
    table = toy_table()
    cfg = toy_config()
    ckpt = fit(table, cfg)
    path = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert blocks_equal(loaded.model.blocks(), ckpt.model.blocks())
    assert blocks_equal(loaded.opt_state, ckpt.opt_state)
    assert loaded.counts == ckpt.counts
    assert loaded.config == ckpt.config
    payload = json.loads(path.read_text())
    assert payload["version"] == 2 and "prior_frozen" not in payload
    # Adam keeps moments for the trained denoiser blocks only, named per block
    for moment in ("m", "v"):
        assert set(payload["optimizer"][moment]) == set(ckpt.model.denoiser_blocks())


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    table = toy_table()
    ckpt = fit(table, toy_config())
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
    save_checkpoint(ckpt, path)
    return table, ckpt, path.read_text()


def _as_version_1(payload):
    payload["version"] = 1


def _with_a_legacy_block(payload):
    # earlier versions also stored the former query projection
    h, d_att = payload["config"]["hidden"], payload["config"]["attn_dim"]
    payload["blocks"]["denoiser.wq"] = {"shape": [h, d_att], "data": [0.25] * (h * d_att)}


def _config_with(key, value):
    def edit(payload):
        payload["config"][key] = value
    return edit


# each retired config key at another value than the one this trainer keeps
@pytest.mark.parametrize("edit, message", [
    (_as_version_1, "unsupported checkpoint version 1"),
    (_with_a_legacy_block, "unknown block 'denoiser.wq'"),
    (_config_with("optimizer", "sgd"), "config key 'optimizer' must be 'adam', got 'sgd'"),
    (_config_with("kernel_bandwidth_mode", "median-heuristic"),
     "config key 'kernel_bandwidth_mode' must be 'fixed', got 'median-heuristic'"),
    (_config_with("adam_beta1", 0.5), "config key 'adam_beta1' must be 0.9, got 0.5"),
    (_config_with("adam_beta2", 0.99), "config key 'adam_beta2' must be 0.999, got 0.99"),
    (_config_with("adam_eps", 1e-6), "config key 'adam_eps' must be 1e-08, got 1e-06"),
    (_config_with("lr_warmup_frac", 0.0),
     "config key 'lr_warmup_frac' must be 0.1, got 0.0"),
    (_config_with("lambda_override", 1.0),
     "config key 'lambda_override' must be None, got 1.0"),
    (_config_with("kernel_bandwidth", 0.7),
     "config key 'kernel_bandwidth' must be 1.0, got 0.7"),
    (_config_with("prior_mask", 2), "config key 'prior_mask' must be None, got 2"),
    # the retired field holds the mask size, which d = 4 now implies: 2
    (lambda payload: payload.update(prior_mask_size=1),
     "retired field 'prior_mask_size' must be 2, got 1"),
    (lambda payload: payload.update(prior_mask_size=4),
     "retired field 'prior_mask_size' must be 2, got 4")],
    ids=["version-1", "legacy-block", "sgd-optimizer", "median-bandwidth", "adam-beta1",
         "adam-beta2", "adam-eps", "lr-warmup-frac", "lambda-override-one",
         "kernel-bandwidth-0.7", "prior-mask-2", "prior-mask-size-1", "prior-mask-size-4"])
def test_checkpoint_of_a_retired_format_is_rejected(tmp_path, saved_run, edit, message):
    _, _, text = saved_run
    payload = json.loads(text)
    edit(payload)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: {message}"


def test_checkpoint_with_the_retired_keys_at_their_kept_values_loads(tmp_path, saved_run):
    _, ckpt, text = saved_run
    payload = json.loads(text)
    assert not set(RETIRED_KEYS) & set(payload["config"])  # new files omit them
    assert list(payload) == list(_CHECKPOINT_FIELDS)  # and the retired prior_mask_size
    payload["config"].update(RETIRED_KEYS)
    payload["prior_mask_size"] = 2
    path = tmp_path / "older.json"
    path.write_text(json.dumps(payload))
    loaded = load_checkpoint(path)
    assert loaded.config == ckpt.config
    assert blocks_equal(loaded.model.blocks(), ckpt.model.blocks())
    assert blocks_equal(loaded.opt_state, ckpt.opt_state)


def test_failed_checkpoint_write_keeps_existing_file(tmp_path, saved_run, monkeypatch):
    _, ckpt, text = saved_run
    path = tmp_path / "ckpt.json"
    path.write_text(text)
    before = path.read_bytes()

    def dump_then_fail(obj, fh):
        fh.write(text[:100])
        raise OSError("disk full")
    monkeypatch.setattr("adpm.trainer.json.dump", dump_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(ckpt, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["ckpt.json"]


def _drop_block(p):
    del p["blocks"]["denoiser.wv"]


def _add_block(p):
    p["blocks"]["denoiser.extra"] = {"shape": [1, 1], "data": [0.0]}


def _drop_config(p):
    del p["config"]


def _drop_version(p):
    del p["version"]


def _nan_weight(p):
    p["blocks"]["prior.w1"]["data"][0] = float("nan")


def _drop_moment(p):
    del p["optimizer"]["m"]["denoiser.dec2_b"]


def _string_config_value(p):
    p["config"]["hidden"] = "8"


def _infinite_epoch(p):
    p["epoch"] = float("inf")


@pytest.mark.parametrize("corrupt, reason", [
    (_drop_block, "missing block 'denoiser.wv'"),
    (_add_block, "unknown block 'denoiser.extra'"),
    (None, "malformed checkpoint"),
    (_drop_config, "missing field 'config'"),
    (_drop_version, "missing field 'version'"),
    (_nan_weight, "block 'prior.w1' holds a non-finite value"),
    (_drop_moment, "missing Adam moment m 'denoiser.dec2_b'"),
    (_string_config_value, "config key 'hidden' must be of type int"),
    (_infinite_epoch, "malformed checkpoint"),
], ids=["missing-block", "unknown-block", "truncated-json", "no-config",
        "no-version", "nan-weight", "missing-moment", "string-config-value",
        "infinite-epoch"])
def test_malformed_checkpoint_rejected(tmp_path, saved_run, corrupt, reason):
    _, _, text = saved_run
    if corrupt is None:
        text = text[: len(text) // 2]
    else:
        payload = json.loads(text)
        corrupt(payload)
        text = json.dumps(payload)
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value) and reason in str(info.value)


@pytest.mark.parametrize("d, k, widths", [
    (4, 3, {}), (1, 1, {"hidden": 1, "attn_dim": 1, "time_dim": 2, "prior_hidden": 1}),
    (7, 5, {"hidden": 9, "attn_dim": 3, "time_dim": 6, "prior_hidden": 2})])
def test_model_shapes_are_the_shapes_init_model_draws(d, k, widths):
    cfg = toy_config(**widths)
    shapes = {name: arr.shape for name, arr in init_model(d, k, cfg).blocks().items()}
    assert list(model_shapes(d, k, cfg).items()) == list(shapes.items())


def test_load_checkpoint_never_builds_a_model(tmp_path, saved_run, monkeypatch):
    _, ckpt, text = saved_run

    def no_model(*args):
        raise AssertionError("load_checkpoint called init_model")
    monkeypatch.setattr("adpm.trainer.init_model", no_model)
    good, wide = tmp_path / "good.json", tmp_path / "wide.json"
    good.write_text(text)
    assert blocks_equal(load_checkpoint(good).model.blocks(), ckpt.model.blocks())
    # a small file that asks for a 3000-wide denoiser is rejected by its
    # shapes, without a model of that width being built
    payload = json.loads(text)
    payload["config"]["hidden"] = 3000
    wide.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="block 'denoiser.fuse_w' has shape"):
        load_checkpoint(wide)


# large integers reach the width fields, which the shape check reads
# without building a model of that width
_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                         st.integers(10**6, 10**12),
                         st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
                         st.lists(st.integers(-1, 2), max_size=3), st.just({}))


def _mutate(data, node):
    """Replace, delete or add one value somewhere below node, in place."""
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "delete" and isinstance(node, dict):
            del node[key]
        elif action == "add" and isinstance(node, dict):
            node[data.draw(st.text(max_size=4))] = data.draw(_JSON_VALUES)
        else:
            node[key] = data.draw(_JSON_VALUES)
        return


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_load_checkpoint_fuzz_returns_checkpoint_or_adpm_error(saved_run, tmp_path_factory,
                                                               data):
    payload = json.loads(saved_run[2])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, payload)
    path = tmp_path_factory.getbasetemp() / "fuzz_ckpt.json"
    path.write_text(json.dumps(payload))
    try:
        ckpt = load_checkpoint(path)
    except AdpmError:
        return
    assert isinstance(ckpt, Checkpoint)


@pytest.mark.parametrize("section", ["model", "prior", "m", "v"])
def test_save_checkpoint_refuses_non_finite_values(tmp_path, saved_run, section):
    _, ckpt, _ = saved_run
    model = ckpt.model.copy()
    opt_state = {"step_count": ckpt.opt_state["step_count"],
                 "m": ckpt.opt_state["m"].copy(), "v": ckpt.opt_state["v"].copy()}
    target = {"model": model.denoiser_blocks(), "prior": model.prior.blocks(),
              "m": named_views(model, opt_state["m"]),
              "v": named_views(model, opt_state["v"])}[section]
    name = sorted(target)[-1]
    target[name][0, 0] = np.inf
    bad = Checkpoint(model, opt_state, ckpt.config, ckpt.epoch, ckpt.counts)
    path = tmp_path / "ckpt.json"
    with pytest.raises(ConfigError, match=f"{name}' holds a non-finite value") as info:
        save_checkpoint(bad, path)
    assert str(path) in str(info.value)
    assert os.listdir(tmp_path) == []


def test_fit_rejects_an_empty_table_before_warmup(tmp_path, monkeypatch):
    def no_warmup(*args, **kwargs):
        raise AssertionError("fit warmed up on an empty table")
    monkeypatch.setattr("adpm.trainer.warmup_train", no_warmup)
    path = tmp_path / "ckpt.json"
    empty = toy_table().take([])
    with pytest.raises(ConfigError, match="^the training table has no rows$"):
        fit(empty, toy_config(), checkpoint_path=path, log_path=tmp_path / "log.jsonl")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("change, message", [
    ({"cfg": {"hidden": 16}},
     r"resumed block 'denoiser.fuse_w' has shape \(6, 8\), expected \(6, 16\)"),
    ({"table": {"k": 4}}, r"resumed block 'prior.w2' has shape \(6, 3\), expected \(6, 4\)"),
    ({"table": {"d": 5}}, r"resumed block 'prior.w1' has shape \(4, 6\), expected \(5, 6\)")],
    ids=["wider-denoiser", "more-classes", "more-features"])
def test_resume_rejects_blocks_the_config_does_not_describe(tmp_path, saved_run, monkeypatch,
                                                            change, message):
    _, ckpt, _ = saved_run
    calls = []
    monkeypatch.setattr("adpm.trainer.batch_loss", lambda *args: calls.append(args))
    path = tmp_path / "ckpt.json"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        fit(toy_table(**change.get("table", {})), toy_config(**change.get("cfg", {})),
            checkpoint_path=path, resume=ckpt)
    assert calls == [] and os.listdir(tmp_path) == []


@pytest.mark.parametrize("first, resumed, message", [
    ({"epochs": 4}, {"epochs": 2},
     "cannot resume at epoch 4 of a 2-epoch run"),
    ({}, {"warmup_epochs": 5},
     "cannot resume with warmup_epochs=5: the checkpoint's prior was trained with "
     "warmup_epochs=2")],
    ids=["epoch-beyond-config", "changed-warmup-epochs"])
def test_resume_rejects_a_run_the_config_cannot_continue(tmp_path, monkeypatch, first, resumed,
                                                         message):
    table = toy_table()
    ckpt = fit(table, toy_config(**first))
    calls = []
    monkeypatch.setattr("adpm.trainer.batch_loss", lambda *args: calls.append(args))
    path = tmp_path / "ckpt.json"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        fit(table, toy_config(**resumed), checkpoint_path=path,
            log_path=tmp_path / "log.jsonl", resume=ckpt)
    assert calls == [] and os.listdir(tmp_path) == []


def test_fit_keeps_the_log_records_before_its_start_epoch(tmp_path):
    table = toy_table()
    cfg = toy_config(epochs=4, checkpoint_every=2)
    log = tmp_path / "log.jsonl"
    fit(table, cfg, log_path=log, checkpoint_path=tmp_path / "ckpt.json")
    uninterrupted = log.read_bytes()
    snapshot = load_checkpoint(tmp_path / "ckpt.epoch2.json")
    fit(table, cfg, log_path=log, resume=snapshot)
    assert log.read_bytes() == uninterrupted
    fit(table, cfg, log_path=log)  # a fresh run starts the log afresh
    assert log.read_bytes() == uninterrupted
    log.write_text("not json\n")
    with pytest.raises(ConfigError, match="not a training log"):
        fit(table, cfg, log_path=log, resume=snapshot)
    assert log.read_text() == "not json\n"


def test_warmup_runs_adam_with_the_configs_settings():
    # the learning rate is the config's only Adam setting
    table = toy_table()
    cfg = toy_config(epochs=0, learning_rate=3e-3)
    start = init_model(table.d, table.k, cfg).prior
    ckpt = fit(table, cfg)
    expected = warmup_train(start, table, cfg.warmup_epochs, optim.Adam(3e-3),
                            batch_size=cfg.batch_size, seed=cfg.seed)
    assert blocks_equal(ckpt.model.prior.blocks(), expected.blocks())
    default = fit(table, toy_config(epochs=0))
    assert not blocks_equal(ckpt.model.prior.blocks(), default.model.prior.blocks())


def test_fit_stops_when_the_loss_is_not_finite(tmp_path):
    path = tmp_path / "ckpt.json"
    with pytest.raises(ConfigError, match=r"epoch \d+, batch \d+: L_total is nan; "
                                          r"first non-finite gradient block: \w+\.\w+$") \
            as info:
        fit(toy_table(), toy_config(learning_rate=1e300), checkpoint_path=path)
    assert "\n" not in str(info.value)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("lr", [float("inf"), float("nan"), -1.0, 0.0])
def test_config_rejects_bad_learning_rate(lr):
    with pytest.raises(ConfigError, match="learning_rate"):
        TrainConfig(learning_rate=lr)


@pytest.mark.parametrize("name", ["hidden", "attn_dim", "time_dim", "prior_hidden"])
@pytest.mark.parametrize("width", [0, -1])
def test_config_rejects_widths_below_one(name, width):
    with pytest.raises(ConfigError, match=f"{name} must be >= 1, got {width}"):
        TrainConfig(**{name: width})


def test_config_rejects_an_odd_time_dim():
    with pytest.raises(ConfigError, match="time_dim must be even, got 5"):
        TrainConfig(time_dim=5)


@pytest.mark.parametrize("steps", [0, -3])
def test_config_rejects_sample_steps_below_one(steps):
    with pytest.raises(ConfigError, match=f"sample_steps must be >= 1, got {steps}"):
        TrainConfig(sample_steps=steps)


def test_config_rejects_a_negative_checkpoint_interval():
    with pytest.raises(ConfigError, match="checkpoint_every must be >= 0, got -1"):
        TrainConfig(checkpoint_every=-1)


def test_config_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)


@pytest.mark.parametrize("w", [0.0, -0.5, float("nan"), float("inf")])
def test_config_rejects_a_bad_loss_weight(tmp_path, saved_run, w):
    # the weight is retired (the constant MMD_WEIGHT): a config naming it is
    # rejected, and a checkpoint's config unless it holds MMD_WEIGHT
    with pytest.raises(ConfigError, match=r"^unknown config keys: \['w'\]$"):
        TrainConfig.from_dict({"w": w})
    payload = json.loads(saved_run[2])
    payload["config"]["w"] = w
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: config key 'w' must be 0.5, got {w!r}"


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
def test_config_rejects_a_bad_lambda_override(tmp_path, saved_run, lam):
    # the override is retired (c = 0 is the lambda = 1 baseline): a config
    # naming it is rejected, and a checkpoint's config unless it holds None
    with pytest.raises(ConfigError, match=r"^unknown config keys: \['lambda_override'\]$"):
        TrainConfig.from_dict({"lambda_override": lam})
    payload = json.loads(saved_run[2])
    payload["config"]["lambda_override"] = lam
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: config key 'lambda_override' must be None, got {lam!r}"


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("name, values", [
    ("alpha", (-0.1, _NAN, _INF)),
    ("c", (-1.0, -1e-300, _NAN, _INF))], ids=["alpha", "c"])
def test_config_rejects_a_bad_noise_setting(name, values):
    # alpha is checked in the c = 0 baseline too, where it leaves lambda at 1
    for value in values:
        rule = "must be finite" if value != value or value == _INF else "must be >= 0"
        for c in (5.0, 0.0):
            with pytest.raises(ConfigError) as info:
                TrainConfig(**{"c": c, name: value})
            assert str(info.value) == f"{name} {rule}, got {value}"
    # the interval end the rule includes is accepted; c = 0 is the lambda = 1 baseline
    TrainConfig(alpha=0.0, c=0.0)


def test_fit_rejects_a_beta1_lost_to_rounding(tmp_path):
    path = tmp_path / "ckpt.json"
    with pytest.raises(ConfigError, match=r"lambda\*beta\^1 = 1e-30 is too small for class 0"):
        fit(toy_table(), toy_config(beta1=1e-30, c=0.0), checkpoint_path=path)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("beta1, betaT", [(5.0, 0.001), (0.0, 0.02), (0.02, 0.01),
                                          (1e-4, 1.0), (-1e-4, 0.02)])
def test_config_applies_the_beta_rule_when_built(beta1, betaT):
    # the rule linear_beta applies, so a config that fit could not schedule
    # is not built
    with pytest.raises(ConfigError) as info:
        TrainConfig(beta1=beta1, betaT=betaT)
    assert str(info.value) == f"need 0 < beta1 <= betaT < 1, got {beta1}, {betaT}"


def test_checkpoint_with_betas_out_of_order_is_rejected(tmp_path, saved_run):
    payload = json.loads(saved_run[2])
    payload["config"].update(beta1=5.0, betaT=0.001)
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: need 0 < beta1 <= betaT < 1, got 5.0, 0.001"


@pytest.mark.parametrize("counts, shown", [([20.7, 12, 6], "(20.7, 12, 6)"),
                                           ([24, 0, 6], "(24, 0, 6)")],
                         ids=["fraction", "zero"])
def test_checkpoint_class_counts_obey_the_census_rule(tmp_path, saved_run, counts, shown):
    payload = json.loads(saved_run[2])
    payload["counts"] = counts
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: class counts must be positive integers, got {shown}"


def test_config_from_dict_checks_value_types():
    for bad in ({"T": "abc"}, {"hidden": "64"}, {"epochs": 1.5}, {"seed": True},
                {"T": None}, {"c": None}, {"beta1": "0.5"}, {"learning_rate": "0.1"}):
        (key,) = bad
        with pytest.raises(ConfigError, match=f"config key {key!r}"):
            TrainConfig.from_dict(bad)
    cfg = TrainConfig.from_dict({"learning_rate": 1, "alpha": 0.5})
    assert cfg.learning_rate == 1 and cfg.alpha == 0.5
    with pytest.raises(ConfigError, match="not a JSON object"):
        TrainConfig.from_dict([["T", 5]])


@pytest.mark.parametrize("kwargs", [
    {"T": 30, "sample_steps": 5, "warmup_epochs": 1, "epochs": 2.5}, {"T": "30"},
    {"seed": True}, {"batch_size": 4.0}, {"hidden": np.float64(6.0)}, {"c": None},
    {"alpha": np.True_}, {"learning_rate": "0.1"}],
    ids=["float-epochs", "string-T", "bool-seed", "float-batch-size", "numpy-float-hidden",
         "none-c", "numpy-bool-alpha", "string-learning-rate"])
def test_config_checks_field_types_when_built(kwargs):
    # the type rule runs before the range rules, which would raise a bare
    # TypeError on a string, and fit, which would fail after the warmup
    field = list(kwargs)[-1]
    with pytest.raises(ConfigError, match=rf"^{field} must be of type "):
        TrainConfig(**kwargs)


def test_config_keeps_numpy_numbers_as_python_ones():
    cfg = toy_config(T=np.int64(30), seed=np.uint8(3), learning_rate=np.float32(0.5),
                     c=np.float64(2.0))
    assert [type(v) for v in (cfg.T, cfg.seed, cfg.learning_rate, cfg.c)] == [int, int,
                                                                           float, float]
    assert json.loads(json.dumps(cfg.to_dict())) == toy_config(
        T=30, seed=3, learning_rate=0.5, c=2.0).to_dict()


@pytest.mark.parametrize("field, value", [("epochs", 2.5), ("T", "30"), ("seed", 1)])
def test_config_is_frozen_so_every_value_is_checked(field, value):
    # a field set after construction would skip every check; a new value
    # goes through dataclasses.replace, which checks it
    cfg = toy_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, field, value)
    assert cfg == toy_config()


def test_train_config_keeps_its_sixteen_settings():
    # Adam's betas and eps, the warmup fraction, the lambda override, the
    # MMD kernel's bandwidth and weight and the local-prior mask are
    # constants or c = 0, not settings
    assert [field.name for field in dataclasses.fields(TrainConfig)] == [
        "T", "sample_steps", "beta1", "betaT", "alpha", "c", "epochs", "batch_size",
        "learning_rate", "warmup_epochs", "seed", "hidden", "attn_dim", "time_dim",
        "prior_hidden", "checkpoint_every"]


@pytest.mark.parametrize("instance", [TrainConfig(), LongTailSpec(**DATA_DEFAULTS, seed=0)],
                         ids=["TrainConfig", "LongTailSpec"])
def test_check_field_types_accepts_every_default(instance):
    # every field's annotation has a type rule that its default passes;
    # LongTailSpec has no defaults, so its values are the CLI's defaults
    check_field_types(type(instance), dataclasses.asdict(instance))


def test_every_trained_block_gets_a_gradient():
    table = toy_table()
    cfg = toy_config()
    model = init_model(table.d, table.k, cfg)
    draws = draw_batch_noise(np.random.default_rng(5), table.n, table.k, cfg.T)
    schedule = noise_schedule(table.class_counts(), cfg)
    _, grads = loss_and_grads(table, model, schedule, cfg, draws)
    # the prior is frozen after warmup: the 12 denoiser blocks are trained
    assert sorted(grads) == sorted(f"denoiser.{name}" for name in (
        "fuse_w", "fuse_b", "enc_w", "enc_b", "wv", "wo", "time_w", "time_b",
        "dec1_w", "dec1_b", "dec2_w", "dec2_b"))
    for name, g in grads.items():
        assert g.any(), name


def test_resume_is_bitwise_equivalent(tmp_path):
    table = toy_table()
    full_cfg = toy_config(epochs=6, checkpoint_every=3)
    path = tmp_path / "ckpt.json"
    uninterrupted = fit(table, full_cfg, checkpoint_path=path)

    # the epoch-stamped snapshot plays the role of an interrupted run
    half = load_checkpoint(tmp_path / "ckpt.epoch3.json")
    assert half.epoch == 3
    resumed = fit(table, full_cfg, resume=half)
    assert blocks_equal(resumed.model.blocks(), uninterrupted.model.blocks())
    assert blocks_equal(resumed.opt_state, uninterrupted.opt_state)


def test_version_2_checkpoint_of_the_block_wise_trainer_resumes(tmp_path):
    # both files come from earlier trainers and one 6-epoch run of this
    # config (k = 4, so no product has at most 3 output columns): its
    # epoch-3 snapshot, written by the block-wise trainer, and its final
    # checkpoint, written by the trainer whose init still drew the deleted
    # encoder and query/key weights. Resuming the snapshot gives the final
    # checkpoint's blocks and Adam state bitwise. Its file equals the final
    # checkpoint's JSON but for the config keys this trainer no longer
    # writes (RETIRED_KEYS) and the retired field prior_mask_size, which
    # holds the derived max(1, d // 2) = 2.
    table = toy_table(k=4)
    cfg = toy_config(epochs=6, checkpoint_every=3)
    old = load_checkpoint(os.path.join(DATA, "checkpoint_v2_epoch3.json"))
    final = os.path.join(DATA, "checkpoint_v2_epoch6.json")
    assert old.epoch == 3 and old.config == cfg
    resumed = fit(table, cfg, resume=old)
    expected = load_checkpoint(final)
    assert blocks_equal(resumed.model.blocks(), expected.model.blocks())
    assert blocks_equal(resumed.opt_state, expected.opt_state)
    save_checkpoint(resumed, tmp_path / "resumed.json")
    with open(final, encoding="utf-8") as fh:
        payload = json.load(fh)
    for key in RETIRED_KEYS:
        assert payload["config"].pop(key) == RETIRED_KEYS[key]
    assert payload.pop("prior_mask_size") == 2
    assert json.loads((tmp_path / "resumed.json").read_text()) == payload


def test_fit_freezes_the_prior_after_warmup(tmp_path):
    table = toy_table()
    cfg = toy_config(epochs=6, checkpoint_every=3)
    warm = warmup_train(init_model(table.d, table.k, cfg).prior, table, cfg.warmup_epochs,
                        optim.Adam(cfg.learning_rate),
                        batch_size=cfg.batch_size, seed=cfg.seed)
    path = tmp_path / "ckpt.json"
    fresh = fit(table, cfg, checkpoint_path=path)
    resumed = fit(table, cfg, resume=load_checkpoint(tmp_path / "ckpt.epoch3.json"))
    for ckpt in (fresh, resumed):
        assert blocks_equal(ckpt.model.prior.blocks(), warm.blocks())
        assert ckpt.prior_frozen is ckpt.model.prior
    assert not blocks_equal(fresh.model.denoiser_blocks(),
                            init_model(table.d, table.k, cfg).denoiser_blocks())


def test_c_zero_reproduces_isotropic_reference_run():
    """An independently assembled isotropic training loop, with alpha-bar
    products and corruption coefficients recomputed from beta alone, must
    produce the same loss curve as the c = 0 configuration."""
    table = toy_table(k=2, head=20, decay=0.5, d=3, seed=6)
    cfg = toy_config(T=25, sample_steps=5, epochs=4, batch_size=8,
                     warmup_epochs=1, c=0.0, hidden=6,
                     prior_hidden=4, attn_dim=3)

    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "log.jsonl")
        ckpt = fit(table, cfg, log_path=log)
        with open(log) as fh:
            curve = [json.loads(line)["L_total"] for line in fh]

    # ---- independent isotropic loop ----
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - np.linspace(
        cfg.beta1, cfg.betaT, cfg.T))])
    model = init_model(table.d, table.k, cfg)
    model.prior = warmup_train(model.prior, table, cfg.warmup_epochs,
                               optim.Adam(cfg.learning_rate),
                               batch_size=cfg.batch_size, seed=cfg.seed)
    model.denoiser, params = model.denoiser.flat()
    opt = optim.Adam(cfg.learning_rate)
    n_batches = -(-table.n // cfg.batch_size)
    total_steps = cfg.epochs * n_batches
    ref_curve = []
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng([cfg.seed, 2, epoch])
        order = rng.permutation(table.n)
        totals = []
        for start in range(0, table.n, cfg.batch_size):
            sub = table.take(order[start:start + cfg.batch_size])
            t = rng.integers(1, cfg.T + 1, size=sub.n)
            eps = {b: rng.standard_normal((sub.n, sub.k)) for b in BRANCHES}
            tape = Tape()
            bundle = prior_bundle(model.prior, sub.features)
            den = DenoiserGraph(tape, model.denoiser)
            ab = alpha_bar[t]
            branch_prior = {"global": tape.const(bundle.y_g), "local": tape.const(bundle.y_l),
                            "fused": tape.const(bundle.y_f)}
            eps_hat = {}
            for b in BRANCHES:
                signal = tape.const(np.sqrt(ab)[:, None] * sub.onehot
                                    + np.sqrt(1.0 - ab)[:, None] * eps[b])
                coef = tape.const(np.broadcast_to(
                    1.0 - np.sqrt(ab)[:, None], (sub.n, sub.k)).copy())
                y_t = tape.add(signal, tape.mul(coef, branch_prior[b]))
                eps_hat[b] = den.predict(y_t, branch_prior[b], t, cfg.T)
            sigma = KERNEL_BANDWIDTH
            l_g = mmd_loss_graph(tape, tape.const(eps["global"]), eps_hat["global"], sigma)
            l_l = mmd_loss_graph(tape, tape.const(eps["local"]), eps_hat["local"], sigma)
            l_eps = eps_loss_graph(tape, tape.const(eps["fused"]), eps_hat["fused"])
            l_total = total_loss_graph(tape, l_g, l_l, l_eps, MMD_WEIGHT)
            grads_by_var = tape.backward(l_total)
            lr = optim.lr_at(opt.step_count, total_steps, cfg.learning_rate)
            opt.step(params, optim.flatten(grads_by_var[var] for var in den.vars.values()),
                     lr=lr)
            totals.append(scalar(l_total))
        ref_curve.append(float(np.mean(totals)))

    assert len(curve) == len(ref_curve)
    assert np.abs(np.array(curve) - np.array(ref_curve)).max() < 1e-10
    for name, arr in model.blocks().items():
        assert np.allclose(ckpt.model.blocks()[name], arr, rtol=0, atol=1e-10)


def test_separable_two_class_sampler_accuracy():
    # imbalance ratio 5; the trained sampler must classify the held-out
    # split of this separable mixture nearly perfectly
    from adpm.data import split_fractions
    from adpm.inference import classify_dataset

    table = generate_longtail(LongTailSpec(k=2, head_count=50, decay=0.2, d=4,
                                           separation=6.0, spread=1.0, seed=14))
    assert table.class_counts().tolist() == [50, 10]
    train, test = split_fractions(table, (0.7, 0.3), seed=14)
    # this seed's random init starts strongly anti-correlated, so the
    # prior needs a long warmup to cross into the right half-space
    cfg = toy_config(T=50, sample_steps=10, betaT=0.004, epochs=40,
                     warmup_epochs=150, seed=14)
    ckpt = fit(train, cfg)
    preds = classify_dataset(ckpt, test).predictions
    assert float((preds == test.labels).mean()) >= 0.95


def test_train_step_reports_consistent_total():
    table = toy_table()
    cfg = toy_config()
    model = init_model(table.d, table.k, cfg)
    schedule = noise_schedule(table.class_counts(), cfg)
    draws = draw_batch_noise(np.random.default_rng(3), table.n, table.k, cfg.T)
    report, grads = loss_and_grads(table, model, schedule, cfg, draws)
    assert report.L_total == pytest.approx(MMD_WEIGHT * (report.L_g + report.L_l)
                                           + report.L_eps, abs=1e-12)
    assert set(grads) == set(model.denoiser_blocks())


def test_noise_schedule_is_memoized_on_the_values_that_determine_it():
    cfg = TrainConfig(T=30, sample_steps=5)
    sched = noise_schedule((9, 4, 2), cfg)
    assert noise_schedule(np.array([9, 4, 2]), TrainConfig(T=30, sample_steps=7, seed=3,
                                                          epochs=2)) is sched
    for change in ({"T": 31}, {"beta1": 2e-4}, {"betaT": 0.01}, {"alpha": 0.5}, {"c": 4.0},
                   {"c": 0.0}):
        other = noise_schedule((9, 4, 2), TrainConfig(**{"T": 30, "sample_steps": 5, **change}))
        assert other is not sched
    assert noise_schedule((9, 4, 3), cfg) is not sched
    # a config rebuilt with a new value keys on it
    changed = dataclasses.replace(cfg, betaT=0.01)
    assert noise_schedule((9, 4, 2), changed) is not sched
    assert noise_schedule((9, 4, 2), changed).beta[-1] == 0.01
    # an equal value of another type is not served from the cache
    assert noise_schedule((9, 4, 2), dataclasses.replace(cfg, c=5)) is not sched
    # the config is frozen, so no value reaches the cache unchecked
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.T = 30.0
