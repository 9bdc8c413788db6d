import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adpm import optim
from adpm.autodiff import Tape, scalar
from adpm.data import LongTailSpec, generate_longtail
from adpm.denoiser import DenoiserParams, time_embed_batch
from adpm.errors import AdpmError, ConfigError, ScheduleInfeasibleError
from adpm.inference import classify_dataset
from adpm.priors import PriorNetParams, prior_bundle, warmup_train
from adpm.trainer import (BRANCHES, LEGACY_BLOCKS, Checkpoint, TrainConfig, batch_loss,
                          draw_batch_noise, fit, fit_tables, init_model, load_checkpoint,
                          model_shapes, named_views, noise_schedule, save_checkpoint)

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
    report, grad = batch_loss(table, priors, t_table, model, schedule, cfg, draws)
    return report, named_views(model, grad)


def test_zero_epoch_run_leaves_parameters_unchanged():
    table = toy_table()
    cfg = toy_config(epochs=0, warmup_epochs=0)
    before = init_model(table.d, table.k, cfg)
    ckpt = fit(table, cfg)
    assert blocks_equal(ckpt.model.blocks(), before.blocks())


def test_init_discards_one_draw_between_prior_and_denoiser():
    # the (d, hidden) draw of the former feature encoder stays in the
    # (seed, 0) stream, so the denoiser keeps its seeded values
    table = toy_table()
    cfg = toy_config(seed=3)
    model = init_model(table.d, table.k, cfg)
    rng = np.random.default_rng([cfg.seed, 0])
    prior = PriorNetParams.init(table.d, cfg.prior_hidden, table.k,
                                model.prior.mask_size, rng)
    rng.standard_normal((table.d, cfg.hidden))
    den = DenoiserParams.init(table.k, cfg.hidden, cfg.attn_dim, cfg.time_dim, rng)
    assert blocks_equal(model.prior.blocks(), prior.blocks())
    assert blocks_equal(model.denoiser.blocks(), den.blocks())


def test_fit_deterministic_bitwise():
    table = toy_table()
    cfg = toy_config()
    a = fit(table, cfg)
    b = fit(table, cfg)
    assert blocks_equal(a.model.blocks(), b.model.blocks())
    assert a.opt_state["step_count"] == b.opt_state["step_count"]
    assert blocks_equal(a.opt_state["m"], b.opt_state["m"])


def test_infeasible_schedule_fails_before_any_mutation():
    table = toy_table(k=2, head=100, decay=0.01)  # counts 100 and 1: nu = 100
    cfg = toy_config(c=100.0, alpha=1.0)
    with pytest.raises(ScheduleInfeasibleError):
        fit(table, cfg)


def test_full_batch_descent_loss_non_increasing():
    table = toy_table(k=2, head=12, decay=1.0, d=3)
    cfg = toy_config(T=20, sample_steps=5, batch_size=table.n, warmup_epochs=0,
                     optimizer="sgd", learning_rate=2e-3, hidden=6, prior_hidden=4)
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


def _desk_batch(k=6, rows=32, **cfg_kw):
    """A batch of the desk workload's shapes (d = 8, default widths)."""
    table = generate_longtail(LongTailSpec(k=k, head_count=100, decay=0.57, d=8,
                                           separation=6.0, spread=1.0, seed=0))
    cfg = TrainConfig(T=100, sample_steps=25, betaT=0.004, **cfg_kw)
    return table, table.take(np.arange(rows)), cfg


@pytest.mark.parametrize("k, rows, cfg_kw", [
    (6, 32, {}), (3, 32, {}), (6, 29, {}),
    (6, 32, {"kernel_bandwidth_mode": "median-heuristic"}), (6, 32, {"w": 0.3})],
    ids=["desk", "k3", "short-last-batch", "median-bandwidth", "w0.3"])
def test_batch_loss_matches_the_tape_bitwise(k, rows, cfg_kw):
    table, batch, cfg = _desk_batch(k, rows, **cfg_kw)
    model = init_model(table.d, table.k, cfg)
    schedule = noise_schedule(table.class_counts(), cfg)
    priors, t_table = fit_tables(model.prior, table, cfg.T, cfg.time_dim)
    idx = np.arange(rows)
    draws = draw_batch_noise(np.random.default_rng(k + rows), batch.n, batch.k, cfg.T)
    report, grad = batch_loss(batch, priors[:, idx], t_table, model, schedule, cfg, draws)
    ref_report, ref_grads = tape_batch_loss(batch, priors[:, idx], model, schedule, cfg,
                                            draws)
    assert report == ref_report
    grads = named_views(model, grad)
    assert list(grads) == list(ref_grads) and len(grads) == 12
    for name, ref in ref_grads.items():
        assert grads[name].tobytes() == ref.tobytes(), name


def test_fit_trains_on_the_whole_table_priors(monkeypatch):
    # every batch gathers its priors from one prior_bundle of the whole
    # table, computed after warmup, even at k = 3 where a per-batch bundle
    # can differ in its last bits; the time embeddings come from one table
    table = toy_table()
    cfg = toy_config(epochs=2)
    seen = []
    original = batch_loss

    def recording(batch, priors, t_table, *rest):
        seen.append((batch, priors, t_table))
        return original(batch, priors, t_table, *rest)
    monkeypatch.setattr("adpm.trainer.batch_loss", recording)
    ckpt = fit(table, cfg)
    bundle = prior_bundle(ckpt.model.prior, table.features)
    t_table = time_embed_batch(np.arange(cfg.T + 1), cfg.T, cfg.time_dim)
    step = 0
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, 2, epoch]).permutation(table.n)
        for start in range(0, table.n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch, priors, used_table = seen[step]
            assert np.array_equal(batch.features, table.features[idx])
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
        eps = draws.eps["fused"][rows]
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
        assert r["lr"] == optim.lr_at(last, 5 * steps_per_epoch, cfg.learning_rate,
                                      cfg.lr_warmup_frac)
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
    params = optim.flatten(model.denoiser.blocks().values())
    model.denoiser = DenoiserParams(**optim.unflatten(
        params, {n: a.shape for n, a in model.denoiser.blocks().items()}))
    opt = optim.Adam(cfg.learning_rate)
    rng = np.random.default_rng([cfg.seed, 2, 0])
    order = rng.permutation(table.n)
    total = -(-table.n // cfg.batch_size)
    norms = []
    for start in range(0, table.n, cfg.batch_size):
        idx = order[start:start + cfg.batch_size]
        batch = table.take(idx)
        draws = draw_batch_noise(rng, batch.n, batch.k, cfg.T)
        _, grad = batch_loss(batch, priors[:, idx], t_table, model, schedule, cfg, draws)
        norms.append(np.linalg.norm(grad))
        opt.step(params, grad, lr=optim.lr_at(opt.step_count, total, cfg.learning_rate,
                                               cfg.lr_warmup_frac))
    assert params.tobytes() == optim.flatten(ckpt.model.denoiser.blocks().values()).tobytes()
    (record,) = [json.loads(line) for line in log.read_text().splitlines()]
    assert record["grad_norm"] == pytest.approx(np.mean(norms), rel=1e-12)


def test_log_leaves_the_trained_bits_unchanged(tmp_path):
    table = toy_table()
    cfg = toy_config(epochs=4)
    quiet = fit(table, cfg)
    logged = fit(table, cfg, log_path=tmp_path / "log.jsonl")
    assert blocks_equal(quiet.model.blocks(), logged.model.blocks())
    for moment in ("m", "v"):
        assert blocks_equal(quiet.opt_state[moment], logged.opt_state[moment])


def test_checkpoint_round_trip_bitwise(tmp_path):
    table = toy_table()
    cfg = toy_config()
    ckpt = fit(table, cfg)
    path = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert blocks_equal(loaded.model.blocks(), ckpt.model.blocks())
    # Adam keeps moments for the trained denoiser blocks only
    for moment in ("m", "v"):
        assert set(ckpt.opt_state[moment]) == set(ckpt.model.denoiser_blocks())
        assert blocks_equal(loaded.opt_state[moment], ckpt.opt_state[moment])
    assert loaded.opt_state["step_count"] == ckpt.opt_state["step_count"]
    assert loaded.counts == ckpt.counts
    assert loaded.config == ckpt.config
    payload = json.loads(path.read_text())
    assert payload["version"] == 2 and "prior_frozen" not in payload


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    table = toy_table()
    ckpt = fit(table, toy_config())
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
    save_checkpoint(ckpt, path)
    return table, ckpt, path.read_text()


def test_legacy_attention_blocks_are_ignored_on_load(tmp_path, saved_run):
    table, ckpt, text = saved_run
    payload = json.loads(text)
    # earlier versions also stored the query/key projections and the feature
    # encoder, with their moments, in these shapes
    h, d_att = ckpt.config.hidden, ckpt.config.attn_dim
    legacy = {"denoiser.wq": (h, d_att), "denoiser.wk": (h, d_att),
              "encoder.w": (table.d, h), "encoder.b": (1, h)}
    assert set(legacy) == set(LEGACY_BLOCKS)
    for section in (payload["blocks"], payload["optimizer"]["m"], payload["optimizer"]["v"]):
        for name, shape in legacy.items():
            section[name] = {"shape": list(shape), "data": [0.25] * int(np.prod(shape))}
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(payload))
    loaded = load_checkpoint(path)
    assert blocks_equal(loaded.model.blocks(), ckpt.model.blocks())
    assert blocks_equal(loaded.opt_state["m"], ckpt.opt_state["m"])
    assert blocks_equal(loaded.opt_state["v"], ckpt.opt_state["v"])
    a, b = classify_dataset(ckpt, table), classify_dataset(loaded, table)
    assert np.array_equal(a.predictions, b.predictions)
    assert a.results.y0.tobytes() == b.results.y0.tobytes()


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
                 "m": {n: a.copy() for n, a in ckpt.opt_state["m"].items()},
                 "v": {n: a.copy() for n, a in ckpt.opt_state["v"].items()}}
    target = {"model": model.denoiser_blocks(), "prior": model.prior.blocks(),
              "m": opt_state["m"], "v": opt_state["v"]}[section]
    name = sorted(target)[-1]
    target[name][0, 0] = np.inf
    bad = Checkpoint(model, opt_state, ckpt.config, ckpt.epoch, ckpt.counts)
    path = tmp_path / "ckpt.json"
    with pytest.raises(ConfigError, match=f"{name}' holds a non-finite value") as info:
        save_checkpoint(bad, path)
    assert str(path) in str(info.value)
    assert os.listdir(tmp_path) == []


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
def test_config_rejects_a_bad_loss_weight(w):
    with pytest.raises(ConfigError, match="w must be finite and positive"):
        TrainConfig(w=w)


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
def test_config_rejects_a_bad_lambda_override(lam):
    with pytest.raises(ConfigError, match="lambda_override must be finite and positive"):
        TrainConfig(lambda_override=lam)
    # a checkpoint's config goes through the same check
    with pytest.raises(ConfigError, match="lambda_override must be finite and positive"):
        TrainConfig.from_dict({"lambda_override": lam})


@pytest.mark.parametrize("kernel, reason", [
    ({"kernel_bandwidth_mode": "bogus"}, "unknown bandwidth mode"),
    ({"kernel_bandwidth": 0.0}, "bandwidth must be finite and positive"),
    ({"kernel_bandwidth": float("nan")}, "bandwidth must be finite and positive")],
    ids=["mode", "zero-bandwidth", "nan-bandwidth"])
def test_config_rejects_a_bad_kernel(kernel, reason):
    with pytest.raises(ConfigError, match=reason):
        TrainConfig(**kernel)
    # the median heuristic ignores the fixed bandwidth
    TrainConfig(kernel_bandwidth=0.0, kernel_bandwidth_mode="median-heuristic")


def test_fit_rejects_a_beta1_lost_to_rounding(tmp_path):
    path = tmp_path / "ckpt.json"
    with pytest.raises(ConfigError, match=r"lambda\*beta\^1 = 1e-30 is too small for class 0"):
        fit(toy_table(), toy_config(beta1=1e-30, lambda_override=1.0), checkpoint_path=path)
    assert os.listdir(tmp_path) == []


def test_config_from_dict_checks_value_types():
    for bad in ({"T": "abc"}, {"hidden": "64"}, {"epochs": 1.5}, {"seed": True},
                {"T": None}, {"optimizer": 1}, {"learning_rate": "0.1"}):
        (key,) = bad
        with pytest.raises(ConfigError, match=f"config key {key!r}"):
            TrainConfig.from_dict(bad)
    cfg = TrainConfig.from_dict({"learning_rate": 1, "lambda_override": None,
                                 "prior_mask": None, "alpha": 0.5})
    assert cfg.learning_rate == 1 and cfg.prior_mask is None
    with pytest.raises(ConfigError, match="not a JSON object"):
        TrainConfig.from_dict([["T", 5]])


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
    assert resumed.opt_state["step_count"] == uninterrupted.opt_state["step_count"]
    assert blocks_equal(resumed.opt_state["m"], uninterrupted.opt_state["m"])
    assert blocks_equal(resumed.opt_state["v"], uninterrupted.opt_state["v"])


def test_resume_of_a_sgd_run_is_bitwise(tmp_path):
    table = toy_table()
    cfg = toy_config(epochs=4, checkpoint_every=1, optimizer="sgd")
    uninterrupted = fit(table, cfg, checkpoint_path=tmp_path / "ckpt.json")
    for done in (1, 2, 3):
        resumed = fit(table, cfg, resume=load_checkpoint(tmp_path / f"ckpt.epoch{done}.json"))
        assert blocks_equal(resumed.model.blocks(), uninterrupted.model.blocks())
        assert resumed.opt_state == {"step_count": 12}


def test_version_2_checkpoint_of_the_block_wise_trainer_resumes():
    # written by the trainer before the flat vectors and the closed-form
    # backward pass: the epoch-3 snapshot of a 6-epoch run of this config
    # (k = 4, so no product has at most 3 output columns)
    table = toy_table(k=4)
    cfg = toy_config(epochs=6, checkpoint_every=3)
    old = load_checkpoint(os.path.join(DATA, "checkpoint_v2_epoch3.json"))
    assert old.epoch == 3 and old.config == cfg
    resumed = fit(table, cfg, resume=old)
    uninterrupted = fit(table, cfg)
    assert blocks_equal(resumed.model.blocks(), uninterrupted.model.blocks())
    for moment in ("m", "v"):
        assert blocks_equal(resumed.opt_state[moment], uninterrupted.opt_state[moment])


def test_fit_freezes_the_prior_after_warmup(tmp_path):
    table = toy_table()
    cfg = toy_config(epochs=6, checkpoint_every=3)
    warm = warmup_train(init_model(table.d, table.k, cfg).prior, table, cfg.warmup_epochs,
                        lr=cfg.learning_rate, optimizer=cfg.optimizer,
                        batch_size=cfg.batch_size, seed=cfg.seed)
    path = tmp_path / "ckpt.json"
    fresh = fit(table, cfg, checkpoint_path=path)
    resumed = fit(table, cfg, resume=load_checkpoint(tmp_path / "ckpt.epoch3.json"))
    for ckpt in (fresh, resumed):
        assert blocks_equal(ckpt.model.prior.blocks(), warm.blocks())
        assert ckpt.prior_frozen is ckpt.model.prior
    assert not blocks_equal(fresh.model.denoiser_blocks(),
                            init_model(table.d, table.k, cfg).denoiser_blocks())


def _as_version_1(text, prior_frozen=True):
    """A version-1 payload made from a version-2 one: a different, jointly
    trained prior in the blocks and in Adam's moments, and the loaded
    prior as the post-warmup "prior_frozen" section."""
    payload = json.loads(text)
    payload["version"] = 1
    prior = {name: entry for name, entry in payload["blocks"].items()
             if name.startswith("prior.")}
    if prior_frozen:
        payload["prior_frozen"] = {name[len("prior."):]: entry for name, entry in prior.items()}
    for section, shift in ((payload["blocks"], 0.5), (payload["optimizer"]["m"], 0.25),
                           (payload["optimizer"]["v"], 0.125)):
        for name, entry in prior.items():
            section[name] = {"shape": entry["shape"],
                             "data": [v + shift for v in entry["data"]]}
    return json.dumps(payload)


def test_version_1_checkpoint_loads_its_frozen_prior(tmp_path, saved_run):
    table, ckpt, text = saved_run
    path = tmp_path / "v1.json"
    path.write_text(_as_version_1(text))
    assert json.loads(path.read_text())["blocks"]["prior.w1"] != \
        json.loads(text)["blocks"]["prior.w1"]
    loaded = load_checkpoint(path)
    assert blocks_equal(loaded.model.blocks(), ckpt.model.blocks())
    for moment in ("m", "v"):
        assert blocks_equal(loaded.opt_state[moment], ckpt.opt_state[moment])
    a, b = classify_dataset(ckpt, table), classify_dataset(loaded, table)
    assert np.array_equal(a.predictions, b.predictions)
    assert a.results.y0.tobytes() == b.results.y0.tobytes()


def test_version_1_checkpoint_without_frozen_prior_is_rejected(tmp_path, saved_run):
    _, _, text = saved_run
    path = tmp_path / "v1.json"
    path.write_text(_as_version_1(text, prior_frozen=False))
    with pytest.raises(ConfigError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: version-1 checkpoint missing field 'prior_frozen'"


def test_lambda_override_reproduces_isotropic_reference_run():
    """An independently assembled isotropic training loop, with alpha-bar
    products and corruption coefficients recomputed from beta alone, must
    produce the same loss curve as the lambda_override=1 configuration."""
    table = toy_table(k=2, head=20, decay=0.5, d=3, seed=6)
    cfg = toy_config(T=25, sample_steps=5, epochs=4, batch_size=8,
                     warmup_epochs=1, lambda_override=1.0, hidden=6,
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
                               lr=cfg.learning_rate, optimizer=cfg.optimizer,
                               batch_size=cfg.batch_size, seed=cfg.seed)
    params = optim.flatten(model.denoiser.blocks().values())
    model.denoiser = DenoiserParams(**optim.unflatten(
        params, {n: a.shape for n, a in model.denoiser.blocks().items()}))
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
            kc = cfg.kernel_cfg()
            l_g = mmd_loss_graph(tape, tape.const(eps["global"]), eps_hat["global"], kc)
            l_l = mmd_loss_graph(tape, tape.const(eps["local"]), eps_hat["local"], kc)
            l_eps = eps_loss_graph(tape, tape.const(eps["fused"]), eps_hat["fused"])
            l_total = total_loss_graph(tape, l_g, l_l, l_eps, cfg.w)
            grads_by_var = tape.backward(l_total)
            lr = optim.lr_at(opt.step_count, total_steps, cfg.learning_rate,
                             cfg.lr_warmup_frac)
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
    assert report.L_total == pytest.approx(cfg.w * (report.L_g + report.L_l)
                                           + report.L_eps, abs=1e-12)
    assert set(grads) == set(model.denoiser_blocks())
