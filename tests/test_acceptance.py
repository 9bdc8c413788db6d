"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""

import csv
import json
import time

import numpy as np
import pytest

from adpm.cli import main as cli_main
from adpm.data import LongTailSpec, generate_longtail, split_fractions

from adpm.diffusion import forward_sample, reverse_step
from adpm.inference import classify_dataset
from adpm.losses import mmd_loss
from adpm.metrics import HypothesisGrid, bound_experiment, classification_metrics
from adpm.schedule import (ClassCensus, NoiseLevelConfig, build_schedule,
                           imbalance_ratio, lambda_vector, linear_beta)
from adpm.trainer import (KERNEL_BANDWIDTH, TrainConfig, batch_loss, draw_batch_noise, fit,
                          fit_tables, init_model, named_views, noise_schedule)

def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")

def test_c01_table_parity():
    t0 = time.monotonic()
    pairs = [((845, 52), 16), ((6705, 115), 58), ((1078, 3), 359), ((1148, 6), 191)]
    for counts, expected in pairs:
        _, floored = imbalance_ratio(ClassCensus(counts))
        assert floored == expected
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"imbalance ratios 16/58/359/191 reproduced in {elapsed:.3f}s")

def test_c02_isotropic_reduction():
    rng = np.random.default_rng(100)
    T = 60
    beta = linear_beta(T, 0.0005, 0.02)
    sched = build_schedule(beta, np.array([1.0]))
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - beta)])

    worst = 0.0
    for _ in range(10_000):
        t = int(rng.integers(1, T + 1))
        y0 = rng.standard_normal(3)
        draw = forward_sample(sched, 0, y0, np.zeros(3), t, rng)
        ref = np.sqrt(alpha_bar[t]) * y0 + np.sqrt(1.0 - alpha_bar[t]) * draw.eps
        worst = max(worst, float(np.abs(draw.y_t - ref).max()))

        y_t = rng.standard_normal(3)
        eps_hat = rng.standard_normal(3)
        z = rng.standard_normal(3)
        got = reverse_step(sched, 0, t, y_t, np.zeros(3), eps_hat, z)
        sigma = np.sqrt(beta[t - 1] * (1.0 - alpha_bar[t - 1]) / (1.0 - alpha_bar[t]))
        ref = (y_t - beta[t - 1] / np.sqrt(1.0 - alpha_bar[t]) * eps_hat) \
            / np.sqrt(1.0 - beta[t - 1]) + sigma * z
        worst = max(worst, float(np.abs(got - ref).max()))
    assert worst < 1e-12
    report(2, f"forward and reverse match the isotropic reference, max |diff| = {worst:.2e}")

def test_c03_forward_marginal_monte_carlo():
    t0 = time.monotonic()
    census = ClassCensus((120, 40, 12))
    lam = lambda_vector(census, NoiseLevelConfig(alpha=1.0 / 6.0, c=2.0))
    sched = build_schedule(linear_beta(50, 1e-4, 0.01), lam)
    rng = np.random.default_rng(101)
    n = 100_000
    y0 = np.array([1.0, 0.0, 0.0])
    prior = np.array([0.5, 0.3, 0.2])
    for _ in range(5):
        j = int(rng.integers(0, 3))
        t = int(rng.integers(1, 51))
        gamma = sched.gamma[j, t]
        draws = np.empty((n, 3))
        for i in range(n):
            draws[i] = forward_sample(sched, j, y0, prior, t, rng).y_t
        expected = np.sqrt(gamma) * y0 + (1.0 - np.sqrt(gamma)) * prior
        se = np.sqrt((1.0 - gamma) / n)
        mean_err = np.abs(draws.mean(axis=0) - expected).max()
        assert mean_err < 4.0 * se, (j, t, mean_err, se)
        var_err = np.abs(draws.var(axis=0, ddof=1) - (1.0 - gamma)).max()
        assert var_err < 0.02 * (1.0 - gamma), (j, t)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(3, f"5 forward marginals verified with 1e5 draws each in {elapsed:.1f}s")

def test_c04_training_loss_gradient():
    # relative error uses max(|a|, |b|, 1e-6) as the denominator, so a
    # coordinate whose gradient is (near) zero compares against the finite
    # difference cancellation noise instead of dividing by zero
    table = generate_longtail(LongTailSpec(k=3, head_count=8, decay=0.6, d=4,
                                           separation=5.0, spread=1.0, seed=11))
    cfg = TrainConfig(T=20, sample_steps=5, epochs=1, warmup_epochs=0, seed=7,
                      hidden=6, attn_dim=4, time_dim=4, prior_hidden=5,
                      batch_size=table.n)
    model = init_model(table.d, table.k, cfg)
    sched = noise_schedule(table.class_counts(), cfg)
    draws = draw_batch_noise(np.random.default_rng(13), table.n, table.k, cfg.T)
    priors, t_table = fit_tables(model.prior, table, cfg.T, cfg.time_dim)

    def loss():
        return batch_loss(table.labels, priors, t_table, model, sched, cfg, draws)
    grads = named_views(model, loss()[1])

    # the prior is frozen after warmup, so the denoiser's blocks are the
    # trained parameters
    blocks = model.denoiser_blocks()
    names = sorted(blocks)
    flat = [(n, i) for n in names for i in range(blocks[n].size)]
    coords = np.random.default_rng(17).choice(len(flat), size=100, replace=False)

    h = 1e-5
    worst = 0.0
    for c in coords:
        name, idx = flat[c]
        view = blocks[name].reshape(-1)
        old = view[idx]
        view[idx] = old + h
        lp = loss()[0].L_total
        view[idx] = old - h
        lm = loss()[0].L_total
        view[idx] = old
        fd = (lp - lm) / (2.0 * h)
        g = grads[name].reshape(-1)[idx]
        worst = max(worst, abs(g - fd) / max(1e-6, abs(g), abs(fd)))
    assert worst < 1e-4
    report(4, f"100 finite-difference coordinates agree, worst rel err {worst:.2e}")

def test_c05_mmd_axioms():
    def mmd(a, b):
        # the MMD term training runs
        return mmd_loss(a, b, KERNEL_BANDWIDTH)[0]

    rng = np.random.default_rng(102)
    worst_self, worst_sym, worst_neg = 0.0, 0.0, 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        p = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 4))
        x = rng.standard_normal((m, cols))
        y = rng.standard_normal((p, cols))
        worst_self = max(worst_self, abs(mmd(x, x.copy())))
        forward_v = mmd(x, y)
        worst_sym = max(worst_sym, abs(forward_v - mmd(y, x)))
        worst_neg = min(worst_neg, forward_v)
    assert worst_self <= 1e-12
    assert worst_sym <= 1e-12
    assert worst_neg >= -1e-12
    report(5, f"1000 batch pairs: self {worst_self:.1e}, asym {worst_sym:.1e}, "
              f"min {worst_neg:.1e}")

def test_c06_gamma_feasibility_and_ordering():
    rng = np.random.default_rng(103)
    for _ in range(50):
        k = int(rng.integers(1, 7))
        counts = tuple(int(c) for c in rng.integers(1, 400, size=k))
        lam = lambda_vector(ClassCensus(counts),
                            NoiseLevelConfig(alpha=float(rng.uniform(0, 1)), c=2.0))
        top = 0.9 / lam.max()
        T = int(rng.integers(2, 80))
        beta = linear_beta(T, top / 20, top)
        sched = build_schedule(beta, lam)
        # recurrence against a from-scratch product oracle
        for j in range(k):
            direct = np.ones(T + 1)
            for t in range(1, T + 1):
                direct[t] = float(np.prod(1.0 - lam[j] * beta[:t]))
            assert np.abs(sched.gamma[j] - direct).max() < 1e-14
            for t in range(1, T + 1):
                assert sched.gamma[j, t] == sched.gamma[j, t - 1] * (1.0 - lam[j] * beta[t - 1])
        order = np.argsort(lam)
        assert (np.diff(sched.gamma[order], axis=0) <= 1e-15).all()
    report(6, "50 random schedules satisfy the recurrence and class ordering")

def _desk_run(seed, c):
    spec = LongTailSpec(k=6, head_count=100, decay=0.57, d=8, separation=6.0,
                        spread=1.0, seed=seed)
    table = generate_longtail(spec)
    train, test = split_fractions(table, (0.7, 0.3), seed=seed)
    cfg = TrainConfig(T=100, sample_steps=25, alpha=1.0 / 6.0, c=c, epochs=80,
                      beta1=1e-4, betaT=0.004, warmup_epochs=60, seed=seed)
    ckpt = fit(train, cfg)
    out = classify_dataset(ckpt, test, steps=25)
    rep = classification_metrics(test.labels, out.predictions, test.k)
    return rep.accuracy, rep.macro_f1

def test_c07_end_to_end_desk_scale():
    t0 = time.monotonic()
    accs, f1_aniso, f1_iso = [], [], []
    for seed in range(5):
        acc, f1 = _desk_run(seed, 5.0)
        _, f1_base = _desk_run(seed, 0.0)  # c = 0: the lambda = 1 baseline
        accs.append(acc)
        f1_aniso.append(f1)
        f1_iso.append(f1_base)
    elapsed = time.monotonic() - t0
    assert min(accs) >= 0.90
    assert np.median(f1_aniso) >= np.median(f1_iso)
    assert elapsed < 600.0
    report(7, f"min accuracy {min(accs):.3f}, median F1 {np.median(f1_aniso):.3f} vs "
              f"baseline {np.median(f1_iso):.3f}, {elapsed:.0f}s for 10 runs")

def test_c08_sweep_alpha_zero_row_constant(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = cli_main(["sweep", "--synthetic", "--k", "3", "--head-count", "10",
                     "--decay", "0.6", "--dim", "3", "--T", "12", "--sample-steps", "4",
                     "--epochs", "1", "--warmup-epochs", "1", "--hidden", "6",
                     "--seed", "5", "--alphas", "0,0.25", "--cs", "1,3,5",
                     "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    with open(out / "f1_matrix.csv") as fh:
        rows = list(csv.reader(fh))
    baseline_row = rows[1]
    assert baseline_row[0] == "0.0"
    values = baseline_row[1:]
    assert values[0] == values[1] == values[2]  # exact equality across c
    report(8, f"alpha=0 sweep row constant across c at F1 = {values[0]}")

def test_c09_generalization_bound_validation():
    t0 = time.monotonic()
    pop = generate_longtail(LongTailSpec(k=2, head_count=70_000, decay=3.0 / 7.0,
                                         d=2, separation=4.0, spread=1.0, seed=900))
    assert pop.n == 100_000

    def draw(i):
        t = generate_longtail(LongTailSpec(k=2, head_count=70, decay=3.0 / 7.0, d=2,
                                           separation=4.0, spread=1.0, seed=9000 + i))
        return t.features, t.labels

    grid = HypothesisGrid.linear(2, 8, [-1.0, 0.0, 1.0], seed=42).with_negation()
    assert grid.size <= 1024
    result = bound_experiment(draw, 200, pop.features, pop.labels, grid,
                              delta=0.05, mc_draws=200, seed=43)
    elapsed = time.monotonic() - t0
    assert result["violating_draws"] <= 10  # >= 95% of 200 draws
    assert elapsed < 300.0
    report(9, f"bound held in {200 - result['violating_draws']}/200 draws "
              f"({grid.size} hypotheses) in {elapsed:.0f}s")

def test_c10_determinism(tmp_path, capsys):
    train_args = ["train", "--synthetic", "--k", "3", "--head-count", "12",
                  "--decay", "0.6", "--dim", "3", "--T", "15", "--sample-steps", "5",
                  "--epochs", "4", "--warmup-epochs", "2", "--hidden", "6",
                  "--seed", "9", "--checkpoint-every", "2"]
    for name in ("a", "b"):
        assert cli_main(train_args + ["--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    ck_a = (tmp_path / "a" / "checkpoint.json").read_bytes()
    assert ck_a == (tmp_path / "b" / "checkpoint.json").read_bytes()

    # resume from the epoch-2 snapshot reproduces the uninterrupted bytes
    resume_out = tmp_path / "resumed"
    assert cli_main(train_args + ["--out", str(resume_out), "--resume",
                                  str(tmp_path / "a" / "checkpoint.epoch2.json")]) == 0
    capsys.readouterr()
    a = json.loads(ck_a)
    b = json.loads((resume_out / "checkpoint.json").read_text())
    assert a["blocks"] == b["blocks"] and a["optimizer"] == b["optimizer"]

    # identical seeds give identical sample and metric reports
    table = generate_longtail(LongTailSpec(k=3, head_count=12, decay=0.6, d=3,
                                           separation=6.0, spread=1.0, seed=9))
    from adpm.data import save_csv
    data_csv = tmp_path / "inputs.csv"
    save_csv(table.take(range(6)), data_csv)
    for name in ("s1", "s2"):
        assert cli_main(["sample", "--checkpoint", str(tmp_path / "a" / "checkpoint.json"),
                         "--data", str(data_csv), "--steps", "5",
                         "--out", str(tmp_path / name)]) == 0
        assert cli_main(["eval", "--checkpoint", str(tmp_path / "a" / "checkpoint.json"),
                         "--data", str(data_csv), "--steps", "5",
                         "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert (tmp_path / "s1" / "samples.json").read_bytes() == \
        (tmp_path / "s2" / "samples.json").read_bytes()
    assert (tmp_path / "s1" / "metrics.json").read_bytes() == \
        (tmp_path / "s2" / "metrics.json").read_bytes()
    report(10, "checkpoints, samples and metric reports are bitwise reproducible; "
               "resume matches uninterrupted training")
