import argparse
import concurrent.futures
import csv
import json
import os

import numpy as np
import pytest

from adpm.cli import build_parser, format_exact, main
from adpm.data import DatasetTable, LongTailSpec, generate_longtail, save_csv, split_fractions
from adpm.inference import classify_dataset
from adpm.metrics import classification_metrics
from adpm.schedule import ClassCensus, NoiseLevelConfig, class_proportions
from adpm.trainer import TrainConfig, fit
from fractions import Fraction


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def small_train_args(out, extra=()):
    return ["train", "--synthetic", "--k", "3", "--head-count", "12", "--decay", "0.6",
            "--dim", "3", "--T", "15", "--sample-steps", "5", "--epochs", "2",
            "--warmup-epochs", "1", "--hidden", "6", "--seed", "1",
            "--out", str(out), *extra]


def test_format_exact():
    assert format_exact(Fraction(65, 4)) == "16.25"
    assert format_exact(Fraction(1078, 3)) == "1078/3"
    assert format_exact(Fraction(4, 2)) == "2"


def test_schedule_counts_and_ir_line(tmp_path, capsys):
    # the benchmark census with c = 5: the lambda table is well defined
    # (tail level ~50.9) but gamma is infeasible at betaT = 0.02, which
    # the command reports after writing the noise-level rows
    out = tmp_path / "sched"
    code, stdout, err = run(["schedule", "--counts", "845,52", "--alpha", "0.1667",
                             "--c", "5", "--T", "50", "--out", str(out)], capsys)
    assert "IR: 16 (16.25 exact)" in stdout
    with open(out / "schedule.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["class", "n_j", "p_j", "lambda_j"]
    assert len(rows) == 3
    lam = [float(r[3]) for r in rows[1:]]
    assert lam[1] > lam[0]  # rarer class gets more noise
    assert code == 1 and "infeasible" in err
    assert not (out / "gamma.csv").exists()
    assert (out / "resolved_config.json").exists()


def test_schedule_feasible_writes_gamma(tmp_path, capsys):
    out = tmp_path / "sched_ok"
    code, stdout, err = run(["schedule", "--counts", "845,52", "--alpha", "0.1667",
                             "--c", "2", "--T", "50", "--out", str(out)], capsys)
    assert code == 0, err
    assert "IR: 16 (16.25 exact)" in stdout
    with open(out / "gamma.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3 and len(rows[1]) == 52
    gamma_tail = np.array([float(v) for v in rows[2][1:]])
    assert gamma_tail[0] == 1.0
    assert (np.diff(gamma_tail) < 0).all()


@pytest.mark.parametrize("counts, alpha, c", [("845,52", "0.1667", "2"),
                                              ("300,40,7,7,2", "0.5", "0.75")])
def test_schedule_rows_satisfy_the_noise_level_formula(tmp_path, capsys, counts, alpha, c):
    # lambda_j = c nu p_j + 1 holds bitwise on the printed p_j
    out = tmp_path / "sched"
    code, _, err = run(["schedule", "--counts", counts, "--alpha", alpha, "--c", c,
                        "--T", "10", "--out", str(out)], capsys)
    assert code == 0, err
    with open(out / "schedule.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    n = [int(r[1]) for r in rows]
    nu = Fraction(max(n), min(n))
    scale = float(c) * (nu.numerator / nu.denominator)
    for _, _, p_j, lam_j in rows:
        assert float(lam_j) == scale * float(p_j) + 1.0


def test_schedule_alpha_zero_equal_lambdas(tmp_path, capsys):
    code, stdout, _ = run(["schedule", "--counts", "40,20,10", "--alpha", "0",
                           "--c", "3", "--T", "10"], capsys)
    assert code == 0
    rows = [line.split(",") for line in stdout.splitlines() if line and line[0].isdigit()]
    lam = {float(r[3]) for r in rows if len(r) == 4}
    assert len(lam) == 1  # identical noise level for every class


def test_schedule_missing_counts_usage_error(capsys):
    code, _, err = run(["schedule"], capsys)
    assert code == 2
    assert "counts" in err


def test_schedule_infeasible_is_runtime_error(tmp_path, capsys):
    # nu = 500 with c = 100 pushes lambda*beta far above 1
    code, _, err = run(["schedule", "--counts", "500,1", "--alpha", "1", "--c", "100",
                        "--T", "10"], capsys)
    assert code == 1
    assert "infeasible" in err


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run(["frobnicate"], capsys)
    assert code == 2


def test_train_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, err = run(small_train_args(out), capsys)
    assert code == 0, err
    assert (out / "checkpoint.json").exists()
    records = [json.loads(line) for line in (out / "train_log.jsonl").read_text().splitlines()]
    assert len(records) == 2
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["epochs"] == 2 and resolved["k"] == 3


def test_train_deterministic_checkpoints(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(small_train_args(a), capsys)[0] == 0
    assert run(small_train_args(b), capsys)[0] == 0
    assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()


def test_train_resume_matches_uninterrupted(tmp_path, capsys):
    full = tmp_path / "full"
    code, _, err = run(small_train_args(full, ["--epochs", "4", "--checkpoint-every", "2"]),
                       capsys)
    assert code == 0, err
    resumed = tmp_path / "resumed"
    code, _, err = run(small_train_args(
        resumed, ["--epochs", "4", "--resume", str(full / "checkpoint.epoch2.json")]),
        capsys)
    assert code == 0, err
    a = json.loads((full / "checkpoint.json").read_text())
    b = json.loads((resumed / "checkpoint.json").read_text())
    assert a["blocks"] == b["blocks"]
    assert a["optimizer"] == b["optimizer"]


def test_train_resume_into_the_run_directory_keeps_one_log(tmp_path, capsys):
    # the resumed run replaces the log's records from the snapshot's epoch on
    out = tmp_path / "run"
    args = small_train_args(out, ["--epochs", "4", "--checkpoint-every", "2"])
    assert run(args, capsys)[0] == 0
    uninterrupted = (out / "train_log.jsonl").read_bytes()
    code, _, err = run(small_train_args(
        out, ["--epochs", "4", "--resume", str(out / "checkpoint.epoch2.json")]), capsys)
    assert code == 0, err
    assert (out / "train_log.jsonl").read_bytes() == uninterrupted


def test_train_without_out_is_usage_error(capsys):
    code, _, err = run(["train", "--synthetic", "--epochs", "1"], capsys)
    assert code == 2


def test_train_bad_csv_cites_row(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("f0,label\n1.0,0\nnope,1\n")
    code, _, err = run(["train", "--data", str(bad), "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert "row 2" in err


def test_train_rejects_a_nan_c(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, err = run(small_train_args(out, ["--c", "nan"]), capsys)
    assert code == 1
    assert err == "error: c must be finite, got nan\n"
    assert not (out / "checkpoint.json").exists()


@pytest.mark.parametrize("command", ["schedule", "train"])
def test_a_huge_csv_label_is_a_one_line_error(tmp_path, capsys, command):
    # label 10^12 in a 2-row file would make a 10^12-class census
    huge = tmp_path / "huge.csv"
    huge.write_text("f0,label\n1.0,0\n2.0,1000000000000\n")
    code, _, err = run([command, "--data", str(huge), "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert err == (f"error: {huge}: label 1000000000000 implies 1000000000001 classes, "
                   "more than the 2 data rows (row 2)\n")


def _trained_run(tmp_path, capsys):
    out = tmp_path / "run"
    table = generate_longtail(LongTailSpec(k=3, head_count=12, decay=0.6, d=3,
                                           separation=6.0, spread=1.0, seed=1))
    train, test = split_fractions(table, (0.7, 0.3), seed=1)
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    save_csv(train, train_csv)
    save_csv(test, test_csv)
    code, _, err = run(["train", "--data", str(train_csv), "--T", "15",
                        "--sample-steps", "5", "--epochs", "2", "--warmup-epochs", "1",
                        "--hidden", "6", "--seed", "1", "--out", str(out)], capsys)
    assert code == 0, err
    return out / "checkpoint.json", test_csv, test


def test_eval_writes_metrics_and_embeddings(tmp_path, capsys):
    ckpt, test_csv, test = _trained_run(tmp_path, capsys)
    out = tmp_path / "eval"
    code, _, err = run(["eval", "--checkpoint", str(ckpt), "--data", str(test_csv),
                        "--out", str(out), "--dump-embeddings"], capsys)
    assert code == 0, err
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) >= {"accuracy", "macro_f1", "confusion", "precision"}
    with open(out / "per_class.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4
    with open(out / "embeddings.csv") as fh:
        emb = list(csv.reader(fh))
    assert emb[0] == ["y0", "y1", "y2", "pred", "label"]
    assert len(emb) == test.n + 1


def test_eval_metrics_match_library_oracle(tmp_path, capsys):
    from adpm.metrics import classification_metrics
    from adpm.trainer import load_checkpoint
    from adpm.inference import classify_dataset
    from adpm.data import load_csv

    ckpt_path, test_csv, _ = _trained_run(tmp_path, capsys)
    out = tmp_path / "eval"
    code, _, _ = run(["eval", "--checkpoint", str(ckpt_path), "--data", str(test_csv),
                      "--out", str(out)], capsys)
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())

    ckpt = load_checkpoint(ckpt_path)
    table = load_csv(test_csv)
    output = classify_dataset(ckpt, table)
    report = classification_metrics(table.labels, output.predictions, table.k)
    assert metrics["accuracy"] == report.accuracy
    assert metrics["macro_f1"] == report.macro_f1
    prior = classification_metrics(table.labels, output.prior_predictions, table.k)
    assert metrics["prior_macro_f1"] == prior.macro_f1
    assert metrics["sampler_prior_agreement"] == float(
        np.mean(output.predictions == output.prior_predictions))


def test_eval_k_mismatch_fails(tmp_path, capsys):
    ckpt, _, test = _trained_run(tmp_path, capsys)
    wide = DatasetTable(np.concatenate([test.features, test.features[:1]]),
                        np.concatenate([test.labels, [3]]), 4)
    wide_csv = tmp_path / "wide.csv"
    save_csv(wide, wide_csv)
    code, _, err = run(["eval", "--checkpoint", str(ckpt), "--data", str(wide_csv)],
                       capsys)
    assert code == 1
    assert "k=" in err


def test_eval_truncated_checkpoint_is_one_line_error(tmp_path, capsys):
    ckpt, test_csv, _ = _trained_run(tmp_path, capsys)
    ckpt.write_text(ckpt.read_text()[:100])
    code, _, err = run(["eval", "--checkpoint", str(ckpt), "--data", str(test_csv)],
                       capsys)
    assert code == 1
    assert err.startswith("error: ") and str(ckpt) in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_eval_reads_the_retired_mask_size_field_only_at_its_derived_value(tmp_path, capsys):
    # the run has d = 3 features, so its local prior keeps max(1, 3 // 2) = 1
    ckpt, test_csv, _ = _trained_run(tmp_path, capsys)
    payload = json.loads(ckpt.read_text())
    assert "prior_mask_size" not in payload
    for value, expected in ((1, 0), (2, 1)):
        ckpt.write_text(json.dumps({**payload, "prior_mask_size": value}))
        code, _, err = run(["eval", "--checkpoint", str(ckpt), "--data", str(test_csv),
                            "--out", str(tmp_path / f"eval{value}")], capsys)
        assert code == expected, err
    assert err == f"error: {ckpt}: retired field 'prior_mask_size' must be 1, got 2\n"


def test_sample_records_and_trace(tmp_path, capsys):
    ckpt, test_csv, test = _trained_run(tmp_path, capsys)
    three = tmp_path / "three.csv"
    save_csv(test.take([0, 1, 2]), three)
    code, stdout, err = run(["sample", "--checkpoint", str(ckpt), "--data", str(three),
                             "--steps", "5", "--trace"], capsys)
    assert code == 0, err
    records = json.loads(stdout)
    assert len(records) == 3
    for rec in records:
        assert len(rec["trace"]) == 5 + 1
        assert rec["lambda"] >= 1.0
        assert 0 <= rec["pred_class"] < 3


def test_sample_deterministic(tmp_path, capsys):
    ckpt, test_csv, test = _trained_run(tmp_path, capsys)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        code, _, err = run(["sample", "--checkpoint", str(ckpt), "--data", str(test_csv),
                            "--steps", "5", "--out", str(out)], capsys)
        assert code == 0, err
    assert (out1 / "samples.json").read_bytes() == (out2 / "samples.json").read_bytes()


def test_sample_records_the_steps_and_seed_it_used(tmp_path, capsys):
    # the run trained with --sample-steps 5; sampling draws nothing, so
    # no seed is recorded
    ckpt, test_csv, _ = _trained_run(tmp_path, capsys)
    for flags, steps in (([], 5), (["--steps", "3"], 3)):
        out = tmp_path / f"sample{steps}"
        code, _, err = run(["sample", "--checkpoint", str(ckpt), "--data", str(test_csv),
                            *flags, "--out", str(out)], capsys)
        assert code == 0, err
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved == {"checkpoint": str(ckpt), "data": str(test_csv), "steps": steps,
                            "trace": False}


def test_train_records_its_data_source(tmp_path, capsys):
    _trained_run(tmp_path, capsys)
    resolved = json.loads((tmp_path / "run" / "resolved_config.json").read_text())
    assert resolved["data"] == str(tmp_path / "train.csv") and "synthetic" not in resolved
    out = tmp_path / "synthetic"
    code, _, err = run(small_train_args(out, ["--data-seed", "7", "--spread", "0.5"]), capsys)
    assert code == 0, err
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["synthetic"] == {"k": 3, "head_count": 12, "decay": 0.6, "d": 3,
                                     "separation": 6.0, "spread": 0.5, "seed": 7}
    assert "data" not in resolved and resolved["seed"] == 1


def test_sweep_alpha_zero_row_constant(tmp_path, capsys):
    out = tmp_path / "sweep"
    code, _, err = run(["sweep", "--synthetic", "--k", "3", "--head-count", "10",
                        "--decay", "0.6", "--dim", "3", "--T", "12",
                        "--sample-steps", "4", "--epochs", "1", "--warmup-epochs", "1",
                        "--hidden", "6", "--seed", "2", "--alphas", "0,0.25",
                        "--cs", "1,4", "--out", str(out)], capsys)
    assert code == 0, err
    with open(out / "f1_matrix.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha", "1.0", "4.0"]
    alpha0 = [float(v) for v in rows[1][1:]]
    assert alpha0[0] == alpha0[1]  # exact equality on the baseline row
    assert len(rows) == 3
    assert (out / "cells" / "a1_c1" / "checkpoint.json").exists()
    # the cells' alpha and c are the grid's; no base value is recorded
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert (resolved["alphas"], resolved["cs"]) == ([0.0, 0.25], [1.0, 4.0])
    assert not {"alpha", "c"} & set(resolved)
    # and the data it split: the synthetic spec, whose seed is the run's
    assert resolved["synthetic"] == {"k": 3, "head_count": 10, "decay": 0.6, "d": 3,
                                     "separation": 6.0, "spread": 1.0, "seed": 2}


_SWEEP = ["sweep", "--synthetic", "--k", "2", "--head-count", "8", "--decay", "0.5",
          "--dim", "2", "--T", "10", "--sample-steps", "3", "--epochs", "1",
          "--warmup-epochs", "1", "--hidden", "4", "--seed", "4",
          "--alphas", "0,0.5", "--cs", "1,2"]


def test_sweep_worker_pool_matches_serial(tmp_path, capsys):
    assert run(_SWEEP + ["--out", str(tmp_path)], capsys)[0] == 0
    with open(tmp_path / "f1_matrix.csv") as fh:
        rows = list(csv.reader(fh))
    # in-process oracle: the same split, fit and classification per cell
    table = generate_longtail(LongTailSpec(k=2, head_count=8, decay=0.5, d=2,
                                           separation=6.0, spread=1.0, seed=4))
    train, test = split_fractions(table, (1.0 - 0.3, 0.3), 4)
    expected = [["alpha", "1.0", "2.0"]]
    for alpha in (0.0, 0.5):
        row = [repr(alpha)]
        for c in (1.0, 2.0):
            cfg = TrainConfig(T=10, sample_steps=3, epochs=1, warmup_epochs=1, hidden=4,
                              seed=4, alpha=alpha, c=0.0 if alpha == 0 else c)
            preds = classify_dataset(fit(train, cfg), test).predictions
            row.append(repr(classification_metrics(test.labels, preds, test.k).macro_f1))
        expected.append(row)
    assert rows == expected


@pytest.mark.parametrize("cpus, workers", [(64, 4), (3, 3), (None, 1)])
def test_sweep_pool_is_sized_from_cpu_count_and_cells(tmp_path, capsys, monkeypatch,
                                                      cpus, workers):
    sizes = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        # a thread pool stands in for the process pool: only its size is checked
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert run(_SWEEP + ["--out", str(tmp_path)], capsys)[0] == 0
    assert sizes == [workers]  # four cells


@pytest.mark.parametrize("fraction", ["1.0", "0", "-0.5", "nan"])
def test_sweep_rejects_a_test_fraction_outside_the_unit_interval(tmp_path, capsys, fraction):
    out = tmp_path / "sweep"
    code, _, err = run(_SWEEP + ["--test-fraction", fraction, "--out", str(out)], capsys)
    assert code == 2
    assert err == f"error: --test-fraction must lie in (0, 1), got {float(fraction)}\n"
    assert not out.exists()


def test_train_resume_rejects_a_model_the_flags_do_not_describe(tmp_path, capsys):
    first = tmp_path / "first"
    assert run(small_train_args(first, ["--hidden", "8"]), capsys)[0] == 0
    for extra, block in ((["--hidden", "16"], "denoiser.fuse_w' has shape (6, 8), expected "
                          "(6, 16)"),
                         (["--hidden", "8", "--k", "4"], "prior.w2' has shape (32, 3), "
                          "expected (32, 4)")):
        out = tmp_path / "resumed"
        code, _, err = run(small_train_args(out, [*extra, "--epochs", "4", "--resume",
                                                  str(first / "checkpoint.json")]), capsys)
        assert code == 1
        assert err == f"error: resumed block '{block}\n"
        assert not (out / "checkpoint.json").exists()


@pytest.mark.parametrize("first, snapshot, resumed, message", [
    ([], "checkpoint.json", ["--epochs", "2"],
     "cannot resume at epoch 4 of a 2-epoch run"),
    ([], "checkpoint.epoch2.json", ["--epochs", "4", "--warmup-epochs", "2"],
     "cannot resume with warmup_epochs=2: the checkpoint's prior was trained with "
     "warmup_epochs=1")],
    ids=["epoch-beyond-config", "changed-warmup-epochs"])
def test_train_resume_rejects_a_run_it_cannot_continue(tmp_path, capsys, first, snapshot,
                                                       resumed, message):
    full = tmp_path / "full"
    assert run(small_train_args(full, [*first, "--epochs", "4", "--checkpoint-every", "2"]),
               capsys)[0] == 0
    out = tmp_path / "resumed"
    code, _, err = run(small_train_args(out, [*resumed, "--resume", str(full / snapshot)]),
                       capsys)
    assert code == 1
    assert err == f"error: {message}\n"
    assert not (out / "checkpoint.json").exists()


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "T": 15, "sample_steps": 5, "epochs": 3, "warmup_epochs": 1, "hidden": 6,
        "seed": 8,
        "synthetic": {"k": 3, "head_count": 12, "decay": 0.6, "d": 3,
                      "separation": 6.0, "spread": 1.0, "seed": 8},
    }))
    out = tmp_path / "run"
    # the explicit flag beats the config file's epoch count
    code, _, err = run(["train", "--config", str(cfg_file), "--epochs", "2",
                        "--out", str(out)], capsys)
    assert code == 0, err
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["epochs"] == 2 and resolved["T"] == 15
    records = (out / "train_log.jsonl").read_text().splitlines()
    assert len(records) == 2


def test_data_flags_beat_the_config_synthetic_section(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "T": 15, "sample_steps": 5, "epochs": 1, "warmup_epochs": 1, "hidden": 6,
        "synthetic": {"k": 3, "head_count": 12, "decay": 0.6, "d": 3, "seed": 8}}))
    out = tmp_path / "run"
    code, _, err = run(["train", "--config", str(cfg_file), "--k", "4", "--dim", "5",
                        "--out", str(out)], capsys)
    assert code == 0, err
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert (resolved["k"], resolved["d"]) == (4, 5)
    # the unflagged fields still come from the file
    assert resolved["n"] == sum(LongTailSpec(k=4, head_count=12, decay=0.6, d=5,
                                             separation=6.0, spread=1.0,
                                             seed=8).class_counts())


def test_bound_reads_alpha_from_the_config(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"alpha": 0.5, "seed": 2}))
    for flags, alpha in (([], 0.5), (["--alpha", "0.25"], 0.25)):
        out = tmp_path / f"bound{alpha}"
        code, _, err = run([*_BOUND, "--config", str(cfg_file), *flags, "--out", str(out)],
                           capsys)
        assert code == 0, err
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert (resolved["alpha"], resolved["seed"]) == (alpha, 2)
        report = json.loads((out / "bound_report.json").read_text())
        p = class_proportions(ClassCensus((40, 20)), NoiseLevelConfig(alpha=alpha, c=1.0))
        assert report["p"] == p.tolist()


def test_each_subcommand_keeps_its_option_strings():
    common = {"-h", "--help", "--seed", "--out"}
    data = {"--data", "--synthetic", "--k", "--head-count", "--decay", "--dim",
            "--separation", "--spread", "--data-seed"}
    train = {"--T", "--sample-steps", "--beta1", "--betaT",
             "--epochs", "--batch-size", "--learning-rate", "--warmup-epochs",
             "--hidden", "--checkpoint-every"}
    # schedule, eval and sample draw nothing, so they have no --seed;
    # sweep takes alpha and c from --alphas and --cs only
    expected = {
        "schedule": common - {"--seed"} | {"--config", "--counts", "--data", "--alpha", "--c",
                                           "--T", "--beta1", "--betaT"},
        "train": common | data | train | {"--alpha", "--c", "--config", "--resume"},
        "eval": common - {"--seed"} | {"--checkpoint", "--data", "--steps",
                                       "--dump-embeddings"},
        "sample": common - {"--seed"} | {"--checkpoint", "--data", "--steps", "--trace"},
        "sweep": common | data | train | {"--config", "--alphas", "--cs", "--test-fraction"},
        "bound": common | {"--config", "--n0", "--n1", "--dim", "--separation", "--draws",
                           "--pop-size", "--delta", "--mc-draws", "--grid-directions",
                           "--alpha"},
    }
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert {name: set(p._option_string_actions) for name, p in subparsers.choices.items()} \
        == expected


# each case: the input file it writes (or None, or a function that edits the
# payload of a trained checkpoint into it), the command and the exit code
_TINY = ["--synthetic", "--k", "3", "--head-count", "12", "--decay", "0.6", "--dim", "3",
         "--sample-steps", "5", "--epochs", "2", "--warmup-epochs", "1", "--seed", "1"]
_SMALL = [*_TINY, "--T", "15", "--hidden", "6"]
_BOUND = ["bound", "--draws", "2", "--mc-draws", "5", "--pop-size", "300"]
CLI_FAILURES = {
    "config-invalid-json": (b"{bad", ["train", *_TINY, "--config", "{file}"], 2),
    "config-json-list": (b"[1, 2]", ["train", *_TINY, "--config", "{file}"], 2),
    "config-string-T": (b'{"T": "abc"}', ["train", *_TINY, "--config", "{file}"], 1),
    "config-string-hidden": (b'{"hidden": "64"}',
                             ["train", *_TINY, "--T", "15", "--config", "{file}"], 1),
    "sweep-alphas": (None, ["sweep", *_SMALL, "--alphas", "x"], 2),
    "sweep-cs": (None, ["sweep", *_SMALL, "--cs", "1,y"], 2),
    "diverged-train": (None, ["train", *_SMALL, "--learning-rate", "1e300"], 1),
    "inf-learning-rate": (None, ["train", *_SMALL, "--learning-rate", "inf"], 1),
    "nan-learning-rate": (None, ["train", *_SMALL, "--learning-rate", "nan"], 1),
    "csv-not-utf8": (b"f0,label\n1.0,0\n2.0,\xff\n",
                     ["train", "--data", "{file}", "--epochs", "1"], 1),
    "csv-label-beyond-int64": (b"f0,label\n1.0,0\n2.0,100000000000000000000000\n",
                               ["train", "--data", "{file}", "--epochs", "1"], 1),
    "config-synthetic-list": (b'{"synthetic": [1]}', ["train", *_TINY, "--config", "{file}"], 1),
    "config-synthetic-string-k": (b'{"synthetic": {"k": "3"}}',
                                  ["train", *_TINY, "--config", "{file}"], 1),
    "config-synthetic-unknown-key": (b'{"synthetic": {"classes": 3}}',
                                     ["train", *_TINY, "--config", "{file}"], 1),
    "schedule-config-string-alpha": (b'{"alpha": "x"}',
                                     ["schedule", "--counts", "5,3", "--config", "{file}"], 1),
    "bound-grid-directions-zero": (None, [*_BOUND, "--grid-directions", "0"], 1),
    "bound-grid-directions-negative": (None, [*_BOUND, "--grid-directions", "-1"], 1),
    "bound-n0-zero": (None, [*_BOUND, "--n0", "0"], 2),
    "bound-n1-zero": (None, [*_BOUND, "--n1", "0"], 2),
    "bound-draws-zero": (None, [*_BOUND, "--draws", "0"], 2),
    "bound-mc-draws-zero": (None, [*_BOUND, "--mc-draws", "0"], 2),
    "bound-nan-alpha": (None, [*_BOUND, "--alpha", "nan"], 1),
    "bound-inf-alpha": (None, [*_BOUND, "--alpha", "inf"], 1),
    "bound-pop-size-zero": (None, [*_BOUND, "--pop-size", "0"], 2),
    "bound-pop-size-negative": (None, [*_BOUND, "--pop-size", "-5"], 2),
    "bound-pop-size-below-draw": (None, [*_BOUND, "--pop-size", "59"], 2),
    "bound-n1-above-n0": (None, [*_BOUND, "--n0", "20", "--n1", "40"], 2),
    # flags these subcommands do not have: schedule, eval and sample draw
    # nothing, so any --seed is an unknown flag, and sweep's cells take
    # alpha and c from --alphas and --cs (sweep reads no flag as the prefix
    # of another)
    "schedule-seed": (None, ["schedule", "--counts", "5,3", "--seed", "1"], 2),
    "eval-seed-negative": (None, ["eval", "--checkpoint", "ckpt.json", "--data", "test.csv",
                                  "--seed", "-1"], 2),
    "sample-seed-negative": (None, ["sample", "--checkpoint", "ckpt.json",
                                    "--data", "test.csv", "--seed", "-1"], 2),
    # the class shares are n_j^-alpha over their sum, with no weight knobs
    "schedule-a": (None, ["schedule", "--counts", "845,52", "--a", "1"], 2),
    "schedule-b": (None, ["schedule", "--counts", "845,52", "--b", "1"], 2),
    "sweep-alpha": (None, ["sweep", *_SMALL, "--alpha", "0.5"], 2),
    "sweep-c": (None, ["sweep", *_SMALL, "--c", "3"], 2),
    "train-hidden-negative": (None, ["train", *_SMALL, "--hidden", "-1"], 1),
    "train-hidden-zero": (None, ["train", *_SMALL, "--hidden", "0"], 1),
    "train-sample-steps-zero": (None, ["train", *_SMALL, "--sample-steps", "0"], 1),
    "train-checkpoint-every-negative": (None, ["train", *_SMALL, "--checkpoint-every", "-1"],
                                        1),
    # the MMD weight is the constant trainer.MMD_WEIGHT, not a flag
    "train-w-zero": (None, ["train", *_SMALL, "--w", "0"], 2),
    "train-w-nan": (None, ["train", *_SMALL, "--w", "nan"], 2),
    "sweep-w": (None, ["sweep", *_SMALL, "--w", "0.3"], 2),
    # no flag is read as the prefix of another
    "train-epoch-prefix": (None, ["train", *_SMALL, "--epoch", "1"], 2),
    "eval-step-prefix": (None, ["eval", "--checkpoint", "ckpt.json", "--data", "test.csv",
                                "--step", "5"], 2),
    "config-kernel-mode": (b'{"kernel_bandwidth_mode": "bogus"}',
                           ["train", *_SMALL, "--config", "{file}"], 1),
    "train-beta1-lost-to-rounding": (None, ["train", *_SMALL, "--beta1", "1e-30"], 1),
    # keys of settings that are now fixed, unknown to a config file
    "config-nan-lr-warmup-frac": (b'{"lr_warmup_frac": NaN}',
                                  ["train", *_SMALL, "--config", "{file}"], 1),
    "config-adam-beta1-one": (b'{"adam_beta1": 1.0}', ["train", *_SMALL, "--config", "{file}"],
                              1),
    "config-nan-adam-beta2": (b'{"adam_beta2": NaN}', ["train", *_SMALL, "--config", "{file}"],
                              1),
    "config-negative-adam-eps": (b'{"adam_eps": -1}', ["train", *_SMALL, "--config", "{file}"],
                                 1),
    "config-nan-alpha-with-lambda-override": (b'{"alpha": NaN, "lambda_override": 1.0}',
                                              ["train", *_SMALL, "--config", "{file}"], 1),
    "sweep-infeasible-cell": (None, ["sweep", *_SMALL, "--alphas", "0.25", "--cs", "1,1e5"],
                              1),
    # every class rounds to 0 training rows
    "sweep-empty-training-split": (None, ["sweep", *_SMALL, "--alphas", "0.25", "--cs", "1",
                                          "--test-fraction", "0.99"], 1),
    "train-seed-negative": (None, ["train", *_SMALL, "--seed", "-1"], 1),
    "train-data-seed-negative": (None, ["train", *_SMALL, "--data-seed", "-1"], 1),
    "sweep-seed-negative": (None, ["sweep", *_SMALL, "--seed", "-1"], 1),
    "bound-seed-negative": (None, [*_BOUND, "--seed", "-1"], 1),
    # {checkpoint} and {test} are a trained checkpoint and its test split
    "eval-version-1-checkpoint": (lambda ckpt: {**ckpt, "version": 1},
                                  ["eval", "--checkpoint", "{file}", "--data", "{test}"], 1),
    # config values of settings this code no longer runs
    "eval-lambda-override-checkpoint": (
        lambda ckpt: {**ckpt, "config": {**ckpt["config"], "lambda_override": 1.0}},
        ["eval", "--checkpoint", "{file}", "--data", "{test}"], 1),
    "eval-sgd-checkpoint": (lambda ckpt: {**ckpt, "config": {**ckpt["config"],
                                                             "optimizer": "sgd"}},
                            ["eval", "--checkpoint", "{file}", "--data", "{test}"], 1),
    "eval-median-bandwidth-checkpoint": (
        lambda ckpt: {**ckpt, "config": {**ckpt["config"],
                                         "kernel_bandwidth_mode": "median-heuristic"}},
        ["eval", "--checkpoint", "{file}", "--data", "{test}"], 1),
    # a block of the former feature encoder
    "eval-legacy-block-checkpoint": (
        lambda ckpt: {**ckpt, "blocks": {**ckpt["blocks"],
                                         "encoder.b": {"shape": [1, 6], "data": [0.25] * 6}}},
        ["eval", "--checkpoint", "{file}", "--data", "{test}"], 1),
    # {train} is the training split of {checkpoint}; the local-prior mask
    # is fixed at half the feature count, so a config naming it is unknown
    "train-resume-changed-prior-mask": (
        b'{"prior_mask": 3}', ["train", "--data", "{train}", "--T", "15", "--sample-steps", "5",
                               "--epochs", "2", "--warmup-epochs", "1", "--hidden", "6",
                               "--seed", "1", "--config", "{file}", "--resume", "{checkpoint}"],
        1),
}


@pytest.mark.parametrize("case", sorted(CLI_FAILURES))
def test_cli_failure_is_one_error_line(tmp_path, capsys, case):
    content, argv, expected = CLI_FAILURES[case]
    path = tmp_path / "input"
    fill = {"{file}": str(path)}
    if {"{test}", "{train}"} & set(argv):
        checkpoint, test_csv, _ = _trained_run(tmp_path, capsys)
        fill.update({"{checkpoint}": str(checkpoint), "{test}": str(test_csv),
                     "{train}": str(tmp_path / "train.csv")})
    if callable(content):
        path.write_text(json.dumps(content(json.loads(checkpoint.read_text()))))
    elif content is not None:
        path.write_bytes(content)
    out = tmp_path / "out"
    argv = [fill.get(arg, arg) for arg in argv]
    code, _, err = run([*argv, "--out", str(out)], capsys)
    assert code == expected
    assert err.startswith("error: ") and err.count("error:") == 1
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not (out / "checkpoint.json").exists()


@pytest.mark.parametrize("config, message", [
    # every retired key is unknown to a config file, whatever its value
    ({"adam_beta1": 1.0}, "unknown config keys: ['adam_beta1']"),
    ({"adam_beta2": float("nan")}, "unknown config keys: ['adam_beta2']"),
    ({"adam_eps": 1e-8}, "unknown config keys: ['adam_eps']"),
    ({"lr_warmup_frac": 0.1}, "unknown config keys: ['lr_warmup_frac']"),
    ({"lambda_override": 1.0}, "unknown config keys: ['lambda_override']"),
    ({"optimizer": "adam"}, "unknown config keys: ['optimizer']"),
    ({"kernel_bandwidth_mode": "fixed"}, "unknown config keys: ['kernel_bandwidth_mode']"),
    ({"w": 0.5}, "unknown config keys: ['w']"),
    ({"prior_mask": None}, "unknown config keys: ['prior_mask']")],
    ids=["adam-beta1-one", "nan-adam-beta2", "adam-eps", "lr-warmup-frac",
         "lambda-override-one", "retired-optimizer", "retired-bandwidth-mode", "w",
         "prior-mask"])
def test_train_names_the_config_value_it_rejects(tmp_path, capsys, config, message):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    out = tmp_path / "run"
    code, _, err = run(["train", *_SMALL, "--config", str(cfg_file), "--out", str(out)], capsys)
    assert code == 1
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--draws", "--mc-draws"])
def test_bound_names_a_draw_count_below_one(tmp_path, capsys, flag):
    out = tmp_path / "bound"
    code, _, err = run([*_BOUND, flag, "0", "--out", str(out)], capsys)
    assert code == 2
    assert err == f"error: {flag} must be >= 1, got 0\n"
    assert not out.exists()


def test_bound_reruns_bitwise_from_its_resolved_config(tmp_path, capsys):
    first, again = tmp_path / "first", tmp_path / "again"
    code, _, err = run(["bound", "--n0", "30", "--n1", "12", "--dim", "3", "--separation", "3.5",
                        "--draws", "3", "--pop-size", "900", "--delta", "0.1",
                        "--mc-draws", "7", "--grid-directions", "5", "--seed", "4",
                        "--alpha", "0.25", "--out", str(first)], capsys)
    assert code == 0, err
    resolved = json.loads((first / "resolved_config.json").read_text())
    flags = [arg for key, value in resolved.items()
             for arg in (f"--{key.replace('_', '-')}", str(value))]
    code, _, err = run(["bound", *flags, "--out", str(again)], capsys)
    assert code == 0, err
    assert (again / "bound_report.json").read_bytes() == (first / "bound_report.json").read_bytes()


def test_bound_report(tmp_path, capsys):
    out = tmp_path / "bound"
    code, stdout, err = run(["bound", "--draws", "5", "--mc-draws", "40",
                             "--pop-size", "2000", "--grid-directions", "4",
                             "--seed", "3", "--out", str(out)], capsys)
    assert code == 0, err
    report = json.loads((out / "bound_report.json").read_text())
    assert report["draws"] == 5
    assert 0.0 <= report["violation_rate"] <= 1.0
    assert len(report["r_mean"]) == 2
    assert "violation rate" in stdout
