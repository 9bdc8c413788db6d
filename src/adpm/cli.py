"""Command-line interface.

Subcommands: schedule, train, eval, sample, sweep, bound. Global flags
--config (JSON defaults), --seed and --out apply to every subcommand;
explicit flags win over the config file. With --out, outputs are files
in that directory (plus resolved_config.json); without it, data goes to
stdout. Exit codes: 0 success, 2 usage error, 1 runtime failure. The
environment variable ADPM_THREADS caps sweep workers.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .data import DatasetTable, LongTailSpec, generate_longtail, load_csv, split_fractions
from .errors import AdpmError, ScheduleInfeasibleError
from .inference import classify_dataset
from .metrics import HypothesisGrid, bound_experiment, classification_metrics
from .schedule import (ClassCensus, NoiseLevelConfig, build_schedule, class_proportions,
                       imbalance_ratio, lambda_vector, linear_beta)
from .trainer import TrainConfig, check_field_types, fit, load_checkpoint


class CliUsage(Exception):
    """Bad invocation; reported on stderr with exit code 2."""


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostics
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliUsage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AdpmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adpm",
                                     description="anisotropic label diffusion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with defaults for these flags")
        p.add_argument("--seed", type=int, default=None, help="master RNG seed")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("schedule", help="noise levels and gamma table for a census")
    common(p)
    p.add_argument("--counts", help="comma-separated class counts, e.g. 845,52")
    p.add_argument("--data", help="CSV dataset to take the census from")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--beta1", type=float, default=None)
    p.add_argument("--betaT", type=float, default=None)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("train", help="fit the model on a dataset")
    common(p)
    _data_flags(p)
    _train_flags(p)
    p.add_argument("--resume", help="checkpoint file to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="classify a test set and report metrics")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="CSV test set")
    p.add_argument("--steps", type=int, default=None, help="reverse steps (default from config)")
    p.add_argument("--dump-embeddings", action="store_true",
                   help="also write the final y0 vectors as CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", help="run the reverse chain on inputs")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="CSV inputs")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--trace", action="store_true", help="record per-step snapshots")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("sweep", help="F1 grid over (alpha, c) combinations")
    common(p)
    _data_flags(p)
    _train_flags(p)
    p.add_argument("--alphas", default="0,0.1667",
                   help="comma-separated alpha row values (0 runs the lambda=1 baseline)")
    p.add_argument("--cs", default="1,5", help="comma-separated c column values")
    p.add_argument("--test-fraction", type=float, default=0.3)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bound", help="validate the generalization bound numerically")
    common(p)
    p.add_argument("--n0", type=int, default=40, help="majority train samples per draw")
    p.add_argument("--n1", type=int, default=20, help="minority train samples per draw")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--draws", type=int, default=200)
    p.add_argument("--pop-size", type=int, default=100_000)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--mc-draws", type=int, default=200)
    p.add_argument("--grid-directions", type=int, default=8)
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(func=cmd_bound)
    return parser


def _data_flags(p):
    p.add_argument("--data", help="CSV dataset path")
    p.add_argument("--synthetic", action="store_true", help="generate a long-tail mixture")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--head-count", type=int, default=100)
    p.add_argument("--decay", type=float, default=0.57)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--separation", type=float, default=6.0)
    p.add_argument("--spread", type=float, default=1.0)
    p.add_argument("--data-seed", type=int, default=None, help="defaults to --seed")


def _train_flags(p):
    for name, typ in [("T", int), ("sample-steps", int), ("beta1", float),
                      ("betaT", float), ("alpha", float), ("c", float), ("w", float),
                      ("epochs", int), ("batch-size", int), ("learning-rate", float),
                      ("warmup-epochs", int), ("lambda-override", float),
                      ("hidden", int), ("checkpoint-every", int)]:
        p.add_argument(f"--{name}", type=typ, default=None)
    p.add_argument("--optimizer", choices=["adam", "sgd"], default=None)


def _load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise CliUsage(f"{path}: invalid JSON config: {exc}") from None
    if not isinstance(obj, dict):
        raise CliUsage(f"{path}: config is not a JSON object")
    return obj


def _resolve_train_config(args) -> TrainConfig:
    """Defaults < config file < explicit flags."""
    values = {}
    if args.config:
        file_cfg = _load_config_file(args.config)
        values.update({k: v for k, v in file_cfg.items() if k != "synthetic"})
    for field in dataclasses.fields(TrainConfig):
        flag = getattr(args, field.name, None)
        if flag is not None:
            values[field.name] = flag
    if args.seed is not None:
        values["seed"] = args.seed
    return TrainConfig.from_dict(values)


def _resolve_dataset(args, cfg: TrainConfig) -> DatasetTable:
    synthetic = {}
    if args.config:
        synthetic = _load_config_file(args.config).get("synthetic", {})
        check_field_types(LongTailSpec, synthetic, "synthetic config")
    if args.data:
        return load_csv(args.data)
    if args.synthetic or synthetic:
        seed = args.data_seed if args.data_seed is not None else cfg.seed
        spec = LongTailSpec(
            k=synthetic.get("k", args.k),
            head_count=synthetic.get("head_count", args.head_count),
            decay=synthetic.get("decay", args.decay),
            d=synthetic.get("d", args.dim),
            separation=synthetic.get("separation", args.separation),
            spread=synthetic.get("spread", args.spread),
            seed=synthetic.get("seed", seed),
        )
        return generate_longtail(spec)
    raise CliUsage("provide --data or --synthetic (or a config with a synthetic section)")


def _ensure_out(args) -> str | None:
    if args.out is None:
        return None
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_resolved_config(out: str, payload: dict) -> None:
    with open(os.path.join(out, "resolved_config.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def format_exact(fr: Fraction) -> str:
    """Terminating decimals print as decimals, the rest as fractions."""
    den = fr.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if den == 1:
        value = fr.numerator / fr.denominator
        return repr(value) if value != int(value) else str(int(value))
    return f"{fr.numerator}/{fr.denominator}"


def cmd_schedule(args) -> int:
    if args.counts:
        try:
            counts = tuple(int(c) for c in args.counts.split(","))
        except ValueError:
            raise CliUsage(f"cannot parse --counts {args.counts!r}") from None
    elif args.data:
        table = load_csv(args.data)
        counts = tuple(int(c) for c in table.class_counts())
    else:
        raise CliUsage("schedule needs --counts or --data")

    loaded = _load_config_file(args.config) if args.config else {}
    file_cfg = {key: loaded[key] for key in ("alpha", "c", "T", "beta1", "betaT")
                if key in loaded}
    check_field_types(TrainConfig, file_cfg)

    def pick(flag, key, default):
        return flag if flag is not None else file_cfg.get(key, default)

    census = ClassCensus(counts)
    noise = NoiseLevelConfig(alpha=pick(args.alpha, "alpha", 1.0 / 6.0),
                             c=pick(args.c, "c", 5.0), a=args.a, b=args.b)
    T = pick(args.T, "T", 1000)
    beta = linear_beta(T, pick(args.beta1, "beta1", 1e-4), pick(args.betaT, "betaT", 0.02))

    exact, floored = imbalance_ratio(census)
    p = class_proportions(census, noise)
    lam = lambda_vector(census, noise)

    print(f"IR: {floored} ({format_exact(exact)} exact)")
    schedule_rows = [["class", "n_j", "p_j", "lambda_j"]] + [
        [str(j), str(census.counts[j]), repr(float(p[j])), repr(float(lam[j]))]
        for j in range(census.k)]

    out = _ensure_out(args)
    if out is None:
        csv.writer(sys.stdout).writerows(schedule_rows)
    else:
        with open(os.path.join(out, "schedule.csv"), "w", newline="",
                  encoding="utf-8") as fh:
            csv.writer(fh).writerows(schedule_rows)
        _write_resolved_config(out, {"counts": list(counts), "alpha": noise.alpha,
                                     "c": noise.c, "a": noise.a, "b": noise.b,
                                     "T": T, "beta1": float(beta[0]),
                                     "betaT": float(beta[-1])})

    # the noise levels are always well defined; the gamma table needs
    # lambda_j * beta^t < 1 and is reported as an error when it is not
    try:
        sched = build_schedule(beta, lam)
    except ScheduleInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    gamma_rows = [["class"] + [f"g{t}" for t in range(T + 1)]] + [
        [str(j)] + [repr(float(v)) for v in sched.gamma[j]] for j in range(census.k)]
    if out is None:
        csv.writer(sys.stdout).writerows(gamma_rows)
    else:
        with open(os.path.join(out, "gamma.csv"), "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(gamma_rows)
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_train_config(args)
    table = _resolve_dataset(args, cfg)
    out = _ensure_out(args)
    if out is None:
        raise CliUsage("train needs --out for the checkpoint and log")
    resume = load_checkpoint(args.resume) if args.resume else None
    log_path = os.path.join(out, "train_log.jsonl")
    if resume is None and os.path.exists(log_path):
        os.remove(log_path)
    ckpt = fit(table, cfg, log_path=log_path,
               checkpoint_path=os.path.join(out, "checkpoint.json"), resume=resume)
    _write_resolved_config(out, {**cfg.to_dict(), "n": table.n, "d": table.d,
                                 "k": table.k, "counts": list(ckpt.counts)})
    print(f"trained {ckpt.epoch} epochs; checkpoint at {os.path.join(out, 'checkpoint.json')}")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    table = load_csv(args.data)
    if table.k < len(ckpt.counts):
        # labels just do not cover every trained class; pad k
        table = DatasetTable(table.features, table.labels, len(ckpt.counts))
    output = classify_dataset(ckpt, table, steps=args.steps, seed=args.seed)
    report = classification_metrics(table.labels, output.predictions, table.k)
    payload = report.to_jsonable()
    payload["n"] = table.n
    payload["prior_macro_f1"] = classification_metrics(
        table.labels, output.prior_predictions, table.k).macro_f1
    payload["sampler_prior_agreement"] = float(
        np.mean(output.predictions == output.prior_predictions))
    payload["steps"] = args.steps if args.steps is not None else ckpt.config.sample_steps

    out = _ensure_out(args)
    if out is None:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    with open(os.path.join(out, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    with open(os.path.join(out, "per_class.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "precision", "recall", "f1", "support"])
        support = table.class_counts()
        for j in range(table.k):
            writer.writerow([j, repr(float(report.precision[j])),
                             repr(float(report.recall[j])), repr(float(report.f1[j])),
                             int(support[j])])
    if args.dump_embeddings:
        with open(os.path.join(out, "embeddings.csv"), "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"y{j}" for j in range(table.k)] + ["pred", "label"])
            for res, label in zip(output.results, table.labels):
                writer.writerow([repr(float(v)) for v in res.y0]
                                + [res.pred_class, int(label)])
    _write_resolved_config(out, {"checkpoint": args.checkpoint, "data": args.data,
                                 "steps": payload["steps"],
                                 "seed": args.seed if args.seed is not None
                                 else ckpt.config.seed})
    return 0


def cmd_sample(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    table = load_csv(args.data)
    if table.k < len(ckpt.counts):
        table = DatasetTable(table.features, table.labels, len(ckpt.counts))
    output = classify_dataset(ckpt, table, steps=args.steps, seed=args.seed,
                              trace=args.trace)
    records = []
    for i, res in enumerate(output.results):
        record = {"index": i, "pred_class": res.pred_class, "lambda": res.lam,
                  "y0": [float(v) for v in res.y0]}
        if args.trace:
            record["trace"] = [[int(t), [float(v) for v in y]] for t, y in res.trace]
        records.append(record)

    out = _ensure_out(args)
    if out is None:
        json.dump(records, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    with open(os.path.join(out, "samples.json"), "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
    _write_resolved_config(out, {"checkpoint": args.checkpoint, "data": args.data,
                                 "trace": bool(args.trace)})
    return 0


def _sweep_cell(payload) -> tuple[int, int, float]:
    """One (alpha, c) cell: train on the shared split, return macro-F1."""
    i, j, cfg, train, test, cell_dir = payload
    os.makedirs(cell_dir, exist_ok=True)
    ckpt = fit(train, cfg, log_path=os.path.join(cell_dir, "train_log.jsonl"),
               checkpoint_path=os.path.join(cell_dir, "checkpoint.json"))
    output = classify_dataset(ckpt, test)
    report = classification_metrics(test.labels, output.predictions, test.k)
    return i, j, report.macro_f1


def _parse_floats(flag: str, text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise CliUsage(f"cannot parse {flag} {text!r}") from None


def cmd_sweep(args) -> int:
    base = _resolve_train_config(args)
    table = _resolve_dataset(args, base)
    out = _ensure_out(args)
    if out is None:
        raise CliUsage("sweep needs --out")
    alphas = _parse_floats("--alphas", args.alphas)
    cs = _parse_floats("--cs", args.cs)

    train, test = split_fractions(table, (1.0 - args.test_fraction,
                                          args.test_fraction), base.seed)

    jobs = []
    for i, alpha in enumerate(alphas):
        for j, c in enumerate(cs):
            # alpha = 0 rows run the lambda = 1 baseline: the noise level
            # is identical for every class, independent of c
            cfg = dataclasses.replace(
                base, alpha=alpha, c=c,
                lambda_override=1.0 if alpha == 0 else base.lambda_override)
            cell_dir = os.path.join(out, "cells", f"a{i}_c{j}")
            jobs.append((i, j, cfg, train, test, cell_dir))

    workers = max(1, int(os.environ.get("ADPM_THREADS", "1")))
    matrix = np.zeros((len(alphas), len(cs)))
    if workers == 1:
        results = [_sweep_cell(job) for job in jobs]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, jobs))
    for i, j, f1 in results:
        matrix[i, j] = f1

    with open(os.path.join(out, "f1_matrix.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha"] + [repr(c) for c in cs])
        for i, alpha in enumerate(alphas):
            writer.writerow([repr(alpha)] + [repr(float(v)) for v in matrix[i]])
    _write_resolved_config(out, {**base.to_dict(), "alphas": alphas, "cs": cs,
                                 "test_fraction": args.test_fraction})
    print(f"sweep matrix written to {os.path.join(out, 'f1_matrix.csv')}")
    return 0


def cmd_bound(args) -> int:
    if args.n0 < 1 or args.n1 < 1:
        raise CliUsage(f"--n0 and --n1 must be >= 1, got {args.n0} and {args.n1}")
    seed = args.seed if args.seed is not None else 0
    alpha = args.alpha if args.alpha is not None else 1.0 / 6.0

    def blob_spec(n0, n1, data_seed):
        return LongTailSpec(k=2, head_count=n0, decay=n1 / n0, d=args.dim,
                            separation=args.separation, spread=1.0, seed=data_seed)

    pop_scale = max(1, args.pop_size // (args.n0 + args.n1))
    pop = generate_longtail(blob_spec(args.n0 * pop_scale, args.n1 * pop_scale,
                                      2_000_000 + seed))
    census = ClassCensus((args.n0, args.n1))
    p = class_proportions(census, NoiseLevelConfig(alpha=alpha, c=1.0))
    grid = HypothesisGrid.linear(args.dim, args.grid_directions,
                                 [-1.0, 0.0, 1.0], seed=seed).with_negation()

    def draw(i):
        t = generate_longtail(blob_spec(args.n0, args.n1, 1000 + seed * 7919 + i))
        return t.features, t.labels

    report = bound_experiment(draw, args.draws, pop.features, pop.labels, grid,
                              delta=args.delta, p=p, mc_draws=args.mc_draws,
                              seed=seed)
    report["grid_directions"] = args.grid_directions
    report["p"] = p.tolist()

    out = _ensure_out(args)
    if out is None:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    with open(os.path.join(out, "bound_report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    _write_resolved_config(out, {"n0": args.n0, "n1": args.n1, "dim": args.dim,
                                 "draws": args.draws, "delta": args.delta,
                                 "seed": seed, "alpha": alpha})
    print(f"violation rate {report['violation_rate']:.3f} over {args.draws} draws")
    return 0


if __name__ == "__main__":
    sys.exit(main())
