"""Command-line interface.

Subcommands: schedule, train, eval, sample, sweep, bound. Every
subcommand takes --out, and every one but schedule, which draws nothing,
takes --seed. schedule, train, sweep and bound also take --config, a
JSON object of TrainConfig fields with an optional "synthetic" section
of LongTailSpec fields. Each setting is its field's default, overridden
by the config file, overridden in turn by its flag when the flag is
given. sweep takes its alpha and c values from --alphas and --cs, so it
has no --alpha or --c flag. No subcommand reads a flag as the prefix of
another, so --epoch is an unknown flag, not --epochs. With --out,
outputs are files in that directory (plus resolved_config.json);
without it, data goes to stdout.
sweep trains its cells in a pool of one process per CPU, never more
processes than cells. Exit codes: 0 success, 2 usage error, 1 runtime
failure; each failure prints one line on stderr.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import dataclasses
import json
import multiprocessing
import os
import sys
from fractions import Fraction

import numpy as np

from .data import DatasetTable, LongTailSpec, generate_longtail, load_csv, split_fractions
from .errors import AdpmError, ConfigError, check_at_least
from .inference import classify_dataset
from .metrics import HypothesisGrid, bound_experiment, classification_metrics
from .schedule import (ClassCensus, NoiseLevelConfig, build_schedule, class_proportions,
                       imbalance_ratio, lambda_vector, linear_beta)
from .trainer import TrainConfig, check_field_types, fit, load_checkpoint

# defaults of the synthetic-data flags, keyed like LongTailSpec; the
# data seed defaults to the run's seed
DATA_DEFAULTS = {"k": 6, "head_count": 100, "decay": 0.57, "d": 8,
                 "separation": 6.0, "spread": 1.0}


class CliUsage(Exception):
    """Bad invocation; reported on stderr with exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad invocation in one line and
    reads no flag as the prefix of another (--epoch is not --epochs).
    Subparsers are built from this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # the parser already printed the diagnostic
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliUsage, AdpmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, CliUsage) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="adpm", description="anisotropic label diffusion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True, seed=True):
        if config:
            p.add_argument("--config", help="JSON file with defaults for these flags")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="master RNG seed")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("schedule", help="noise levels and gamma table for a census")
    common(p, seed=False)
    p.add_argument("--counts", help="comma-separated class counts, e.g. 845,52")
    p.add_argument("--data", help="CSV dataset to take the census from")
    _flags(p, float, "alpha", "c", "beta1", "betaT")
    _flags(p, int, "T")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("train", help="fit the model on a dataset")
    common(p)
    _data_flags(p)
    _train_flags(p, "alpha", "c")
    p.add_argument("--resume", help="checkpoint file to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="classify a test set and report metrics")
    common(p, config=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="CSV test set")
    p.add_argument("--steps", type=int, default=None, help="reverse steps (default from config)")
    p.add_argument("--dump-embeddings", action="store_true",
                   help="also write the final y0 vectors as CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", help="run the reverse chain on inputs")
    common(p, config=False)
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


def _flags(p, typ, *names):
    """One --name flag of type typ per name, None unless given."""
    for name in names:
        p.add_argument(f"--{name}", type=typ, default=None)


def _data_flags(p):
    p.add_argument("--data", help="CSV dataset path")
    p.add_argument("--synthetic", action="store_true", help="generate a long-tail mixture")
    _flags(p, int, "k", "head-count", "dim")
    _flags(p, float, "decay", "separation", "spread")
    p.add_argument("--data-seed", type=int, default=None, help="defaults to --seed")


def _train_flags(p, *noise_levels):
    """The TrainConfig flags, with alpha and c where named in noise_levels."""
    _flags(p, int, "T", "sample-steps", "epochs", "batch-size", "warmup-epochs", "hidden",
           "checkpoint-every")
    _flags(p, float, "beta1", "betaT", *noise_levels, "learning-rate")


def _given(flags: dict) -> dict:
    return {key: value for key, value in flags.items() if value is not None}


def settings(args) -> tuple[dict, dict | None]:
    """TrainConfig values and, for synthetic data, LongTailSpec values (else
    None). Each is its field's default, overridden by the --config file,
    overridden in turn by its flag when the flag is given."""
    file = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                file = json.load(fh)
            except ValueError as exc:
                raise CliUsage(f"{args.config}: invalid JSON config: {exc}") from None
        if not isinstance(file, dict):
            raise CliUsage(f"{args.config}: config is not a JSON object")
    section = file.pop("synthetic", {})
    check_field_types(TrainConfig, file)
    check_field_types(LongTailSpec, section, "synthetic config")
    train = TrainConfig().to_dict()
    train.update(file)
    train.update(_given({key: getattr(args, key, None) for key in train}))
    if "synthetic" not in args or not (args.synthetic or section):
        return train, None
    flags = {"k": args.k, "head_count": args.head_count, "decay": args.decay, "d": args.dim,
             "separation": args.separation, "spread": args.spread, "seed": args.data_seed}
    return train, {**DATA_DEFAULTS, "seed": train["seed"], **section, **_given(flags)}


def _write(out: str | None, name: str, data) -> None:
    """Write data to the file name in out, or to stdout when out is None:
    CSV rows for a .csv name, indented key-sorted JSON otherwise."""
    if out is None:
        target = contextlib.nullcontext(sys.stdout)
    else:
        os.makedirs(out, exist_ok=True)
        target = open(os.path.join(out, name), "w", newline="", encoding="utf-8")
    with target as fh:
        if name.endswith(".csv"):
            csv.writer(fh).writerows(data)
        else:
            json.dump(data, fh, indent=2, sort_keys=True)
            if out is None:
                fh.write("\n")


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
    s, _ = settings(args)

    census = ClassCensus(counts)
    noise = NoiseLevelConfig(alpha=s["alpha"], c=s["c"])
    beta = linear_beta(s["T"], s["beta1"], s["betaT"])

    exact, floored = imbalance_ratio(census)
    p = class_proportions(census, noise)
    lam = lambda_vector(census, noise)

    print(f"IR: {floored} ({format_exact(exact)} exact)")
    _write(args.out, "schedule.csv", [["class", "n_j", "p_j", "lambda_j"]] + [
        [str(j), str(census.counts[j]), repr(float(p[j])), repr(float(lam[j]))]
        for j in range(census.k)])
    if args.out is not None:
        _write(args.out, "resolved_config.json", {
            "counts": list(counts), "alpha": noise.alpha, "c": noise.c, "T": s["T"],
            "beta1": float(beta[0]), "betaT": float(beta[-1])})

    # the noise levels are always well defined; the gamma table needs
    # lambda_j * beta^t < 1, and main reports it as an error when it is not
    sched = build_schedule(beta, lam)
    _write(args.out, "gamma.csv", [["class"] + [f"g{t}" for t in range(s["T"] + 1)]] + [
        [str(j)] + [repr(float(v)) for v in sched.gamma[j]] for j in range(census.k)])
    return 0


def _training_run(args) -> tuple[TrainConfig, DatasetTable, str, dict]:
    """The config, dataset, output directory and data source of train and
    sweep. The source is {"data": the CSV path}, or {"synthetic": the
    LongTailSpec fields}, whose seed is the data seed."""
    values, spec = settings(args)
    cfg = TrainConfig(**values)
    if args.data:
        table, source = load_csv(args.data), {"data": args.data}
    elif spec is not None:
        spec = LongTailSpec(**spec)
        table, source = generate_longtail(spec), {"synthetic": dataclasses.asdict(spec)}
    else:
        raise CliUsage("provide --data or --synthetic (or a config with a synthetic section)")
    if args.out is None:
        raise CliUsage(f"{args.command} needs --out for its outputs")
    os.makedirs(args.out, exist_ok=True)
    return cfg, table, args.out, source


def cmd_train(args) -> int:
    cfg, table, out, source = _training_run(args)
    resume = load_checkpoint(args.resume) if args.resume else None
    ckpt = fit(table, cfg, log_path=os.path.join(out, "train_log.jsonl"),
               checkpoint_path=os.path.join(out, "checkpoint.json"), resume=resume)
    _write(out, "resolved_config.json", {**cfg.to_dict(), "n": table.n, "d": table.d,
                                         "k": table.k, "counts": list(ckpt.counts), **source})
    print(f"trained {ckpt.epoch} epochs; checkpoint at {os.path.join(out, 'checkpoint.json')}")
    return 0


def _classify(args):
    """Test table, sampler output and resolved settings of eval and sample:
    the checkpoint and data paths, and the step count and seed used."""
    ckpt = load_checkpoint(args.checkpoint)
    table = load_csv(args.data, k=len(ckpt.counts))
    output = classify_dataset(ckpt, table, steps=args.steps, seed=args.seed,
                              trace=getattr(args, "trace", False))
    resolved = {"checkpoint": args.checkpoint, "data": args.data,
                "steps": ckpt.config.sample_steps if args.steps is None else args.steps,
                "seed": ckpt.config.seed if args.seed is None else args.seed}
    return table, output, resolved


def cmd_eval(args) -> int:
    table, output, resolved = _classify(args)
    report = classification_metrics(table.labels, output.predictions, table.k)
    payload = report.to_jsonable()
    payload["n"] = table.n
    payload["prior_macro_f1"] = classification_metrics(
        table.labels, output.prior_predictions, table.k).macro_f1
    payload["sampler_prior_agreement"] = float(
        np.mean(output.predictions == output.prior_predictions))
    payload["steps"] = resolved["steps"]

    _write(args.out, "metrics.json", payload)
    if args.out is None:
        return 0
    support = table.class_counts()
    _write(args.out, "per_class.csv", [["class", "precision", "recall", "f1", "support"]] + [
        [j, repr(float(report.precision[j])), repr(float(report.recall[j])),
         repr(float(report.f1[j])), int(support[j])] for j in range(table.k)])
    if args.dump_embeddings:
        _write(args.out, "embeddings.csv", [[f"y{j}" for j in range(table.k)] + ["pred", "label"]] + [
            [repr(float(v)) for v in res.y0] + [res.pred_class, int(label)]
            for res, label in zip(output.results, table.labels)])
    _write(args.out, "resolved_config.json", resolved)
    return 0


def cmd_sample(args) -> int:
    _, output, resolved = _classify(args)
    records = []
    for i, res in enumerate(output.results):
        record = {"index": i, "pred_class": res.pred_class, "lambda": res.lam,
                  "y0": [float(v) for v in res.y0]}
        if args.trace:
            record["trace"] = [[int(t), [float(v) for v in y]] for t, y in res.trace]
        records.append(record)

    _write(args.out, "samples.json", records)
    if args.out is not None:
        _write(args.out, "resolved_config.json", {**resolved, "trace": bool(args.trace)})
    return 0


def _sweep_cell(payload) -> float:
    """One (alpha, c) cell: train on the shared split, return macro-F1."""
    cfg, train, test, cell_dir = payload
    os.makedirs(cell_dir, exist_ok=True)
    ckpt = fit(train, cfg, log_path=os.path.join(cell_dir, "train_log.jsonl"),
               checkpoint_path=os.path.join(cell_dir, "checkpoint.json"))
    output = classify_dataset(ckpt, test)
    report = classification_metrics(test.labels, output.predictions, test.k)
    return report.macro_f1


def _parse_floats(flag: str, text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise CliUsage(f"cannot parse {flag} {text!r}") from None


def cmd_sweep(args) -> int:
    if not 0 < args.test_fraction < 1:
        raise CliUsage(f"--test-fraction must lie in (0, 1), got {args.test_fraction}")
    base, table, out, source = _training_run(args)
    alphas = _parse_floats("--alphas", args.alphas)
    cs = _parse_floats("--cs", args.cs)

    train, test = split_fractions(table, (1.0 - args.test_fraction,
                                          args.test_fraction), base.seed)

    jobs = []
    for i, alpha in enumerate(alphas):
        for j, c in enumerate(cs):
            # alpha = 0 rows run the lambda = 1 baseline, c = 0, whatever
            # their column's c
            cfg = dataclasses.replace(base, alpha=alpha, c=0.0 if alpha == 0 else c)
            cell_dir = os.path.join(out, "cells", f"a{i}_c{j}")
            jobs.append((cfg, train, test, cell_dir))

    # jobs run row by row, so the results reshape into the matrix
    workers = min(len(jobs), os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        matrix = np.reshape(list(pool.map(_sweep_cell, jobs)), (len(alphas), len(cs)))

    _write(out, "f1_matrix.csv", [["alpha"] + [repr(c) for c in cs]] + [
        [repr(alpha)] + [repr(float(v)) for v in matrix[i]] for i, alpha in enumerate(alphas)])
    # each cell's alpha and c come from alphas and cs, not from the base config
    shared = {key: value for key, value in base.to_dict().items() if key not in ("alpha", "c")}
    _write(out, "resolved_config.json", {**shared, "alphas": alphas, "cs": cs,
                                         "test_fraction": args.test_fraction, **source})
    print(f"sweep matrix written to {os.path.join(out, 'f1_matrix.csv')}")
    return 0


def cmd_bound(args) -> int:
    for flag, value in (("--n0", args.n0), ("--n1", args.n1), ("--draws", args.draws),
                        ("--mc-draws", args.mc_draws)):
        check_at_least(flag, value, 1, CliUsage)
    if args.n1 > args.n0:
        raise CliUsage(f"--n1 must be at most --n0 = {args.n0}, got {args.n1}")
    if args.pop_size < args.n0 + args.n1:
        raise CliUsage(f"--pop-size must be at least --n0 + --n1 = {args.n0 + args.n1}, "
                       f"got {args.pop_size}")
    s, _ = settings(args)
    seed = s["seed"]
    check_at_least("seed", seed, 0, ConfigError)

    def blob_spec(n0, n1, data_seed):
        return LongTailSpec(k=2, head_count=n0, decay=n1 / n0, d=args.dim,
                            separation=args.separation, spread=1.0, seed=data_seed)

    pop_scale = args.pop_size // (args.n0 + args.n1)
    pop = generate_longtail(blob_spec(args.n0 * pop_scale, args.n1 * pop_scale,
                                      2_000_000 + seed))
    census = ClassCensus((args.n0, args.n1))
    p = class_proportions(census, NoiseLevelConfig(alpha=s["alpha"], c=s["c"]))
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

    _write(args.out, "bound_report.json", report)
    if args.out is None:
        return 0
    _write(args.out, "resolved_config.json", {
        "n0": args.n0, "n1": args.n1, "dim": args.dim, "separation": args.separation,
        "draws": args.draws, "pop_size": args.pop_size, "delta": args.delta,
        "mc_draws": args.mc_draws, "grid_directions": args.grid_directions, "seed": seed,
        "alpha": s["alpha"]})
    print(f"violation rate {report['violation_rate']:.3f} over {args.draws} draws")
    return 0


if __name__ == "__main__":
    sys.exit(main())
