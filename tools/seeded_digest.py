"""Print one digest per group of adpm's seeded outputs.

Each group runs fixed, seeded recipes through adpm's public functions
and its command line, and hashes the bytes of every array and output
file they produce. The script prints one ``<group> <digest>`` line per
group, the digest being the first 16 hex digits of a SHA-256. Two trees
that print the same lines produce the same bits, so a change that means
to keep every bit can be checked against its parent:

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python tools/seeded_digest.py --src /tmp/parent/src > parent.txt
    python tools/seeded_digest.py > change.txt
    diff parent.txt change.txt

The groups (all by default, or the ones --groups names):

- ``schedule``: p, lambda, inference_lambda and the gamma table of fixed
  censuses, plus the ``schedule.csv`` and ``gamma.csv`` of ``adpm schedule``.
- ``desk``: the benchmark's desk recipe (c07) at seeds 0-4, at c = 5 and
  c = 0: every model block, Adam's state, the train log, ``y0``, the
  predictions and prior predictions, and ``adpm eval``'s ``metrics.json``.
- ``sample``: the benchmark's sample recipe at seeds 1-3, classified in
  memory and after a save/load round trip, whole-split and row by row
  (every 37th test row).
- ``resume``: desk seed 0 resumed from its epoch-40 snapshot: blocks,
  Adam's state and the resumed run's log.
- ``sweep``: ``f1_matrix.csv`` of c08's ``adpm sweep``.
- ``bound``: the benchmark's bound passes at seeds 1-3, and
  ``bound_report.json`` of ``adpm bound`` at its defaults.

A group that classifies also prints a ``<group>.pred <digest>`` line
(``desk.pred`` and ``sample.pred``) that hashes only the predictions and
prior predictions of its classify calls, so a change that moves ``y0``
but no predicted class keeps that line.

The recipes come from ``perfbench/workloads.py`` of this checkout; the
library comes from --src (default: this checkout's ``src``). Run it as
a script, from any directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CENSUSES = ((845, 52), (6705, 115), (1078, 3), (1148, 6), (100, 57, 32, 19, 11, 6),
            (7, 7, 7), (42,))
ALPHAS = (0.0, 1.0 / 6.0, 0.5, 1.0)
CS = (0.0, 2.0, 5.0)
SAMPLE_ROW_STRIDE = 37
RESUME_EPOCH = 40
C08_SWEEP = ["sweep", "--synthetic", "--k", "3", "--head-count", "10", "--decay", "0.6",
             "--dim", "3", "--T", "12", "--sample-steps", "4", "--epochs", "1",
             "--warmup-epochs", "1", "--hidden", "6", "--seed", "5", "--alphas", "0,0.25",
             "--cs", "1,3,5"]


class Digest:
    """SHA-256 over a sequence of arrays, byte strings, files and scalars.
    pred is the digest of the predictions alone, once add_classified has
    fed one."""

    def __init__(self):
        self._h = hashlib.sha256()
        self.pred: Digest | None = None

    def add(self, *items) -> None:
        for item in items:
            if isinstance(item, np.ndarray):
                self._h.update(f"{item.dtype.str}{item.shape}".encode())
                self._h.update(np.ascontiguousarray(item).tobytes())
            elif isinstance(item, bytes):
                self._h.update(item)
            elif isinstance(item, Path):
                self._h.update(item.read_bytes())
            else:
                self._h.update(repr(item).encode())

    def hex(self) -> str:
        return self._h.hexdigest()[:16]


def import_library(src: Path):
    """adpm from src, and the benchmark's workloads module."""
    sys.path.insert(0, str(src))
    import adpm
    if Path(adpm.__file__).resolve().parent != (src / "adpm").resolve():
        raise SystemExit(f"seeded_digest: adpm imported from {adpm.__file__}, not {src}")
    sys.path.insert(1, str(ROOT / "perfbench"))
    return importlib.import_module("workloads")


def cli(*argv) -> None:
    """Run adpm's command line quietly; a non-zero exit stops the script."""
    from adpm.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"seeded_digest: adpm {' '.join(map(str, argv))} exited {code}")


def add_checkpoint(d: Digest, ckpt) -> None:
    for name, block in ckpt.model.blocks().items():
        d.add(name, block)
    for key, value in sorted(ckpt.opt_state.items()):
        d.add(key, value)


def add_classified(d: Digest, out) -> None:
    """Feed the predictions and prior predictions of out to d and to
    d.pred, and the endpoints y0 to d only."""
    if d.pred is None:
        d.pred = Digest()
    for digest in (d, d.pred):
        digest.add(out.predictions, out.prior_predictions)
    d.add(*(r.y0 for r in out.results))


def group_schedule(wl, d: Digest, tmp: Path) -> None:
    from adpm.errors import ScheduleInfeasibleError
    from adpm.schedule import (ClassCensus, NoiseLevelConfig, build_schedule,
                               class_proportions, inference_lambda, lambda_vector,
                               linear_beta)
    beta = linear_beta(100, 1e-4, 0.004)
    for counts in CENSUSES:
        census = ClassCensus(counts)
        logits = np.random.default_rng(len(counts)).standard_normal((9, len(counts)))
        for alpha in ALPHAS:
            for c in CS:
                cfg = NoiseLevelConfig(alpha=alpha, c=c)
                lam = lambda_vector(census, cfg)
                d.add(class_proportions(census, cfg), lam,
                      inference_lambda(logits, census, cfg))
                try:
                    d.add(build_schedule(beta, lam).gamma)
                except ScheduleInfeasibleError as exc:
                    d.add(str(exc))
    for i, args in enumerate((["--counts", "845,52", "--alpha", "0.1667", "--c", "2",
                               "--T", "50"],
                              ["--counts", "100,57,32,19,11,6", "--c", "5", "--T", "100",
                               "--betaT", "0.004"])):
        cli("schedule", *args, "--out", tmp / f"s{i}")
        d.add(tmp / f"s{i}" / "schedule.csv", tmp / f"s{i}" / "gamma.csv")


def _desk_split(wl, seed: int):
    from adpm import data
    table = data.generate_longtail(data.LongTailSpec(**wl.DESK_SPEC, seed=seed))
    return data.split_fractions(table, (0.7, 0.3), seed=seed)


def group_desk(wl, d: Digest, tmp: Path) -> None:
    from adpm import data, inference, trainer
    for seed in range(5):
        train, test = _desk_split(wl, seed)
        test_csv = tmp / f"test{seed}.csv"
        data.save_csv(test, test_csv)
        for c in (5.0, 0.0):
            run = tmp / f"desk{seed}-c{c:g}"
            run.mkdir()
            cfg = trainer.TrainConfig(**{**wl.DESK_CFG, "c": c}, seed=seed)
            ckpt = trainer.fit(train, cfg, log_path=run / "log.jsonl",
                               checkpoint_path=run / "checkpoint.json")
            add_checkpoint(d, ckpt)
            add_classified(d, inference.classify_dataset(ckpt, test))
            cli("eval", "--checkpoint", run / "checkpoint.json", "--data", test_csv,
                "--out", run / "eval")
            d.add(run / "log.jsonl", run / "eval" / "metrics.json")


def group_sample(wl, d: Digest, tmp: Path) -> None:
    from adpm import data, inference, trainer
    for seed in (1, 2, 3):
        table = data.generate_longtail(data.LongTailSpec(**wl.SAMPLE_SPEC, seed=seed))
        train, test = data.split_fractions(table, (0.7, 0.3), seed=seed)
        fitted = trainer.fit(train, trainer.TrainConfig(**wl.SAMPLE_CFG, seed=seed))
        path = tmp / f"sample{seed}.json"
        trainer.save_checkpoint(fitted, path)
        for ckpt in (fitted, trainer.load_checkpoint(path)):
            add_classified(d, inference.classify_dataset(ckpt, test))
            for row in range(0, test.n, SAMPLE_ROW_STRIDE):
                add_classified(d, inference.classify_dataset(ckpt, test.take([row])))


def group_resume(wl, d: Digest, tmp: Path) -> None:
    from adpm import trainer
    train, _ = _desk_split(wl, 0)
    cfg = trainer.TrainConfig(**wl.DESK_CFG, seed=0, checkpoint_every=RESUME_EPOCH)
    trainer.fit(train, cfg, checkpoint_path=tmp / "full.json")
    snapshot = trainer.load_checkpoint(tmp / f"full.epoch{RESUME_EPOCH}.json")
    resumed = trainer.fit(train, cfg, log_path=tmp / "resumed.jsonl", resume=snapshot)
    add_checkpoint(d, resumed)
    d.add(tmp / "resumed.jsonl")


def group_sweep(wl, d: Digest, tmp: Path) -> None:
    cli(*C08_SWEEP, "--out", tmp / "sweep")
    d.add(tmp / "sweep" / "f1_matrix.csv")


def group_bound(wl, d: Digest, tmp: Path) -> None:
    for seed in (1, 2, 3):
        bench = wl.Bound(seed)
        d.add(bench.run_pass(bench.setup()).fingerprint)
    cli("bound", "--out", tmp / "bound")
    d.add(tmp / "bound" / "bound_report.json")


GROUPS = {"schedule": group_schedule, "desk": group_desk, "sample": group_sample,
          "resume": group_resume, "sweep": group_sweep, "bound": group_bound}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the adpm package to hash")
    parser.add_argument("--groups", default=",".join(GROUPS),
                        help=f"comma-separated groups, from {','.join(GROUPS)}")
    args = parser.parse_args(argv)
    names = args.groups.split(",")
    unknown = sorted(set(names) - set(GROUPS))
    if unknown:
        parser.error(f"unknown groups: {unknown}")
    wl = import_library(args.src.resolve())
    for name in names:
        d = Digest()
        with tempfile.TemporaryDirectory() as tmp:
            GROUPS[name](wl, d, Path(tmp))
        print(f"{name} {d.hex()}", flush=True)
        if d.pred is not None:
            print(f"{name}.pred {d.pred.hex()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
