"""Run the benchmark on a parent checkout and on this one in pairs, and
summarize the end-to-end metrics.

    python tools/bench_pairs.py --parent DIR [--pairs 10] [--seconds 35] \\
        [--workloads desk,sample,bound]

DIR is a checkout of the parent commit (for example a ``git archive`` of
it unpacked into a scratch directory). Pair i, for i = 1..N, runs
``DIR/perfbench/run.py`` and this checkout's ``perfbench/run.py`` on
each workload with ``--seed i --trace 0``, one process at a time. The
parent runs first in even pairs and second in odd pairs. Each run's last
line of standard output is its JSON summary.

For each workload and each end-to-end metric of this checkout's
``BENCHMARK.json`` the script prints the parent's and the change's
medians and quartiles, the change of the median relative to the
parent's, and the pairs the change won (ties count for neither). A row
is flagged ``worse`` when the change's median is worse than the
parent's by more than the metric's bound, and ``unresolved`` when the
parent's own interquartile range, relative to its median, is wider than
the bound. The harness keeps every pass, so ``peak_rss_mb`` grows with
the pass count whatever the library does; its row also shows each side's
median pass count, read from the run's detail file
``perfbench/out/<workload>-seed<s>-trace0.json`` as the length of
``summary.job_samples_s``. A run that fails, reports ``correct: false``
or leaves no readable detail file stops the script with exit status 1.
Nothing under ``perfbench/`` is edited; each run writes its details to
its own tree's ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


class RunFailed(Exception):
    """A benchmark run exited non-zero, printed no summary, was incorrect or
    left no pass count."""


PASSES = "passes"  # the key of a run's pass count beside its metrics
RETAINED = "peak_rss_mb"  # the metric that grows with the passes the harness keeps


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """Metric name -> value of one untraced run of tree's benchmark, and
    PASSES -> the number of passes it timed."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        summary = None
    if summary is None or summary.get("correct") is not True:
        raise RunFailed(f"{tree} {workload} seed {seed}: exit {proc.returncode}, "
                        f"last line {lines[-1] if lines else '(none)'!r}; "
                        f"stderr {proc.stderr.strip()[-300:]!r}")
    detail = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    try:
        passes = len(json.loads(detail.read_text(encoding="utf-8"))["summary"]["job_samples_s"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise RunFailed(f"{tree} {workload} seed {seed}: no pass count in {detail}: "
                        f"{exc!r}") from None
    return {**{name: m["value"] for name, m in summary["metrics"].items()}, PASSES: passes}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    return tuple(float(q) for q in np.percentile(values, [25, 50, 75]))


def _relative(delta: float, base: float) -> float:
    if base == 0:
        return 0.0 if delta == 0 else float("inf")
    return delta / abs(base)


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per metric of BENCHMARK.json's end_to_end list, from pairs
    of (parent, change) metric dicts of one workload.

    Each row holds the metric's name, both sides' (q1, median, q3), the
    change's relative change of the median (positive is better), its wins
    and the pair count, and its flags: "worse", "unresolved", both or none.
    The RETAINED row also holds both sides' median pass counts when every
    run carries one.
    """
    rows = []
    for metric in metrics:
        name, sign = metric["name"], (1.0 if metric["better"] == "higher" else -1.0)
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        before, after = _quartiles(parent), _quartiles(change)
        gain = sign * _relative(after[1] - before[1], before[1])
        spread = _relative(before[2] - before[0], before[1])
        flags = [flag for flag, raised in (("worse", -gain > metric["bound"]),
                                           ("unresolved", spread > metric["bound"])) if raised]
        rows.append({"metric": name, "parent": before, "change": after, "gain": gain,
                     "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                     "pairs": len(pairs), "flags": flags})
        if name == RETAINED and all(PASSES in run for pair in pairs for run in pair):
            rows[-1][PASSES] = tuple(float(np.median([pair[i][PASSES] for pair in pairs]))
                                     for i in (0, 1))
    return rows


def format_row(workload: str, row: dict) -> str:
    def side(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
    passes = (f"passes {row[PASSES][0]:.0f} -> {row[PASSES][1]:.0f} "
              if PASSES in row else "")
    return (f"{workload:7s} {row['metric']:15s} parent {side(row['parent']):34s} "
            f"change {side(row['change']):34s} {row['gain']:+8.1%} better, "
            f"won {row['wins']}/{row['pairs']} {passes}{' '.join(row['flags'])}").rstrip()


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    if not (trees["parent"] / "perfbench" / "run.py").is_file():
        parser.error(f"--parent: no perfbench/run.py under {args.parent}")
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    for workload in args.workloads.split(","):
        pairs = []
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            try:
                got = {side: run_once(trees[side], workload, seed, args.seconds)
                       for side in order}
            except RunFailed as exc:
                print(f"bench_pairs: run failed: {exc}", file=sys.stderr)
                return 1
            pairs.append((got["parent"], got["change"]))
            print(f"{workload} pair {seed}/{args.pairs} done", file=sys.stderr, flush=True)
        for row in summarize(pairs, bench["end_to_end"]):
            print(format_row(workload, row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
