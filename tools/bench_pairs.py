"""Run the benchmark on a parent checkout and on this one in pairs, and
summarize the end-to-end metrics.

    python tools/bench_pairs.py --parent DIR [--pairs 10] [--seconds 35] \\
        [--workloads desk,sample,bound] [--aa] [--inproc CALLS]

DIR is a checkout of the parent commit (for example a ``git archive`` of
it unpacked into a scratch directory). Pair i, for i = 1..N, runs
``DIR/perfbench/run.py`` and this checkout's ``perfbench/run.py`` on
each workload with ``--seed i --trace 0``, one process at a time. The
parent runs first in even pairs and second in odd pairs. Each run's last
line of standard output is its JSON summary.

For each workload and each end-to-end metric of this checkout's
``BENCHMARK.json`` the script prints the parent's and the change's
medians and quartiles, the paired ratio (the median over pairs of the
change's value over the parent's), the change of the median relative to
the parent's, and the pairs the change won (ties count for neither). A row
is flagged ``worse`` when the change's median is worse than the
parent's by more than the metric's bound, and ``unresolved`` when the
parent's own interquartile range, relative to its median, is wider than
the bound.

The harness keeps every pass, so ``peak_rss_mb`` grows with the pass
count whatever the library does. Its row also shows each side's median
pass count, read from the run's detail file
``perfbench/out/<workload>-seed<s>-trace0.json`` as the length of
``summary.job_samples_s``; the MB per retained pass, the least-squares
slope of RSS on pass count over every run of the workload; and the
change's RSS at the parent's median pass count, the median of the
change's runs each moved along that slope.

With ``--aa`` the script also copies DIR into a temporary directory
and runs that copy as a third tree in every pair, in a position that
rotates with the pair. The copy against the parent is an A/A
comparison: two trees that do the same work. Each row then also shows
the A/A change of the median and the range of the A/A per-pair changes,
and a real change (not 0) inside that range is flagged ``unresolved``.

With ``--inproc CALLS`` no harness run starts. Instead each tree of a
pair gets one fresh process, which imports the library through the
tree's own ``perfbench/run.py``, sets the workload of the tree's own
``perfbench/workloads.py`` up with the pair's seed and then times CALLS
passes, each checked bitwise against the first. The order of the trees
alternates as above. Each side's reading of a pair is the median
``job_s`` of its passes and the 90th percentile of all its requests
(``request_ms_p90``), and the rows of those two metrics are printed as
above. This reading does not depend on the harness's run length or
pass count. The process also times each whole pass, and the ``job_s``
row shows each side's median pass wall time (the median over pairs of
each run's median) and the pass-count ratio it implies, the parent's
pass time over the change's: a harness run of fixed length keeps about
that many of the change's passes per parent pass, so the ratio times
the MB per pass of an earlier harness run prices the change's
``peak_rss_mb`` rise before a harness run.

A run that fails, reports ``correct: false`` or leaves no readable
detail file stops the script with exit status 1, as does an in-process
run that fails or whose passes differ. Nothing under ``perfbench/`` is
edited; each run writes its details to its own tree's ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


class RunFailed(Exception):
    """A benchmark run exited non-zero, printed no summary, was incorrect or
    left no pass count."""


PASSES = "passes"  # the key of a run's pass count beside its metrics
PASS_WALL = "pass_s"  # the key of an in-process run's median pass wall time
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


# what an --inproc process runs, given the tree, workload, seed and pass
# count: its last line of output is {"job_s": [...], "request_s": [...],
# "pass_s": [...]}, pass_s holding each whole pass's wall time
INPROC = """
import json, sys, time
tree, workload, seed, calls = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
sys.path.insert(0, tree + "/perfbench")
import run
run.import_library()
import workloads
bench = workloads.WORKLOADS[workload](seed)
workloads.OUT_DIR.mkdir(exist_ok=True)
state = bench.setup()
passes, walls = [], []
for _ in range(calls):
    start = time.perf_counter()
    passes.append(bench.run_pass(state))
    walls.append(time.perf_counter() - start)
if any(p.fingerprint != passes[0].fingerprint for p in passes):
    sys.exit("a pass's outputs differ bitwise from the first pass's")
print(json.dumps({"job_s": [p.job_s for p in passes],
                  "request_s": [r for p in passes for r in p.request_s], "pass_s": walls}))
"""
INPROC_METRICS = ("job_s", "request_ms_p90")


def inproc_once(tree: Path, workload: str, seed: int, calls: int) -> dict[str, float]:
    """job_s, the median of calls passes timed in one fresh process of
    tree, request_ms_p90, the 90th percentile of their requests, and
    PASS_WALL, the median wall time of a whole pass."""
    argv = [sys.executable, "-c", INPROC, str(tree), workload, str(seed), str(calls)]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        got = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        return {"job_s": float(np.median(got["job_s"])),
                "request_ms_p90": float(np.percentile(got["request_s"], 90)) * 1e3,
                PASS_WALL: float(np.median(got["pass_s"]))}
    except (ValueError, TypeError, KeyError, IndexError):
        raise RunFailed(f"{tree} {workload} seed {seed} in-process: exit {proc.returncode}, "
                        f"stderr {proc.stderr.strip()[-300:]!r}") from None


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    return tuple(float(q) for q in np.percentile(values, [25, 50, 75]))


def _relative(delta: float, base: float) -> float:
    if base == 0:
        return 0.0 if delta == 0 else float("inf")
    return delta / abs(base)


def _gain(sign: float, new: float, old: float) -> float:
    """The relative change from old to new, positive when it is better by
    sign (+ 0.0 turns a -0.0 into 0.0)."""
    return sign * _relative(new - old, old) + 0.0


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict],
              aa_pairs: list[tuple[dict, dict]] | None = None) -> list[dict]:
    """One row per metric of BENCHMARK.json's end_to_end list, from pairs
    of (parent, change) metric dicts of one workload.

    Each row holds the metric's name, both sides' (q1, median, q3), the
    change's relative change of the median (positive is better), the
    paired ratio (None when a parent value is 0), its wins and the pair
    count, and its flags: "worse", "unresolved", both or none.
    The RETAINED row also holds both sides' median pass counts, the MB per
    pass and the change's RSS at the parent's median pass count when
    every run carries a pass count, and the job_s row both sides' median
    pass wall times and the pass-count ratio when every pair carries a
    PASS_WALL (an in-process reading). With aa_pairs, (parent, copy) metric
    dicts of the same pairs whose parent runs are those of pairs, each
    row also holds "aa": the A/A change of the median and the lowest and
    highest A/A per-pair change; a change other than 0 within that range
    is "unresolved". The copies' runs also enter the MB per pass.
    """
    rows = []
    for metric in metrics:
        name, sign = metric["name"], (1.0 if metric["better"] == "higher" else -1.0)
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        before, after = _quartiles(parent), _quartiles(change)
        gain = _gain(sign, after[1], before[1])
        spread = _relative(before[2] - before[0], before[1])
        aa = None
        if aa_pairs:
            base, copy = (float(np.median([pair[i][name] for pair in aa_pairs])) for i in (0, 1))
            each = [_gain(sign, c[name], p[name]) for p, c in aa_pairs]
            aa = (_gain(sign, copy, base), min(each), max(each))
        unresolved = spread > metric["bound"] or (aa is not None and gain != 0
                                                  and aa[1] <= gain <= aa[2])
        flags = [flag for flag, raised in (("worse", -gain > metric["bound"]),
                                           ("unresolved", unresolved)) if raised]
        ratio = float(np.median([c / p for p, c in zip(parent, change)])) \
            if all(parent) else None
        rows.append({"metric": name, "parent": before, "change": after, "gain": gain,
                     "ratio": ratio,
                     "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                     "pairs": len(pairs), "flags": flags})
        if aa is not None:
            rows[-1]["aa"] = aa
        # aa_pairs share their parent runs with pairs: count each run once
        runs = [run for pair in pairs for run in pair] + [c for _, c in aa_pairs or []]
        if name == RETAINED and all(PASSES in run for run in runs):
            rows[-1].update(_retained(pairs, runs))
        if name == "job_s" and all(PASS_WALL in run for pair in pairs for run in pair):
            walls = tuple(float(np.median([pair[i][PASS_WALL] for pair in pairs]))
                          for i in (0, 1))
            rows[-1].update({PASS_WALL: walls, "pass_ratio": walls[0] / walls[1]})
    return rows


def _retained(pairs: list[tuple[dict, dict]], runs: list[dict]) -> dict:
    """Both sides' median pass counts, the least-squares MB per pass over
    runs, and the median of the change's RSS moved along that slope to
    the parent's median pass count (None when every run kept as many
    passes, so that no slope can be fitted)."""
    medians = tuple(float(np.median([pair[i][PASSES] for pair in pairs])) for i in (0, 1))
    passes = np.array([run[PASSES] for run in runs], dtype=np.float64)
    rss = np.array([run[RETAINED] for run in runs], dtype=np.float64)
    centred = passes - passes.mean()
    if not centred.any():
        return {PASSES: medians, "mb_per_pass": None, "rss_at_parent_passes": None}
    slope = float(centred @ (rss - rss.mean()) / (centred @ centred))
    moved = [c[RETAINED] - slope * (c[PASSES] - medians[0]) for _, c in pairs]
    return {PASSES: medians, "mb_per_pass": slope,
            "rss_at_parent_passes": float(np.median(moved))}


def format_row(workload: str, row: dict) -> str:
    def side(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
    extra = ""
    if PASSES in row:
        extra = f"passes {row[PASSES][0]:.0f} -> {row[PASSES][1]:.0f} "
        if row["mb_per_pass"] is not None:
            extra += (f"{row['mb_per_pass']:.3g} MB/pass, change at {row[PASSES][0]:.0f} "
                      f"passes {row['rss_at_parent_passes']:.6g} ")
    if PASS_WALL in row:
        extra += (f"pass {row[PASS_WALL][0] * 1e3:.4g} -> {row[PASS_WALL][1] * 1e3:.4g} ms, "
                  f"passes x{row['pass_ratio']:.3f} ")
    if "aa" in row:
        extra += f"a/a {row['aa'][0]:+.1%} [{row['aa'][1]:+.1%}, {row['aa'][2]:+.1%}] "
    ratio = "" if row.get("ratio") is None else f"ratio {row['ratio']:.3f} "
    return (f"{workload:7s} {row['metric']:15s} parent {side(row['parent']):34s} "
            f"change {side(row['change']):34s} {ratio}{row['gain']:+8.1%} better, "
            f"won {row['wins']}/{row['pairs']} {extra}{' '.join(row['flags'])}").rstrip()


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--aa", action="store_true",
                        help="also run a copy of the parent as an A/A control")
    parser.add_argument("--inproc", type=int, metavar="CALLS",
                        help="time CALLS passes in one process per tree and pair instead")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    if not (trees["parent"] / "perfbench" / "run.py").is_file():
        parser.error(f"--parent: no perfbench/run.py under {args.parent}")
    if args.pairs < 1 or args.seconds <= 0 or (args.inproc is not None and args.inproc < 1):
        parser.error("--pairs and --inproc must be >= 1 and --seconds > 0")
    with tempfile.TemporaryDirectory(prefix="bench_pairs_aa_") as tmp:
        if args.aa:
            trees["copy"] = Path(tmp) / "parent"
            shutil.copytree(trees["parent"], trees["copy"],
                            ignore=shutil.ignore_patterns("out", "__pycache__", ".git"))
        metrics = bench["end_to_end"]
        if args.inproc is not None:
            metrics = [m for m in metrics if m["name"] in INPROC_METRICS]
        return _run(args, trees, metrics)


def _run(args, trees: dict[str, Path], metrics: list[dict]) -> int:
    for workload in args.workloads.split(","):
        pairs, aa_pairs = [], []
        for seed in range(1, args.pairs + 1):
            order = ["parent", "change"] if seed % 2 == 0 else ["change", "parent"]
            if "copy" in trees:
                order.insert(seed % 3, "copy")
            try:
                got = {side: run_once(trees[side], workload, seed, args.seconds)
                       if args.inproc is None
                       else inproc_once(trees[side], workload, seed, args.inproc)
                       for side in order}
            except RunFailed as exc:
                print(f"bench_pairs: run failed: {exc}", file=sys.stderr)
                return 1
            pairs.append((got["parent"], got["change"]))
            if "copy" in got:
                aa_pairs.append((got["parent"], got["copy"]))
            print(f"{workload} pair {seed}/{args.pairs} done", file=sys.stderr, flush=True)
        for row in summarize(pairs, metrics, aa_pairs):
            print(format_row(workload, row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
