"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 35
    python3 perfbench/baseline.py --seeds 1-10 --seconds 35 --write

Each seed is one untraced run of ``run.py`` in its own process, one after
another; two traced runs at the first seed follow, and their count
metrics must be identical. For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles``,
n=4) and the inter-quartile distance as a share of the median. With
``--write`` it stores the summary, the workload-specific figures, the
traced per-layer figures and the environment in ``baseline.json``, the
reference later changes are compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spans import COUNT_METRICS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("desk", "sample", "bound")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
                          stdout=subprocess.PIPE, text=True, check=True, cwd=HERE.parent)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json", encoding="utf-8") as fh:
        return last, json.load(fh)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else None, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="35")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)

    summary = {"seeds": seeds, "seconds": float(args.seconds), "workloads": {}}
    for workload in WORKLOADS:
        e2e: dict[str, list[float]] = {}
        report: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = 0
        for seed in seeds:
            last, detail = run(workload, seed, args.seconds, 0)
            failed += last["failed"]
            print(workload, seed, last["correct"], last["attempted"], last["failed"],
                  {k: round(v["value"], 6) for k, v in last["metrics"].items()}, flush=True)
            for name, m in last["metrics"].items():
                e2e.setdefault(name, []).append(m["value"])
            for name, m in detail["report"].items():
                report.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        traced, detail = run(workload, seeds[0], args.seconds, 1)
        again, _ = run(workload, seeds[0], args.seconds, 1)
        failed += traced["failed"] + again["failed"]
        counts_repeat = all(traced["metrics"][name] == again["metrics"][name]
                            for name in COUNT_METRICS)
        print(workload, "traced", traced["correct"], again["correct"],
              "counts repeat" if counts_repeat else "COUNTS DIFFER", flush=True)
        entry = {
            "failed": failed,
            "counts_repeat": counts_repeat,
            "end_to_end": {name: spread(v) for name, v in e2e.items()},
            "report": {name: {"median": statistics.median(v), "unit": units[name]}
                       for name, v in report.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        summary["environment"] = detail["environment"]
        summary["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            share = "n/a" if s["iqr_share"] is None else f"{s['iqr_share']:.4f}"
            print(f"  {workload:7s} {name:16s} median {s['median']:14.6f} iqr/median {share}")
    if args.write:
        with open(HERE / "baseline.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
