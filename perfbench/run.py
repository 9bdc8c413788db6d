"""adpm benchmark: one workload per run, end-to-end or traced per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` alternates untraced and traced passes of the same work,
checks that their outputs are bitwise equal and that every count repeats
exactly between traced passes, and reports per-layer self times and
counts plus the tracing overhead. Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details, the
environment and (traced runs) every span are written under
``perfbench/out/``.

The harness is one process with no worker pool; it neither sets nor
changes ``ADPM_THREADS`` or the BLAS thread variables, and records the
values it finds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("success_rate", "ratio"),
              ("job_s", "s"), ("request_ms_p90", "ms"))


def import_library():
    """Import adpm from this checkout's ``src``; any other copy is refused."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import adpm
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import adpm from {src}: {exc}")
    if Path(adpm.__file__).resolve().parent != (src / "adpm").resolve():
        raise SystemExit(f"perfbench: adpm imported from {adpm.__file__}, not {src}")


class Ledger:
    """Counts operations and the ones that failed, with their messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextmanager
    def op(self, what: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            print(f"FAILED {what}: {type(exc).__name__}: {exc}", file=sys.stderr)


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "cpu": cpu,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "ADPM_THREADS": os.environ.get("ADPM_THREADS")}


class Deadline:
    """Repeats work while the next repetition is expected to end within half
    a repetition of the deadline, so runs last ``seconds`` on average."""

    def __init__(self, seconds: float):
        self.last = time.perf_counter()
        self.end = self.last + seconds
        self.longest = 0.0

    def more(self, done: int, minimum: int) -> bool:
        now = time.perf_counter()
        if done:
            self.longest = max(self.longest, now - self.last)
        self.last = now
        return done < minimum or now + self.longest / 2 <= self.end

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` of other work out of the budget and of the pass time."""
        self.end += seconds
        self.last += seconds


def timed_setup(workload, times: list[float]):
    t0 = time.perf_counter()
    state = workload.setup()
    times.append(time.perf_counter() - t0)
    return state


def summarize(passes) -> dict:
    jobs = [p.job_s for p in passes]
    requests = [x for p in passes for x in p.request_s]
    out = {"job_s": statistics.median(jobs), "job_samples_s": jobs,
           "request_p50_s": float(np.percentile(requests, 50)),
           "request_p90_s": float(np.percentile(requests, 90)),
           "request_samples_s": requests,
           "quality": statistics.median(p.quality for p in passes)}
    for key, value in passes[0].extra.items():
        if isinstance(value, float):
            out[key] = statistics.median(p.extra[key] for p in passes)
    return out


def check_same(ledger: Ledger, what: str, result, first) -> None:
    with ledger.op(what):
        if result.fingerprint != first.fingerprint:
            raise AssertionError("outputs differ bitwise from the first pass")


def measure(workload, seconds: float, ledger: Ledger) -> dict:
    """Untraced run: repeated set-ups, then passes until ``seconds`` elapse."""
    setup_times: list[float] = []
    state = timed_setup(workload, setup_times)
    passes = []
    clock = Deadline(seconds)
    while clock.more(ledger.attempted, 1):
        if passes and len(setup_times) < workload.setup_repeats:
            # spread the set-ups over the run so their median sees its machine load
            state = timed_setup(workload, setup_times)
            clock.exclude(setup_times[-1])
        with ledger.op(f"pass {len(passes)}"):
            passes.append(workload.run_pass(state))
    while len(setup_times) < workload.setup_repeats:
        state = timed_setup(workload, setup_times)
    if passes:
        for i, result in enumerate(passes[1:], start=1):
            check_same(ledger, f"pass {i} equals pass 0", result, passes[0])
        for what, fn in workload.run_checks(state, passes[0]):
            with ledger.op(what):
                fn()
    if not passes:
        return {"metrics": {name: 0.0 for name, _ in END_TO_END}, "report": {}}
    summary = summarize(passes)
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - ledger.failed / ledger.attempted,
        "job_s": summary["job_s"],
        "request_ms_p90": summary["request_p90_s"] * 1e3,
    }
    report = {"setup_s": (values["setup_s"], "s"),
              "peak_rss_mb": (values["peak_rss_mb"], "MB"),
              "error_rate": (ledger.failed / ledger.attempted, "ratio"),
              **workload.report(state, summary)}
    report = {name: {"value": v, "unit": u} for name, (v, u) in report.items()}
    return {"metrics": values, "report": report, "summary": summary,
            "setup_samples_s": setup_times}


def measure_traced(workload, seconds: float, ledger: Ledger, spans_path) -> dict:
    """Traced run: alternating untraced and traced passes of the same work."""
    import spans as tracing

    tracer = tracing.Tracer()
    setup_layers = []
    with tracer.installed():
        for i in range(workload.setup_repeats):
            tracer.request = f"setup-{i}"
            mark = len(tracer.spans)
            state = workload.setup()
            setup_layers.append(tracing.layer_metrics(tracer.spans[mark:]))

    plain, traced, layers = [], [], []
    clock = Deadline(seconds)
    pair = 0
    while clock.more(pair, 2):
        with ledger.op(f"untraced pass {pair}"):
            plain.append(workload.run_pass(state))
        mark = len(tracer.spans)
        with ledger.op(f"traced pass {pair}"):
            with tracer.installed():
                result = workload.run_pass(
                    state, lambda rid, p=pair: setattr(tracer, "request", f"pass-{p}/{rid}"))
            traced.append(result)
            layers.append(tracing.layer_metrics(tracer.spans[mark:]))
        pair += 1
    tracer.request = None

    if plain:
        for i, result in enumerate(plain[1:] + traced, start=1):
            check_same(ledger, f"pass {i} equals untraced pass 0", result, plain[0])
    with ledger.op("count metrics repeat between traced passes"):
        for counts in layers[1:]:
            for name in tracing.COUNT_METRICS:
                if counts[name] != layers[0][name]:
                    raise AssertionError(f"{name}: {counts[name]} != {layers[0][name]}")
    tracer.write_jsonl(spans_path)

    values = dict.fromkeys(tracing.layer_metrics([]), 0.0)
    values["trace.job_overhead_s"] = values["trace.request_overhead_ms"] = 0.0
    for name in values if layers else ():
        if name.startswith("trace."):
            continue
        if name in tracing.SETUP_METRICS:
            values[name] = statistics.median(m[name] for m in setup_layers)
        elif name in tracing.COUNT_METRICS:
            values[name] = layers[0][name]
        else:
            values[name] = statistics.median(m[name] for m in layers)
    if plain and traced:
        # traced minus untraced: fit_s and classify_s on desk
        p, t = summarize(plain), summarize(traced)
        values["trace.job_overhead_s"] = t["job_s"] - p["job_s"]
        values["trace.request_overhead_ms"] = (t["request_p50_s"] - p["request_p50_s"]) * 1e3
    return {"metrics": values, "spans": len(tracer.spans), "passes": len(traced)}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def run_one(args) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    ledger = Ledger()
    stem = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = measure_traced(workload, args.seconds, ledger,
                                stem.with_suffix(".spans.jsonl"))
        unit = per_layer_unit
    else:
        result = measure(workload, args.seconds, ledger)
        unit = dict(END_TO_END).__getitem__
    metrics = {name: {"value": value, "unit": unit(name)}
               for name, value in result.pop("metrics").items()}
    for name, m in result.get("report", {}).items():
        print(f"{args.workload:7s} {name:22s} {m['value']:14.6f} {m['unit']}")
    env = environment()
    print("env " + json.dumps(env))
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "errors": ledger.errors,
              **result, "metrics": metrics}
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("desk", "sample", "bound"):
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("desk", "sample", "bound", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    import_library()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
