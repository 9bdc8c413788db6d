"""The benchmark's three workloads, driven only through adpm's public functions.

Every workload is a set-up step plus a fixed *pass* of work that the
harness repeats. A pass returns its timings, its quality figure and a
fingerprint of every output it produced; the same seed gives the same
inputs, so every pass of a run must reproduce the first one bitwise.

Library functions are looked up on their module at call time, so the
span wrappers of a traced run see every call the harness makes.

- ``desk``: the c07 end-to-end recipe, ``fit`` plus ``classify_dataset``.
  About 80% trainer/autodiff/optim work and 20% reverse sampling; the
  bound checker does no work. Job = one ``fit``, request = one
  ``classify_dataset`` over the 68-row test split.
- ``sample``: a 4x larger long tail whose checkpoint is trained, saved
  and loaded in set-up, so the timed part is pure inference with 50
  strided reverse steps. Job = one ``classify_dataset`` over the whole
  test split (batched BLAS path), request = one single-row
  ``classify_dataset`` sent by one closed-loop client (the 1-row gemv
  path). The trainer does no timed work.
- ``bound``: the c09 recipe, ``bound_experiment`` over pre-generated
  training draws against a 100k-row population. Only ``metrics`` works
  (and ``data`` in set-up). Job = one experiment of ``BOUND_DRAWS``
  draws, request = one draw.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from adpm import data, inference, metrics, trainer
from adpm.autodiff import Tape
from adpm.priors import PriorGraph

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

ACCURACY_FLOOR = 0.90          # c07's gate on every desk seed
REFERENCE_F1_TOLERANCE = 0.10  # desk macro_f1 may fall this far below its reference
VIOLATION_GATE = 0.05          # c09: the bound holds on at least 95% of draws

DESK_SPEC = dict(k=6, head_count=100, decay=0.57, d=8, separation=6.0, spread=1.0)
DESK_CFG = dict(T=100, sample_steps=25, alpha=1.0 / 6.0, c=5.0, beta1=1e-4,
                betaT=0.004, epochs=80, warmup_epochs=60)
SAMPLE_SPEC = dict(DESK_SPEC, head_count=400)
SAMPLE_CFG = dict(DESK_CFG, sample_steps=50, epochs=20)
SAMPLE_ROWS_PER_PASS = 60      # single-row requests per pass
SAMPLE_PREFIX_ROWS = 64        # prefix subset for the batching-independence check
POP_SPEC = dict(k=2, head_count=70_000, decay=3.0 / 7.0, d=2, separation=4.0, spread=1.0)
DRAW_SPEC = dict(POP_SPEC, head_count=70)
BOUND_DRAWS = 20               # training draws per bound job
BOUND_MC_DRAWS = 200


class CheckFailed(Exception):
    """An output of the library failed one of the benchmark's checks."""


def check(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sub_seed(seed: int, *tags: int) -> int:
    """Independent integer seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def _fingerprint(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def _classify_fingerprint(out) -> list[np.ndarray]:
    return [out.predictions, *(r.y0 for r in out.results)]


def _check_finite(out, what: str) -> None:
    check(all(np.isfinite(r.y0).all() for r in out.results), f"{what}: non-finite y0")


def _macro_f1(table, predictions) -> float:
    return metrics.classification_metrics(table.labels, predictions, table.k).macro_f1


@dataclass
class PassResult:
    job_s: float
    request_s: list[float]
    quality: float
    fingerprint: bytes
    extra: dict = field(default_factory=dict)


def _no_request(request_id: str) -> None:
    pass


def load_reference(seed: int) -> float | None:
    """Reference desk macro-F1 of ``seed``, or None outside the table."""
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["desk_macro_f1"].get(str(seed))


class Desk:
    name = "desk"
    setup_repeats = 9

    def __init__(self, seed: int):
        self.seed = seed
        self.reference = load_reference(seed)

    def setup(self):
        seed = self.seed
        table = data.generate_longtail(data.LongTailSpec(**DESK_SPEC, seed=seed))
        train, test = data.split_fractions(table, (0.7, 0.3), seed=seed)
        cfg = trainer.TrainConfig(**DESK_CFG, seed=seed)
        return {"train": train, "test": test, "cfg": cfg}

    def run_pass(self, state, begin=_no_request) -> PassResult:
        test = state["test"]
        begin("fit")
        t0 = time.perf_counter()
        ckpt = trainer.fit(state["train"], state["cfg"])
        t1 = time.perf_counter()
        begin("classify")
        out = inference.classify_dataset(ckpt, test)
        t2 = time.perf_counter()

        _check_finite(out, "desk classify")
        check(all(np.isfinite(b).all() for b in ckpt.model.blocks().values()),
              "desk fit: non-finite parameter block")
        report = metrics.classification_metrics(test.labels, out.predictions, test.k)
        check(report.accuracy >= ACCURACY_FLOOR,
              f"desk accuracy {report.accuracy:.4f} below {ACCURACY_FLOOR}")
        ref = self.reference
        if ref is not None:
            check(report.macro_f1 >= ref - REFERENCE_F1_TOLERANCE,
                  f"desk macro_f1 {report.macro_f1:.4f} below reference {ref:.4f} "
                  f"- {REFERENCE_F1_TOLERANCE}")
        tape = Tape()
        y_f = PriorGraph(tape, ckpt.model.prior, tape.const(test.features)).y_f.value
        prior_f1 = _macro_f1(test, np.argmax(y_f, axis=1))
        return PassResult(
            job_s=t1 - t0, request_s=[t2 - t1], quality=report.macro_f1,
            fingerprint=_fingerprint(*ckpt.model.blocks().values(),
                                     *ckpt.prior_frozen.blocks().values(),
                                     *_classify_fingerprint(out)),
            extra={"prior_macro_f1": prior_f1, "accuracy": report.accuracy})

    def run_checks(self, state, first: PassResult):
        return []

    def report(self, state, summary) -> dict:
        return {"fit_s": (summary["job_s"], "s"),
                "classify_s": (summary["request_p50_s"], "s"),
                "macro_f1": (summary["quality"], "ratio"),
                "sampler_lift_f1": (summary["quality"] - summary["prior_macro_f1"], "ratio")}


class Sample:
    name = "sample"
    setup_repeats = 3

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        seed = self.seed
        table = data.generate_longtail(data.LongTailSpec(**SAMPLE_SPEC, seed=seed))
        train, test = data.split_fractions(table, (0.7, 0.3), seed=seed)
        path = OUT_DIR / f"sample-seed{seed}.ckpt.json"
        trainer.save_checkpoint(trainer.fit(train, trainer.TrainConfig(**SAMPLE_CFG, seed=seed)),
                                path)
        ckpt = trainer.load_checkpoint(path)
        rows = np.random.default_rng(sub_seed(seed, 7)).permutation(test.n)
        return {"test": test, "ckpt": ckpt, "rows": rows[:SAMPLE_ROWS_PER_PASS]}

    def run_pass(self, state, begin=_no_request) -> PassResult:
        test, ckpt = state["test"], state["ckpt"]
        begin("batch")
        t0 = time.perf_counter()
        out = inference.classify_dataset(ckpt, test)
        job = time.perf_counter() - t0
        _check_finite(out, "sample batch")
        parts = _classify_fingerprint(out)
        latencies = []
        for r in state["rows"]:
            row = test.take([r])
            begin(f"row-{r}")
            t0 = time.perf_counter()
            one = inference.classify_dataset(ckpt, row)
            latencies.append(time.perf_counter() - t0)
            _check_finite(one, f"sample row {r}")
            parts += _classify_fingerprint(one)
        return PassResult(job_s=job, request_s=latencies,
                          quality=_macro_f1(test, out.predictions),
                          fingerprint=_fingerprint(*parts),
                          extra={"batch": out})

    def run_checks(self, state, first: PassResult):
        def prefix():
            m = min(SAMPLE_PREFIX_ROWS, state["test"].n)
            out = inference.classify_dataset(state["ckpt"], state["test"].take(range(m)))
            full = first.extra["batch"]
            _check_finite(out, "sample prefix")
            check(np.array_equal(out.predictions, full.predictions[:m])
                  and all(np.array_equal(a.y0, b.y0) for a, b in zip(out.results, full.results)),
                  f"predictions or y0 of the {m}-row prefix differ from the full-table ones")
        return [("prefix subset matches full table", prefix)]

    def report(self, state, summary) -> dict:
        return {"classify_rows_per_s": (state["test"].n / summary["job_s"], "1/s"),
                "row_latency_ms_p50": (summary["request_p50_s"] * 1e3, "ms"),
                "row_latency_ms_p90": (summary["request_p90_s"] * 1e3, "ms")}


class Bound:
    name = "bound"
    setup_repeats = 9

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        seed = self.seed
        pop = data.generate_longtail(data.LongTailSpec(**POP_SPEC, seed=sub_seed(seed, 1)))
        draws = []
        for i in range(BOUND_DRAWS):
            t = data.generate_longtail(data.LongTailSpec(**DRAW_SPEC, seed=sub_seed(seed, 2, i)))
            draws.append((t.features, t.labels))
        grid = metrics.HypothesisGrid.linear(2, 8, [-1.0, 0.0, 1.0], seed=42).with_negation()
        return {"pop": pop, "draws": draws, "grid": grid, "mc_seed": sub_seed(seed, 3)}

    def run_pass(self, state, begin=_no_request) -> PassResult:
        pop, draws = state["pop"], state["draws"]
        stamps = []

        def draw_fn(i):
            begin(f"draw-{i}")
            stamps.append(time.perf_counter())
            return draws[i]

        begin("experiment")
        t0 = time.perf_counter()
        result = metrics.bound_experiment(draw_fn, len(draws), pop.features, pop.labels,
                                          state["grid"], delta=0.05, mc_draws=BOUND_MC_DRAWS,
                                          seed=state["mc_seed"])
        t1 = time.perf_counter()
        check(np.isfinite(result["margin_min"]).all() and np.isfinite(result["r_mean"]).all(),
              "bound: non-finite margins or complexities")
        check(result["violation_rate"] <= VIOLATION_GATE,
              f"bound: violation rate {result['violation_rate']} above {VIOLATION_GATE}")
        stamps.append(t1)
        return PassResult(job_s=t1 - t0, request_s=list(np.diff(stamps)),
                          quality=1.0 - result["violation_rate"],
                          fingerprint=json.dumps(result, sort_keys=True).encode())

    def run_checks(self, state, first: PassResult):
        return []

    def report(self, state, summary) -> dict:
        return {"bound_draws_per_s": (BOUND_DRAWS / summary["job_s"], "1/s"),
                "violation_rate": (1.0 - summary["quality"], "ratio")}


WORKLOADS = {w.name: w for w in (Desk, Sample, Bound)}
