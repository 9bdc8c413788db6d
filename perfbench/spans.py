"""In-memory span recorder that wraps the library's layer entry points.

Each span records a name, start, end, parent span and request id. The
wrappers are installed where callers look names up: modules bind with
``from .x import y``, so ``adpm.diffusion.predict_noise`` is the name the
sampler calls, not ``adpm.denoiser.predict_noise``. Methods are wrapped on
their class. ``uninstall`` puts every original back, so untraced passes
run the library exactly as shipped.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

import numpy as np


def _tape_nodes(args, kwargs):
    return {"nodes": len(args[0].nodes)}


def _grid_rows(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {"rows": int(np.atleast_2d(np.asarray(x)).shape[0])}


# (module, owner attribute or None, attribute, span name, attribute recorder)
WRAPPED = (
    ("adpm.data", None, "generate_longtail", "data.generate_longtail", None),
    ("adpm.trainer", None, "fit", "trainer.fit", None),
    ("adpm.trainer", None, "warmup_train", "priors.warmup_train", None),
    ("adpm.trainer", None, "batch_loss", "trainer.batch_loss", None),
    ("adpm.trainer", None, "load_checkpoint", "trainer.load_checkpoint", None),
    ("adpm.autodiff", "Tape", "backward", "autodiff.backward", _tape_nodes),
    ("adpm.optim", "Adam", "step", "optim.step", None),
    ("adpm.inference", None, "classify_dataset", "inference.classify_dataset", None),
    ("adpm.inference", None, "sample", "diffusion.sample", None),
    ("adpm.diffusion", None, "predict_noise", "denoiser.predict_noise", None),
    ("adpm.diffusion", None, "reverse_step", "diffusion.reverse_step", None),
    ("adpm.diffusion", None, "inference_lambda", "schedule.inference_lambda", None),
    ("adpm.schedule", "NoiseSchedule", "gamma_for", "schedule.gamma_for", None),
    ("adpm.metrics", None, "bound_experiment", "metrics.bound_experiment", None),
    ("adpm.metrics", None, "bound_check", "metrics.bound_check", None),
    ("adpm.metrics", None, "class_rademacher", "metrics.class_rademacher", None),
    ("adpm.metrics", "HypothesisGrid", "evaluate", "metrics.grid_evaluate", _grid_rows),
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "request", "attrs")

    def __init__(self, id, parent, name, start, request, attrs):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.request = request
        self.attrs = attrs

    def to_jsonable(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start_s": self.start, "end_s": self.end, "request": self.request,
                **(self.attrs or {})}


class Tracer:
    """Records spans while installed; harness code sets ``request``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: str | None = None
        self._open: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), parent, name, time.perf_counter(), self.request, attrs)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, original, name, recorder):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = recorder(args, kwargs) if recorder is not None else None
            with tracer.span(name, attrs):
                return original(*args, **kwargs)
        return traced

    def install(self) -> None:
        import importlib
        if self._originals:
            return
        for module_name, owner_name, attr, name, recorder in WRAPPED:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, recorder))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_jsonable()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Spans come from one thread and nest strictly, so the children of a
    span never overlap each other.
    """
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one pass of work, keyed by per-layer metric name."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    nodes: list[int] = []
    rows = 0
    warmup_steps = joint_steps = 0
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        self_total[s.name] = self_total.get(s.name, 0.0) + own[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.name == "autodiff.backward":
            nodes.append(s.attrs["nodes"])
        elif s.name == "metrics.grid_evaluate":
            rows += s.attrs["rows"]
        elif s.name == "optim.step":
            if _has_ancestor(s, "priors.warmup_train", by_id):
                warmup_steps += 1
            else:
                joint_steps += 1
    return {
        "priors.warmup_s": total.get("priors.warmup_train", 0.0),
        "trainer.batch_loss_self_s": self_total.get("trainer.batch_loss", 0.0),
        "autodiff.backward_s": total.get("autodiff.backward", 0.0),
        "autodiff.nodes_per_step": float(np.median(nodes)) if nodes else 0.0,
        "optim.step_s": total.get("optim.step", 0.0),
        "optim.warmup_steps": warmup_steps,
        "optim.joint_steps": joint_steps,
        "inference.classify_self_s": self_total.get("inference.classify_dataset", 0.0),
        "diffusion.sample_self_s": self_total.get("diffusion.sample", 0.0),
        "diffusion.reverse_step_s": total.get("diffusion.reverse_step", 0.0),
        "denoiser.predict_s": total.get("denoiser.predict_noise", 0.0),
        "denoiser.predict_calls": calls.get("denoiser.predict_noise", 0),
        "schedule.gamma_for_calls": calls.get("schedule.gamma_for", 0),
        "schedule.inference_lambda_calls": calls.get("schedule.inference_lambda", 0),
        "metrics.bound_check_self_s": self_total.get("metrics.bound_check", 0.0),
        "metrics.grid_evaluate_s": total.get("metrics.grid_evaluate", 0.0),
        "metrics.grid_rows_evaluated": rows,
        "metrics.rademacher_s": self_total.get("metrics.class_rademacher", 0.0),
        "trainer.load_checkpoint_s": total.get("trainer.load_checkpoint", 0.0),
        "data.generate_s": total.get("data.generate_longtail", 0.0),
    }


def _has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False


COUNT_METRICS = ("autodiff.nodes_per_step", "optim.warmup_steps", "optim.joint_steps",
                 "denoiser.predict_calls", "schedule.gamma_for_calls",
                 "schedule.inference_lambda_calls", "metrics.grid_rows_evaluated")
SETUP_METRICS = ("trainer.load_checkpoint_s", "data.generate_s")
