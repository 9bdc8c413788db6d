"""The benchmark under perfbench/ looks library names up by attribute.

A library change that drops or moves one of those names must fail here,
not only in a traced benchmark run. These tests read perfbench/ and
change nothing in it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("entry", load("spans").WRAPPED, ids=lambda entry: entry[3])
def test_wrapped_attribute_resolves(entry):
    module_name, owner_name, attr, _, _ = entry
    module = importlib.import_module(module_name)
    owner = getattr(module, owner_name) if owner_name else module
    assert attr in owner.__dict__


def test_workloads_import():
    assert sorted(load("workloads").WORKLOADS) == ["bound", "desk", "sample"]


@pytest.mark.parametrize("name", ["desk", "sample"])
def test_workload_runs_one_pass_and_its_checks(tmp_path, name):
    # seed 1, one set-up, one pass and every check, as a benchmark run does
    # them; files the workload writes go to tmp_path, not under perfbench/
    workloads = load("workloads")
    workloads.OUT_DIR = tmp_path
    workload = workloads.WORKLOADS[name](1)
    state = workload.setup()
    first = workload.run_pass(state)
    assert first.job_s > 0 and first.request_s and first.fingerprint
    for _, run_check in workload.run_checks(state, first):
        run_check()


def test_a_traced_fit_records_the_training_spans_and_step_counts():
    # the traced per-layer metrics of training read what one small fit
    # does: every denoiser step is a batch_loss span and an optimizer
    # step outside warmup, and every warmup step one inside it
    from adpm import trainer
    from adpm.data import LongTailSpec, generate_longtail

    spans = load("spans")
    table = generate_longtail(LongTailSpec(k=3, head_count=24, decay=0.5, d=4,
                                           separation=5.0, spread=1.0, seed=0))
    cfg = trainer.TrainConfig(T=30, sample_steps=10, epochs=3, warmup_epochs=2, batch_size=16,
                              hidden=8, attn_dim=4, time_dim=4, prior_hidden=6)
    batches = -(-table.n // cfg.batch_size)
    tracer = spans.Tracer()
    with tracer.installed():
        trainer.fit(table, cfg)
    names = [s.name for s in tracer.spans]
    assert names.count("trainer.fit") == 1 and names.count("priors.warmup_train") == 1
    assert names.count("trainer.batch_loss") == cfg.epochs * batches
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["optim.joint_steps"] == cfg.epochs * batches
    assert metrics["optim.warmup_steps"] == cfg.warmup_epochs * batches
    assert metrics["trainer.batch_loss_self_s"] > 0 and metrics["optim.step_s"] > 0
    # uninstalled, the library runs as shipped and records nothing
    trainer.fit(table, cfg)
    assert len(tracer.spans) == len(names)
