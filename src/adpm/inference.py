"""Dataset-level classification with a trained checkpoint.

Classification draws nothing: each row's prediction is the endpoint of
the deterministic reverse chain (diffusion.sample) started at its fused
prior, so it is a pure function of the checkpoint, the features and the
step count, whatever the evaluation order or the other rows of the
table. The features pass through the prior net only: one global and one
local pass give the global prior y_g and the fused prior y_f. Each row
runs at the noise level of the class its global prior ranks first,
looked up by class index in the checkpoint's schedule (a checkpoint
trained with c = 0 has level 1 for every class). The schedule and the
sampler's plan for the step count are memoized
(trainer.noise_schedule, diffusion.sampler_plan), so repeated calls on
one checkpoint build neither again; everything that reads the networks'
blocks runs on every call. The chains of all rows then step together as
one (n, k) matrix through the forward-only denoiser, so the prior and
denoiser matmuls run as n-row BLAS products. Both networks run as plain
numpy; no autodiff tape is built. For n >= 2 OpenBLAS computes a row of
such a product the same way whatever n is, except for products with at
most 3 output columns (k <= 3 classes at the default widths), where a
row's last bits can depend on n. A 1-row table would take BLAS's
single-row path instead, so it runs as row 0 twice and the second copy
is dropped from the output. steps must be an integer (a bool is not,
errors.as_integer); anything else raises UsageError before any work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DatasetTable
from .diffusion import SampleBatch, sample
from .errors import ConfigError, as_integer
from .priors import prior_bundle
from .trainer import Checkpoint, noise_schedule


@dataclass(frozen=True)
class EvalOutput:
    predictions: np.ndarray          # (n,) sampled classes
    results: SampleBatch             # results[i] is row i's SampleResult
    prior_predictions: np.ndarray    # (n,) argmax of the fused prior y_f
    steps: int                       # reverse steps the chains ran


def classify_dataset(ckpt: Checkpoint, table: DatasetTable, *, steps: int | None = None,
                     trace: bool = False) -> EvalOutput:
    """Classify every row of the table, all chains stepping together;
    steps defaults to the checkpoint's sample_steps."""
    cfg = ckpt.config
    if table.k != len(ckpt.counts):
        raise ConfigError(f"checkpoint was trained with k={len(ckpt.counts)} classes, "
                          f"dataset has k={table.k}")
    d_model = ckpt.model.prior.w1.shape[0]
    if table.d != d_model:
        raise ConfigError(f"checkpoint was trained with d={d_model} features, "
                          f"dataset has d={table.d}")
    steps = cfg.sample_steps if steps is None else as_integer("steps", steps)
    schedule = noise_schedule(ckpt.counts, cfg)

    # a 1-row table runs as row 0 twice, on BLAS's matrix path
    index = np.zeros(2, dtype=np.int64) if table.n == 1 else np.arange(table.n)
    bundle = prior_bundle(ckpt.model.prior, table.features[index])
    results = sample(schedule, ckpt.model.denoiser, bundle.y_f, np.argmax(bundle.y_g, axis=1),
                     steps, trace=trace)
    if table.n == 1:
        results = results[:1]  # drop the pad row
    preds = np.argmax(results.y0, axis=1).astype(np.int64)
    prior_preds = np.argmax(bundle.y_f[:table.n], axis=1).astype(np.int64)
    return EvalOutput(predictions=preds, results=results, prior_predictions=prior_preds,
                      steps=steps)
