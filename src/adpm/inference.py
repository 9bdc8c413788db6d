"""Dataset-level classification with a trained checkpoint.

Each input has its own random stream keyed by (seed, 3, input index), so
predictions are reproducible and independent of evaluation order or of
which other rows share the table. The features pass through the prior
net only: one global and one local pass give the global prior y_g and
the fused prior y_f. Each row runs at the noise level of the class its
global prior ranks first, looked up by class index in the checkpoint's
schedule (with lambda_override set, every class of that schedule has
the forced level). The chains of all rows then step together as one
(n, k) matrix through the forward-only denoiser, so the prior and
denoiser matmuls run as n-row BLAS products. Both networks run as plain
numpy; no autodiff tape is built. For n >= 2 OpenBLAS computes a row of
such a product the same way whatever n is, except for products with at
most 3 output columns (k <= 3 classes at the default widths), where a
row's last bits can depend on n. A 1-row table would take BLAS's
single-row path instead, so it is padded to two rows, the pad row on
its own copy of stream (seed, 3, 0), and the pad row is dropped from the
output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DatasetTable
from .diffusion import SampleBatch, sample
from .errors import ConfigError, UsageError
from .priors import prior_bundle
from .trainer import Checkpoint, noise_schedule


@dataclass(frozen=True)
class EvalOutput:
    predictions: np.ndarray          # (n,) sampled classes
    results: SampleBatch             # results[i] is row i's SampleResult
    prior_predictions: np.ndarray    # (n,) argmax of the fused prior y_f


def classify_dataset(ckpt: Checkpoint, table: DatasetTable, *,
                     steps: int | None = None, seed: int | None = None,
                     trace: bool = False) -> EvalOutput:
    """Sample a class for every row of the table, all chains stepping together."""
    cfg = ckpt.config
    if table.k != len(ckpt.counts):
        raise ConfigError(f"checkpoint was trained with k={len(ckpt.counts)} classes, "
                          f"dataset has k={table.k}")
    d_model = ckpt.model.prior.w1.shape[0]
    if table.d != d_model:
        raise ConfigError(f"checkpoint was trained with d={d_model} features, "
                          f"dataset has d={table.d}")
    steps = cfg.sample_steps if steps is None else steps
    seed = cfg.seed if seed is None else seed
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    schedule = noise_schedule(ckpt.counts, cfg)

    index = np.zeros(2, dtype=np.int64) if table.n == 1 else np.arange(table.n)
    bundle = prior_bundle(ckpt.model.prior, table.features[index])

    rngs = [np.random.default_rng([seed, 3, int(i)]) for i in index]
    results = sample(schedule, ckpt.model.denoiser, bundle.y_f, np.argmax(bundle.y_g, axis=1),
                     rngs, steps, trace=trace)[:table.n]
    preds = np.argmax(results.y0, axis=1).astype(np.int64)
    prior_preds = np.argmax(bundle.y_f[:table.n], axis=1).astype(np.int64)
    return EvalOutput(predictions=preds, results=results, prior_predictions=prior_preds)
