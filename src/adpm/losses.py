"""Training objective: per-branch MMD regularizers plus noise reconstruction.

The maximum mean discrepancy between a predicted-noise batch and the
true Gaussian draws is the biased V-statistic

    MMD(A, B) = K(A, A) - 2 K(A, B) + K(B, B),

with K(X, Y) the mean RBF kernel value over all row pairs, one
Tape.rbf_mean node each. The total objective is w * (L_g + L_l) + L_eps,
where L_eps is the batch-mean squared error of the fused branch. Each
term is built on the caller's autodiff tape; the trainer's batch_loss is
the one place that builds one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Var
from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class KernelConfig:
    """RBF kernel with a fixed or median-heuristic bandwidth."""

    bandwidth: float = 1.0
    bandwidth_mode: str = "fixed"  # or "median-heuristic"

    def __post_init__(self):
        if self.bandwidth_mode not in ("fixed", "median-heuristic"):
            raise ConfigError(f"unknown bandwidth mode {self.bandwidth_mode!r}")
        if self.bandwidth_mode == "fixed" and not (np.isfinite(self.bandwidth)
                                                   and self.bandwidth > 0):
            raise ConfigError(f"bandwidth must be finite and positive, got {self.bandwidth}")


@dataclass(frozen=True)
class LossReport:
    """Scalars of one training step; total = w * (L_g + L_l) + L_eps."""

    L_g: float
    L_l: float
    L_eps: float
    L_total: float
    w: float


def resolve_bandwidth(a: np.ndarray, b: np.ndarray, cfg: KernelConfig) -> float:
    """Bandwidth for one evaluation; the median heuristic uses the
    median pairwise Euclidean distance of the stacked rows (1.0 when the
    median is 0)."""
    if cfg.bandwidth_mode == "fixed":
        return cfg.bandwidth
    stacked = np.concatenate([a, b], axis=0)
    diff = stacked[:, None, :] - stacked[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    iu = np.triu_indices(stacked.shape[0], 1)
    if iu[0].size == 0:
        return 1.0
    med = float(np.median(dist[iu]))
    return med if med > 0.0 else 1.0


def mmd_loss_graph(tape: Tape, eps_true: Var, eps_pred: Var, cfg: KernelConfig) -> Var:
    """V-statistic MMD between true and predicted noise batches."""
    sigma = resolve_bandwidth(eps_true.value, eps_pred.value, cfg)
    k_tt = tape.rbf_mean(eps_true, eps_true, sigma)
    k_tp = tape.rbf_mean(eps_pred, eps_true, sigma)
    k_pp = tape.rbf_mean(eps_pred, eps_pred, sigma)
    return tape.add(tape.sub(k_tt, tape.scale(k_tp, 2.0)), k_pp)


def eps_loss_graph(tape: Tape, eps_true: Var, eps_pred: Var) -> Var:
    """Batch mean of squared row differences."""
    if eps_true.shape != eps_pred.shape:
        raise ShapeError(f"shapes differ: {eps_true.shape} vs {eps_pred.shape}")
    n = eps_true.shape[0]
    return tape.scale(tape.sum_sq(tape.sub(eps_pred, eps_true)), 1.0 / n)


def total_loss_graph(tape: Tape, l_g: Var, l_l: Var, l_eps: Var, w: float) -> Var:
    if w <= 0:
        raise ConfigError(f"loss weight w must be positive, got {w}")
    return tape.add(tape.scale(tape.add(l_g, l_l), w), l_eps)
