"""Training objective: per-branch MMD regularizers plus noise reconstruction.

The maximum mean discrepancy between a predicted-noise batch and the
true Gaussian draws is the biased V-statistic

    MMD(A, B) = K(A, A) - 2 K(A, B) + K(B, B),

with K(X, Y) the mean RBF kernel value over all row pairs. The total
objective is w * (L_g + L_l) + L_eps, where L_eps is the batch-mean
squared error of the fused branch. Each term returns its value and its
gradient in the predicted noise, weighted by the term's weight in the
total (w for an MMD term, 1 for L_eps), as plain numpy: no autodiff tape
is built. The gradients are the
expressions, in the order, that a reverse-mode tape over the same ops
computes, so they keep that tape's bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class LossReport:
    """Scalars of one training step; total = w * (L_g + L_l) + L_eps."""

    L_g: float
    L_l: float
    L_eps: float
    L_total: float
    w: float


def rbf_kernel(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-|a_i - b_j|^2 / (2 sigma^2)) for every row pair, from the
    squared distances |a_i|^2 + |b_j|^2 - 2 a_i.b_j."""
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"rbf kernel: column counts differ: {a.shape} vs {b.shape}")
    sq = ((a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
          - (a @ b.T) * 2.0)
    return np.exp(sq * (-1.0 / (2.0 * sigma * sigma)))


def mmd_loss(eps_true: np.ndarray, eps_pred: np.ndarray, sigma: float,
             weight: float = 1.0) -> tuple[float, np.ndarray]:
    """V-statistic MMD between true and predicted noise batches at RBF
    bandwidth sigma, and the gradient of weight * MMD in eps_pred.

    A kernel mean m(A, B) with adjoint g has, with D = K g s / K.size and
    s = -1/(2 sigma^2), the gradients 2 (rowsum(D) A - D B) in A and
    2 (colsum(D) B - D^T A) in B; K(pred, pred) takes both, with adjoint
    weight, and K(pred, true) the first, with adjoint -2 weight.
    """
    k_tt = rbf_kernel(eps_true, eps_true, sigma)
    k_pt = rbf_kernel(eps_pred, eps_true, sigma)
    k_pp = rbf_kernel(eps_pred, eps_pred, sigma)
    value = k_tt.mean() - k_pt.mean() * 2.0 + k_pp.mean()
    s = -1.0 / (2.0 * sigma * sigma)
    d_pp = k_pp * (weight * s / k_pp.size)
    d_pt = k_pt * (-weight * 2.0 * s / k_pt.size)
    grad = (2.0 * (d_pp.sum(axis=1)[:, None] * eps_pred - d_pp @ eps_pred)
            + 2.0 * (d_pp.sum(axis=0)[:, None] * eps_pred - d_pp.T @ eps_pred)
            + 2.0 * (d_pt.sum(axis=1)[:, None] * eps_pred - d_pt @ eps_true))
    return float(value), grad


def eps_loss(eps_true: np.ndarray, eps_pred: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch mean of squared row differences, and its gradient in eps_pred."""
    if eps_true.shape != eps_pred.shape:
        raise ShapeError(f"shapes differ: {eps_true.shape} vs {eps_pred.shape}")
    diff = eps_pred - eps_true
    scale = 1.0 / eps_true.shape[0]
    return float(np.sum(diff * diff)) * scale, 2.0 * scale * diff


def total_loss(l_g: float, l_l: float, l_eps: float, w: float) -> float:
    if w <= 0:
        raise ConfigError(f"loss weight w must be positive, got {w}")
    return (l_g + l_l) * w + l_eps
