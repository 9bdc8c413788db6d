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

rbf_kernel and mmd_loss also take stacks of batches, (..., n, k), and
score each batch of a stack with the bits it gets alone (numpy runs a
stacked product as one BLAS product per batch, and every reduction runs
over one batch's axes), so the trainer scores its global and local
branches with one call. mmd_loss computes each operand's squared row
norms once for its three kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class LossReport:
    """Scalars of one training step; total = w * (L_g + L_l) + L_eps,
    with trainer.MMD_WEIGHT as w."""

    L_g: float
    L_l: float
    L_eps: float
    L_total: float


def rbf_kernel(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-|a_i - b_j|^2 / (2 sigma^2)) for every row pair, from the
    squared distances |a_i|^2 + |b_j|^2 - 2 a_i.b_j; stacks (..., n, d)
    and (..., m, d) give (..., n, m)."""
    if a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"rbf kernel: column counts differ: {a.shape} vs {b.shape}")
    return _rbf(a, _sq_norms(a), b, _sq_norms(b), sigma)


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """The squared norm of each row."""
    return (a * a).sum(axis=-1)


def _rbf(a, a_sq, b, b_sq, sigma: float) -> np.ndarray:
    """rbf_kernel of a and b, given their squared row norms a_sq and b_sq."""
    sq = a_sq[..., :, None] + b_sq[..., None, :] - (a @ np.swapaxes(b, -1, -2)) * 2.0
    return np.exp(sq * (-1.0 / (2.0 * sigma * sigma)))


def mmd_loss(eps_true: np.ndarray, eps_pred: np.ndarray, sigma: float,
             weight: float = 1.0) -> tuple[float | np.ndarray, np.ndarray]:
    """V-statistic MMD between true and predicted noise batches at RBF
    bandwidth sigma, and the gradient of weight * MMD in eps_pred.

    Batches of shape (..., n, k) are scored one per leading index: the
    value has shape (...), a float for (n, k) batches, and the gradient
    is shaped like eps_pred. A batch in a stack gets the bits it gets
    alone.

    A kernel mean m(A, B) with adjoint g has, with D = K g s / K.size and
    s = -1/(2 sigma^2), the gradients 2 (rowsum(D) A - D B) in A and
    2 (colsum(D) B - D^T A) in B; K(pred, pred) takes both, with adjoint
    weight, and K(pred, true) the first, with adjoint -2 weight.
    """
    sq_t, sq_p = _sq_norms(eps_true), _sq_norms(eps_pred)
    k_tt = _rbf(eps_true, sq_t, eps_true, sq_t, sigma)
    k_pt = _rbf(eps_pred, sq_p, eps_true, sq_t, sigma)
    k_pp = _rbf(eps_pred, sq_p, eps_pred, sq_p, sigma)
    value = _mean(k_tt) - _mean(k_pt) * 2.0 + _mean(k_pp)
    s = -1.0 / (2.0 * sigma * sigma)
    d_pp = k_pp * (weight * s / _size(k_pp))
    d_pt = k_pt * (-weight * 2.0 * s / _size(k_pt))
    grad = (2.0 * (d_pp.sum(axis=-1)[..., None] * eps_pred - d_pp @ eps_pred)
            + 2.0 * (d_pp.sum(axis=-2)[..., None] * eps_pred
                     - np.swapaxes(d_pp, -1, -2) @ eps_pred)
            + 2.0 * (d_pt.sum(axis=-1)[..., None] * eps_pred - d_pt @ eps_true))
    return (float(value) if value.ndim == 0 else value), grad


def _size(kernel: np.ndarray) -> int:
    return kernel.shape[-2] * kernel.shape[-1]


def _mean(kernel: np.ndarray) -> np.ndarray:
    """The mean of each (n, m) kernel of a stack: the bits of
    kernel.mean(), without its bookkeeping."""
    return kernel.sum(axis=(-2, -1)) / _size(kernel)


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
