"""Global, local and fused class priors.

The prior network is a one-hidden-layer softmax classifier. Its global
branch scores the full feature vector; the local branch re-scores the
input masked to its max(1, d // 2) most salient coordinates (salience of
coordinate i is |x_i| * sum_h |W1[i, h]|), a tabular stand-in for
attention-cropped regions. The fused prior is the componentwise mean of
the two. The mask size is a property derived from W1's d rows, so the
four blocks are the whole network.

The network is trained once, by warmup_train's cross entropy, and then
frozen. Warmup runs on the network's flat form (BlockTable.flat): the
blocks and the gradient are each one vector, and _cross_entropy_grads
writes its gradient into the blocks' views of it, built once per run.
Once trained, fit computes the priors of every training row once and
the diffusion training loop takes them as constants, and inference reads
the same network. Every pass runs as plain numpy (mlp_forward,
prior_bundle); PriorGraph only copies prior_bundle's values onto a
caller's tape as constants, so importing the library loads no tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import optim
from .data import DatasetTable
from .errors import ShapeError


def as_matrix(x) -> np.ndarray:
    """Coerce to a C-contiguous 2-D float64 array, or raise ShapeError."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got shape {a.shape}")
    return a


@dataclass
class PriorNetParams(optim.BlockTable):
    """Weights of the prior classifier, laid out by shapes()."""

    w1: np.ndarray  # (d, hidden)
    b1: np.ndarray  # (1, hidden)
    w2: np.ndarray  # (hidden, k)
    b2: np.ndarray  # (1, k)

    @property
    def mask_size(self) -> int:
        """Coordinates the local branch keeps: half the feature count d,
        at least one."""
        return max(1, self.w1.shape[0] // 2)

    @staticmethod
    def shapes(d: int, hidden: int, k: int) -> dict[str, tuple[int, int]]:
        """Block name -> shape, in blocks() order."""
        return {"w1": (d, hidden), "b1": (1, hidden), "w2": (hidden, k), "b2": (1, k)}

    def dims(self) -> tuple[int, int, int]:
        """(d, hidden, k), as the blocks give them."""
        return self.w1.shape[0], self.w1.shape[-1], self.w2.shape[-1]


@dataclass(frozen=True)
class PriorBundle:
    """Global, local and fused prior probabilities of n inputs, each an
    (n, k) matrix."""

    y_g: np.ndarray
    y_l: np.ndarray
    y_f: np.ndarray


def salience_mask(params: PriorNetParams, x: np.ndarray) -> np.ndarray:
    """0/1 mask keeping the mask_size most salient coordinates per row.

    Ties break toward the lower coordinate index.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    col_weight = np.abs(params.w1).sum(axis=1)
    salience = np.abs(x) * col_weight
    mask = np.zeros_like(x)
    order = np.argsort(-salience, axis=1, kind="stable")
    rows = np.arange(x.shape[0])[:, None]
    mask[rows, order[:, : params.mask_size]] = 1.0
    return mask


def mlp_forward(params: PriorNetParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden layer and logits, tanh(x @ w1 + b1) @ w2 + b2, for an (n, d) x."""
    hidden = np.tanh(x @ params.w1 + params.b1)
    return hidden, hidden @ params.w2 + params.b2


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def prior_bundle(params: PriorNetParams, x) -> PriorBundle:
    """Global, local and fused priors of every row of the (n, d) matrix x,
    as (n, k) arrays."""
    x = as_matrix(x)
    y_g = _softmax_rows(mlp_forward(params, x)[1])
    y_l = _softmax_rows(mlp_forward(params, x * salience_mask(params, x))[1])
    return PriorBundle(y_g=y_g, y_l=y_l, y_f=(y_g + y_l) * 0.5)


class PriorGraph:
    """prior_bundle's three values of x.value as const leaves of tape, an
    autodiff.Tape the caller built (this module does not import the tape).

    perfbench/workloads.py still reads y_f through this name; it goes
    once the benchmark calls prior_bundle itself.
    """

    def __init__(self, tape, params: PriorNetParams, x):
        bundle = prior_bundle(params, x.value)
        self.y_g, self.y_l, self.y_f = (tape.const(v) for v in
                                        (bundle.y_g, bundle.y_l, bundle.y_f))


def _cross_entropy_grads(params: PriorNetParams, x: np.ndarray, onehot: np.ndarray,
                         grads: dict[str, np.ndarray]) -> float:
    """Loss of the softmax cross entropy; its analytic gradient is written
    into grads, arrays named and shaped like params' blocks (the views of
    a gradient vector, views(out), which the caller keeps with it)."""
    n = x.shape[0]
    hidden, logits = mlp_forward(params, x)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    loss = float(-(onehot * (shifted - np.log(e.sum(axis=1, keepdims=True)))).sum() / n)
    dlogits = (probs - onehot) / n
    np.matmul(hidden.T, dlogits, out=grads["w2"])
    dlogits.sum(axis=0, keepdims=True, out=grads["b2"])
    dhidden = (dlogits @ params.w2.T) * (1.0 - hidden ** 2)
    np.matmul(x.T, dhidden, out=grads["w1"])
    dhidden.sum(axis=0, keepdims=True, out=grads["b1"])
    return loss


def warmup_train(params: PriorNetParams, table: DatasetTable, epochs: int, opt, *,
                 batch_size: int, seed: int = 0) -> PriorNetParams:
    """Cross-entropy pretraining of the prior classifier with opt, a fresh
    optimizer (fit passes an optim.Adam) whose own learning rate every
    step uses, on shuffled batches of batch_size rows.

    Returns a new parameter set; epochs=0 returns a bitwise copy of the
    input. Each epoch draws its shuffle from a stream keyed by (seed, 1,
    epoch), so runs are reproducible independently of call history.
    """
    if epochs == 0:
        return params.copy()
    # the blocks and the gradient are each one vector, so each step is
    # one optimizer pass; the gradient's block views are built once
    out, flat = params.flat()
    grad = np.empty_like(flat)
    grads = out.views(grad)
    onehot = table.onehot
    for epoch in range(epochs):
        rng = np.random.default_rng([seed, 1, epoch])
        order = rng.permutation(table.n)
        for start in range(0, table.n, batch_size):
            idx = order[start:start + batch_size]
            _cross_entropy_grads(out, table.features[idx], onehot[idx], grads)
            opt.step(flat, grad)
    return out
