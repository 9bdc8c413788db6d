"""Global, local and fused class priors.

The prior network is a one-hidden-layer softmax classifier. Its global
branch scores the full feature vector; the local branch re-scores the
input masked to its most salient coordinates (salience of coordinate i
is |x_i| * sum_h |W1[i, h]|), a tabular stand-in for attention-cropped
regions. The fused prior is the componentwise mean of the two.

The network is trained once, by warmup_train's cross entropy, and then
frozen: fit computes the priors of every training row once and the
diffusion training loop takes them as constants, and inference reads
the same network. Every pass runs as plain numpy (mlp_forward,
prior_bundle); PriorGraph only copies prior_bundle's values onto a tape
as constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import optim
from .autodiff import Tape, as_matrix
from .data import DatasetTable
from .errors import ConfigError


@dataclass
class PriorNetParams(optim.BlockTable):
    """Weights of the prior classifier, laid out by shapes(), plus the
    local-mask size."""

    w1: np.ndarray  # (d, hidden)
    b1: np.ndarray  # (1, hidden)
    w2: np.ndarray  # (hidden, k)
    b2: np.ndarray  # (1, k)
    mask_size: int

    def __post_init__(self):
        super().__post_init__()
        d = self.w1.shape[0]
        if not (1 <= self.mask_size <= d):
            raise ConfigError(f"mask_size must lie in [1, {d}], got {self.mask_size}")

    @staticmethod
    def shapes(d: int, hidden: int, k: int) -> dict[str, tuple[int, int]]:
        """Block name -> shape, in blocks() order."""
        return {"w1": (d, hidden), "b1": (1, hidden), "w2": (hidden, k), "b2": (1, k)}

    def dims(self) -> tuple[int, int, int]:
        """(d, hidden, k), as the blocks give them."""
        return self.w1.shape[0], self.w1.shape[-1], self.w2.shape[-1]

    @classmethod
    def init(cls, d: int, hidden: int, k: int, mask_size: int, rng) -> "PriorNetParams":
        """Weights drawn from rng in shapes() order, biases zero (BlockTable.draw)."""
        return cls.draw((d, hidden, k), rng, mask_size=mask_size)


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
    """prior_bundle's three values of x.value as const leaves of tape.

    perfbench/workloads.py still reads y_f through this name; it goes
    once the benchmark calls prior_bundle itself.
    """

    def __init__(self, tape: Tape, params: PriorNetParams, x):
        bundle = prior_bundle(params, x.value)
        self.y_g, self.y_l, self.y_f = (tape.const(v) for v in
                                        (bundle.y_g, bundle.y_l, bundle.y_f))


def _cross_entropy_grads(params: PriorNetParams, x: np.ndarray, onehot: np.ndarray):
    """Loss and analytic gradients of the softmax cross entropy."""
    n = x.shape[0]
    hidden, logits = mlp_forward(params, x)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    loss = float(-(onehot * (shifted - np.log(e.sum(axis=1, keepdims=True)))).sum() / n)
    dlogits = (probs - onehot) / n
    gw2 = hidden.T @ dlogits
    gb2 = dlogits.sum(axis=0, keepdims=True)
    dhidden = (dlogits @ params.w2.T) * (1.0 - hidden ** 2)
    gw1 = x.T @ dhidden
    gb1 = dhidden.sum(axis=0, keepdims=True)
    return loss, {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2}


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
    # the blocks are views into one vector, so each step is one optimizer pass
    flat = optim.flatten(params.blocks().values())
    out = replace(params, **optim.unflatten(
        flat, {name: arr.shape for name, arr in params.blocks().items()}))
    onehot = table.onehot
    for epoch in range(epochs):
        rng = np.random.default_rng([seed, 1, epoch])
        order = rng.permutation(table.n)
        for start in range(0, table.n, batch_size):
            idx = order[start:start + batch_size]
            _, grads = _cross_entropy_grads(out, table.features[idx], onehot[idx])
            opt.step(flat, optim.flatten(grads.values()))
    return out
