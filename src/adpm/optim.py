"""Optimizers over one flat parameter vector, plus the learning-rate schedule.

A model's named blocks live as reshaped views into one float64 vector
(flatten, unflatten), and so do their gradients; Adam's moments are
vectors of the same length. Every update is elementwise, so one pass
over the vector gives each entry the bits a block-by-block update would.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError


def flatten(arrays) -> np.ndarray:
    """The arrays' entries back to back, row-major, as one new float64 vector."""
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


def unflatten(vec: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Name -> view of vec in that shape, the blocks back to back in shapes' order."""
    out, start = {}, 0
    for name, shape in shapes.items():
        stop = start + math.prod(shape)
        out[name] = vec[start:stop].reshape(shape)
        start = stop
    if start != vec.size:
        raise ConfigError(f"blocks hold {start} values, the vector {vec.size}")
    return out


class Adam:
    """Adam with bias correction over one float64 vector.

    A zero gradient applied to zero moments leaves parameters bitwise
    unchanged. The moments start as zeros at the first step.
    """

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float | None = None) -> None:
        """Update params in place from grads, an array of the same shape."""
        if lr is None:
            lr = self.lr
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        if self.m is None:
            self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * grads
        v *= self.beta2
        v += (1.0 - self.beta2) * grads * grads
        params -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def state_dict(self) -> dict:
        """Step count, plus copies of the moments "m" and "v" once they exist."""
        if self.m is None:
            return {"step_count": self.step_count}
        return {"step_count": self.step_count, "m": self.m.copy(), "v": self.v.copy()}

    def load_state_dict(self, state: dict) -> None:
        self.step_count = int(state["step_count"])
        self.m = self.v = None
        if state.get("m") is not None:
            self.m = np.array(state["m"], dtype=np.float64)
            self.v = np.array(state["v"], dtype=np.float64)


class Sgd:
    """Plain gradient descent with the same interface as Adam."""

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.step_count = 0

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float | None = None) -> None:
        if lr is None:
            lr = self.lr
        self.step_count += 1
        params -= lr * grads

    def state_dict(self) -> dict:
        return {"step_count": self.step_count}

    def load_state_dict(self, state: dict) -> None:
        self.step_count = int(state["step_count"])


def make_optimizer(kind: str, lr: float, *, beta1: float = 0.9, beta2: float = 0.999,
                   eps: float = 1e-8):
    if kind == "adam":
        return Adam(lr, beta1, beta2, eps)
    if kind == "sgd":
        return Sgd(lr)
    raise ConfigError(f"unknown optimizer {kind!r}")


def lr_at(step: int, total_steps: int, base_lr: float, warmup_frac: float = 0.1) -> float:
    """Linear warmup to base_lr, then half-cycle cosine decay to zero.

    lr(0) is the warmup start value base_lr / warmup_steps; the maximum,
    reached at the end of warmup, equals base_lr; lr(total_steps) = 0.
    """
    if total_steps < 1:
        raise ConfigError(f"total_steps must be >= 1, got {total_steps}")
    warmup = max(1, round(warmup_frac * total_steps))
    if step < warmup:
        return base_lr * (step + 1) / warmup
    span = max(1, total_steps - warmup)
    progress = min(1.0, (step - warmup) / span)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
