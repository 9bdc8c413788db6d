"""Optimizers over named parameter blocks, plus the learning-rate schedule."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError


class Adam:
    """Adam with bias correction over a dict of float64 arrays.

    A zero gradient applied to zero moments leaves parameters bitwise
    unchanged.
    """

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr: float | None = None) -> None:
        if lr is None:
            lr = self.lr
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        for name, p in params.items():
            g = grads[name]
            m = self.m.get(name)
            if m is None:
                m = self.m[name] = np.zeros_like(p)
            v = self.v.get(name)
            if v is None:
                v = self.v[name] = np.zeros_like(p)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def state_dict(self) -> dict:
        return {
            "step_count": self.step_count,
            "m": {k: v.copy() for k, v in self.m.items()},
            "v": {k: v.copy() for k, v in self.v.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        self.step_count = int(state["step_count"])
        self.m = {k: np.array(v, dtype=np.float64) for k, v in state["m"].items()}
        self.v = {k: np.array(v, dtype=np.float64) for k, v in state["v"].items()}


class Sgd:
    """Plain gradient descent with the same interface as Adam."""

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.step_count = 0

    def step(self, params, grads, lr: float | None = None) -> None:
        if lr is None:
            lr = self.lr
        self.step_count += 1
        for name, p in params.items():
            p -= lr * grads[name]

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
