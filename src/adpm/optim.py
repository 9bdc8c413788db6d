"""Adam over one flat parameter vector, plus the learning-rate schedule.

Adam's betas and eps are Kingma & Ba (2015)'s defaults, and the schedule
warms up over a fixed share of the steps; all four are constants.

Each network states its named blocks once, as a shape table (BlockTable).
The table also lays out the flat vector: during training the blocks
live as reshaped views into one float64 vector (BlockTable.flat), and so
do their gradients (BlockTable.views); Adam's moments are vectors of the
same length. Every update is elementwise, so one pass over the vector
gives each entry the bits a block-by-block update would.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConfigError, ShapeError, check_at_least

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator offset
WARMUP_FRAC = 0.1  # share of the steps lr_at warms up over


class BlockTable:
    """Base of a dataclass network whose blocks its shape table lays out.

    A subclass defines shapes(*dims), block name -> shape, and dims(),
    the dimensions its blocks imply. The table is the one statement of
    the blocks: draw, blocks(), copy(), the flat vector of flat() and
    views(), and the shape check on construction all follow it, in its
    order. A block whose name holds a "w" is a weight; the others are
    biases.
    """

    def __post_init__(self):
        """Raise ShapeError naming the first block, in table order, whose
        shape is not the table's for the dimensions dims() reads."""
        for name, shape in self.shapes(*self.dims()).items():
            got = np.shape(getattr(self, name))
            if got != shape:
                raise ShapeError(f"{type(self).__name__} block {name!r} has shape {got}, "
                                 f"expected {shape}")

    def blocks(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.shapes(*self.dims())}

    def copy(self):
        return dataclasses.replace(self, **{n: a.copy() for n, a in self.blocks().items()})

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """vec as views named and shaped like the blocks, back to back in
        table order; a vec of another length raises ConfigError."""
        return unflatten(vec, self.shapes(*self.dims()))

    def flat(self):
        """A copy of the network whose blocks are views into one new
        float64 vector, and that vector."""
        vec = flatten(self.blocks().values())
        return dataclasses.replace(self, **self.views(vec)), vec

    @classmethod
    def draw(cls, dims: tuple[int, ...], rng):
        """A network of these dims: each weight drawn from rng as
        standard_normal(shape) / sqrt(rows), in table order, and each bias
        zeros."""
        return cls(**{name: rng.standard_normal(s) / np.sqrt(s[0]) if "w" in name
                      else np.zeros(s) for name, s in cls.shapes(*dims).items()})


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
    unchanged. The moments start as zeros at the first step. The update's
    intermediate vectors are written into two work vectors the
    optimizer keeps, one op at a time in the order of the formula.
    """

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.step_count = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._work: tuple[np.ndarray, np.ndarray] | None = None

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float | None = None) -> None:
        """Update params in place from grads, an array of the same shape."""
        if lr is None:
            lr = self.lr
        self.step_count += 1
        c1 = 1.0 - BETA1 ** self.step_count
        c2 = 1.0 - BETA2 ** self.step_count
        if self.m is None:
            self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        if self._work is None or self._work[0].shape != params.shape:
            self._work = (np.empty_like(params), np.empty_like(params))
        m, v = self.m, self.v
        a, b = self._work
        # m = BETA1 m + (1 - BETA1) g and v = BETA2 v + ((1 - BETA2) g) g
        m *= BETA1
        m += np.multiply(grads, 1.0 - BETA1, out=a)
        v *= BETA2
        np.multiply(grads, 1.0 - BETA2, out=a)
        v += np.multiply(a, grads, out=a)
        # params -= lr (m / c1) / (sqrt(v / c2) + EPS)
        np.multiply(np.divide(m, c1, out=a), lr, out=a)
        np.add(np.sqrt(np.divide(v, c2, out=b), out=b), EPS, out=b)
        params -= np.divide(a, b, out=a)

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


def lr_at(step: int, total_steps: int, base_lr: float) -> float:
    """Linear warmup to base_lr over WARMUP_FRAC of the steps, then
    half-cycle cosine decay to zero.

    lr(0) is the warmup start value base_lr / warmup_steps; the maximum,
    reached at the end of warmup, equals base_lr; lr(total_steps) = 0.
    """
    check_at_least("total_steps", total_steps, 1, ConfigError)
    warmup = max(1, round(WARMUP_FRAC * total_steps))
    if step < warmup:
        return base_lr * (step + 1) / warmup
    span = max(1, total_steps - warmup)
    progress = min(1.0, (step - warmup) / span)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
