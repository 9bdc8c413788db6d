"""Tape-based reverse-mode differentiation over dense float64 matrices.

The op vocabulary is fixed to what the denoising network and its losses
need: matmul (with an optional transposed right operand), affine (x @ w
plus a broadcast bias row), add, sub, mul, scale, tanh, exp, row
softmax, mean, sum of squares and column concat. Everything is strictly
2-D float64. Forward evaluation is deterministic for identical inputs;
reductions are delegated to numpy's sequential CPU kernels, which are
run-to-run reproducible.

The library builds a tape only where it takes a gradient: once per
training step, in trainer.batch_loss. Prior warmup, inference and
sampling run the same networks as plain numpy.

A Tape is single-owner: it must never be shared across concurrent
workers. Parallel evaluation is achieved by giving each worker its own
Tape over read-only parameter arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, UsageError


def as_matrix(x) -> np.ndarray:
    """Coerce to a C-contiguous 2-D float64 array, or raise ShapeError."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got shape {a.shape}")
    return a


@dataclass
class Node:
    op: str
    inputs: tuple[int, ...]
    value: np.ndarray
    meta: tuple = ()


class Var:
    """Handle to one node on a tape."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> np.ndarray:
        return self.tape.nodes[self.idx].value

    @property
    def shape(self) -> tuple[int, int]:
        return self.tape.nodes[self.idx].value.shape


class Gradients:
    """Adjoints produced by one backward pass, addressed by Var."""

    def __init__(self, adjoints: dict[int, np.ndarray]):
        self._adjoints = adjoints

    def __getitem__(self, var: Var) -> np.ndarray:
        g = self._adjoints.get(var.idx)
        if g is None:
            return np.zeros(var.shape)
        return g

    def __contains__(self, var: Var) -> bool:
        return var.idx in self._adjoints


def _forward(op: str, vals: list[np.ndarray], meta: tuple) -> np.ndarray:
    if op == "matmul":
        a, b = vals
        return a @ b.T if meta[0] else a @ b
    if op == "affine":
        x, w, b = vals
        return x @ w + b
    if op == "add":
        return vals[0] + vals[1]
    if op == "sub":
        return vals[0] - vals[1]
    if op == "mul":
        return vals[0] * vals[1]
    if op == "scale":
        return vals[0] * meta[0]
    if op == "tanh":
        return np.tanh(vals[0])
    if op == "exp":
        return np.exp(vals[0])
    if op == "softmax":
        a = vals[0]
        shifted = a - a.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    if op == "mean":
        return np.array([[vals[0].mean()]])
    if op == "sumsq":
        a = vals[0]
        return np.array([[float(np.sum(a * a))]])
    if op == "concat":
        return np.concatenate([vals[0], vals[1]], axis=1)
    raise UsageError(f"unknown op {op!r}")


class Tape:
    """Append-only record of operations with cached forward values."""

    def __init__(self):
        self.nodes: list[Node] = []

    def _push(self, op: str, inputs: tuple[int, ...], value: np.ndarray,
              meta: tuple = ()) -> Var:
        self.nodes.append(Node(op, inputs, value, meta))
        return Var(self, len(self.nodes) - 1)

    def _apply(self, op: str, operands: tuple[Var, ...], meta: tuple = ()) -> Var:
        vals = [self.nodes[v.idx].value for v in operands]
        value = _forward(op, vals, meta)
        return self._push(op, tuple(v.idx for v in operands), value, meta)

    # ----- leaves -----

    def param(self, x) -> Var:
        """Leaf holding trainable values; its adjoint is the gradient."""
        return self._push("param", (), as_matrix(x))

    def const(self, x) -> Var:
        """Leaf holding fixed data; adjoints are accumulated but unused."""
        return self._push("const", (), as_matrix(x))

    # ----- ops -----

    def matmul(self, a: Var, b: Var, trans_b: bool = False) -> Var:
        ar, ac = a.shape
        br, bc = b.shape
        inner = bc if trans_b else br
        if ac != inner:
            raise ShapeError(f"matmul: {a.shape} x {b.shape} (trans_b={trans_b})")
        return self._apply("matmul", (a, b), (trans_b,))

    def affine(self, x: Var, w: Var, b: Var) -> Var:
        """x @ w plus the (1, cols) bias row b added to every row."""
        if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
            raise ShapeError(f"affine: {x.shape} x {w.shape} + {b.shape}")
        return self._apply("affine", (x, w, b))

    def _binary(self, op: str, a: Var, b: Var) -> Var:
        if a.shape != b.shape:
            raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")
        return self._apply(op, (a, b))

    def add(self, a: Var, b: Var) -> Var:
        return self._binary("add", a, b)

    def sub(self, a: Var, b: Var) -> Var:
        return self._binary("sub", a, b)

    def mul(self, a: Var, b: Var) -> Var:
        return self._binary("mul", a, b)

    def scale(self, a: Var, s: float) -> Var:
        return self._apply("scale", (a,), (float(s),))

    def tanh(self, a: Var) -> Var:
        return self._apply("tanh", (a,))

    def exp(self, a: Var) -> Var:
        return self._apply("exp", (a,))

    def softmax_rows(self, a: Var) -> Var:
        """Row-wise softmax, computed with max subtraction for stability."""
        return self._apply("softmax", (a,))

    def mean(self, a: Var) -> Var:
        """Mean over all entries, as a 1x1 matrix."""
        return self._apply("mean", (a,))

    def sum_sq(self, a: Var) -> Var:
        """Sum of squared entries, as a 1x1 matrix."""
        return self._apply("sumsq", (a,))

    def concat_cols(self, a: Var, b: Var) -> Var:
        if a.shape[0] != b.shape[0]:
            raise ShapeError(f"concat: row counts {a.shape[0]} != {b.shape[0]}")
        return self._apply("concat", (a, b))

    # ----- evaluation -----

    def backward(self, root: Var) -> Gradients:
        """Accumulate d(root)/d(node) for every node reachable from root.

        root must be scalar valued (1x1). Nodes are visited exactly once,
        in strictly descending id order.
        """
        if root.tape is not self:
            raise UsageError("root belongs to a different tape")
        if root.shape != (1, 1):
            raise UsageError(f"backward root must be 1x1, got {root.shape}")

        adjoints: dict[int, np.ndarray] = {root.idx: np.ones((1, 1))}

        def acc(idx: int, g: np.ndarray) -> None:
            have = adjoints.get(idx)
            adjoints[idx] = g if have is None else have + g

        for idx in range(root.idx, -1, -1):
            g = adjoints.get(idx)
            if g is None:
                continue
            node = self.nodes[idx]
            op = node.op
            if op in ("param", "const"):
                continue
            ins = node.inputs
            vals = [self.nodes[i].value for i in ins]
            if op == "matmul":
                a, b = vals
                if node.meta[0]:
                    acc(ins[0], g @ b)
                    acc(ins[1], g.T @ a)
                else:
                    acc(ins[0], g @ b.T)
                    acc(ins[1], a.T @ g)
            elif op == "affine":
                # ones(n, 1).T @ g, taken before the x and w adjoints, is the
                # product and order of matmul(ones(n, 1), b) plus add, so
                # trained weights keep the bits of that formulation
                x, w, _ = vals
                acc(ins[2], np.ones((g.shape[0], 1)).T @ g)
                acc(ins[0], g @ w.T)
                acc(ins[1], x.T @ g)
            elif op == "add":
                acc(ins[0], g)
                acc(ins[1], g)
            elif op == "sub":
                acc(ins[0], g)
                acc(ins[1], -g)
            elif op == "mul":
                acc(ins[0], g * vals[1])
                acc(ins[1], g * vals[0])
            elif op == "scale":
                acc(ins[0], g * node.meta[0])
            elif op == "tanh":
                acc(ins[0], g * (1.0 - node.value ** 2))
            elif op == "exp":
                acc(ins[0], g * node.value)
            elif op == "softmax":
                y = node.value
                acc(ins[0], (g - (g * y).sum(axis=1, keepdims=True)) * y)
            elif op == "mean":
                acc(ins[0], np.full(vals[0].shape, g[0, 0] / vals[0].size))
            elif op == "sumsq":
                acc(ins[0], 2.0 * g[0, 0] * vals[0])
            elif op == "concat":
                split = vals[0].shape[1]
                acc(ins[0], g[:, :split])
                acc(ins[1], g[:, split:])
            else:  # pragma: no cover
                raise UsageError(f"unknown op {op!r}")
        return Gradients(adjoints)


def scalar(var: Var) -> float:
    """Extract the value of a 1x1 node as a Python float."""
    if var.shape != (1, 1):
        raise UsageError(f"expected a 1x1 node, got {var.shape}")
    return float(var.value[0, 0])
