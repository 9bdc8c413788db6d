"""Tape-based reverse-mode differentiation over dense float64 matrices.

The op vocabulary is what the training objective is made of: matmul
(with an optional transposed right operand), affine (x @ w plus a
broadcast bias row), add, sub, mul, scale, tanh, sum of squares, column
concat, a row range, and rbf_mean, the mean RBF kernel value over all
row pairs of two batches as one node. Everything is strictly 2-D float64. Forward evaluation is
deterministic for identical inputs; reductions are delegated to numpy's
sequential CPU kernels, which are run-to-run reproducible.

Each op method computes its value and stores, on the new node, the rule
that maps the node's adjoint to one adjoint per input. A node also
records whether a param reaches it: a param does, a const does not, and
an op does when any of its inputs does. backward keeps adjoints only
for reached nodes, so a const, or a node computed from consts alone
(such as the K(eps, eps) kernel mean of an MMD), gets no adjoint and
runs no rule.

No library path builds a tape. Training takes the denoiser's gradient
from a hand-derived backward pass (trainer.batch_loss) that computes the
expressions, in the order, that backward computes over the same ops, so
the tests build the objective on a tape as the bitwise oracle of that
gradient. priors.PriorGraph, which the benchmark still reads, only puts
constants on a caller's tape.

A Tape is single-owner: it must never be shared across concurrent
workers. Parallel evaluation is achieved by giving each worker its own
Tape over read-only parameter arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, UsageError


def as_matrix(x) -> np.ndarray:
    """Coerce to a C-contiguous 2-D float64 array, or raise ShapeError."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got shape {a.shape}")
    return a


class Var:
    """One node of a tape: its value, the ids of its inputs, its backward
    rule (None for a leaf) and whether a param reaches it."""

    __slots__ = ("idx", "value", "inputs", "rule", "reached")

    def __init__(self, idx: int, value: np.ndarray, inputs: tuple[int, ...],
                 rule, reached: bool):
        self.idx = idx
        self.value = value
        self.inputs = inputs
        self.rule = rule
        self.reached = reached

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape


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


def _same_shape(a: Var, b: Var) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"elementwise operands have shapes {a.shape} and {b.shape}")


class Tape:
    """Append-only record of operations with cached forward values."""

    def __init__(self):
        self.nodes: list[Var] = []

    def _push(self, value: np.ndarray, operands: tuple[Var, ...] = (), rule=None,
              reached: bool = False) -> Var:
        var = Var(len(self.nodes), value, tuple(v.idx for v in operands), rule,
                  reached or any(v.reached for v in operands))
        self.nodes.append(var)
        return var

    # ----- leaves -----

    def param(self, x) -> Var:
        """Leaf holding trainable values; its adjoint is the gradient."""
        return self._push(as_matrix(x), reached=True)

    def const(self, x) -> Var:
        """Leaf holding fixed data; it gets no adjoint."""
        return self._push(as_matrix(x))

    # ----- ops -----

    def matmul(self, a: Var, b: Var, trans_b: bool = False) -> Var:
        inner = b.shape[1] if trans_b else b.shape[0]
        if a.shape[1] != inner:
            raise ShapeError(f"matmul: {a.shape} x {b.shape} (trans_b={trans_b})")
        av, bv = a.value, b.value
        if trans_b:
            return self._push(av @ bv.T, (a, b), lambda g: (g @ bv, g.T @ av))
        return self._push(av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g))

    def affine(self, x: Var, w: Var, b: Var) -> Var:
        """x @ w plus the (1, cols) bias row b added to every row.

        The bias adjoint ones(n, 1).T @ g is the product that
        matmul(ones(n, 1), b) plus add would take, so trained weights keep
        the bits of that formulation.
        """
        if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
            raise ShapeError(f"affine: {x.shape} x {w.shape} + {b.shape}")
        xv, wv = x.value, w.value
        return self._push(xv @ wv + b.value, (x, w, b), lambda g: (
            g @ wv.T, xv.T @ g, np.ones((g.shape[0], 1)).T @ g))

    def add(self, a: Var, b: Var) -> Var:
        _same_shape(a, b)
        return self._push(a.value + b.value, (a, b), lambda g: (g, g))

    def sub(self, a: Var, b: Var) -> Var:
        _same_shape(a, b)
        return self._push(a.value - b.value, (a, b), lambda g: (g, -g))

    def mul(self, a: Var, b: Var) -> Var:
        _same_shape(a, b)
        av, bv = a.value, b.value
        return self._push(av * bv, (a, b), lambda g: (g * bv, g * av))

    def scale(self, a: Var, s: float) -> Var:
        s = float(s)
        return self._push(a.value * s, (a,), lambda g: (g * s,))

    def tanh(self, a: Var) -> Var:
        y = np.tanh(a.value)
        return self._push(y, (a,), lambda g: (g * (1.0 - y ** 2),))

    def sum_sq(self, a: Var) -> Var:
        """Sum of squared entries, as a 1x1 matrix."""
        av = a.value
        return self._push(np.array([[float(np.sum(av * av))]]), (a,),
                          lambda g: (2.0 * g[0, 0] * av,))

    def concat_cols(self, a: Var, b: Var) -> Var:
        if a.shape[0] != b.shape[0]:
            raise ShapeError(f"concat: row counts {a.shape[0]} != {b.shape[0]}")
        split = a.shape[1]
        return self._push(np.concatenate([a.value, b.value], axis=1), (a, b),
                          lambda g: (g[:, :split], g[:, split:]))

    def rows(self, a: Var, start: int, stop: int) -> Var:
        """Rows start..stop-1 of a; the other rows get a zero adjoint."""
        n = a.shape[0]
        if not 0 <= start < stop <= n:
            raise ShapeError(f"rows: range [{start}, {stop}) of {n} rows")

        def rule(g):
            out = np.zeros(a.shape)
            out[start:stop] = g
            return (out,)
        return self._push(a.value[start:stop], (a,), rule)

    def rbf_mean(self, a: Var, b: Var, sigma: float) -> Var:
        """Mean of exp(-|a_i - b_j|^2 / (2 sigma^2)) over all row pairs, as 1x1.

        The squared distances are |a_i|^2 + |b_j|^2 - 2 a_i.b_j. With
        D = K g s / K.size, s = -1/(2 sigma^2), the adjoints are
        2 (rowsum(D) a - D b) and 2 (colsum(D) b - D^T a). a and b may be
        the same node; backward then adds both adjoints.
        """
        if a.shape[1] != b.shape[1]:
            raise ShapeError(f"rbf_mean: column counts differ: {a.shape} vs {b.shape}")
        av, bv = a.value, b.value
        s = -1.0 / (2.0 * sigma * sigma)
        sq = ((av * av).sum(axis=1)[:, None] + (bv * bv).sum(axis=1)[None, :]
              - (av @ bv.T) * 2.0)
        kernel = np.exp(sq * s)

        def rule(g):
            d = kernel * (g[0, 0] * s / kernel.size)
            return (2.0 * (d.sum(axis=1)[:, None] * av - d @ bv),
                    2.0 * (d.sum(axis=0)[:, None] * bv - d.T @ av))
        return self._push(np.array([[kernel.mean()]]), (a, b), rule)

    # ----- evaluation -----

    def backward(self, root: Var) -> Gradients:
        """d(root)/d(node) for every node that a param reaches and root reads.

        root must be a scalar valued (1x1) node of this tape. Nodes are
        visited once, in strictly descending id order; each rule's outputs
        are added to the reached inputs in input order.
        """
        nodes = self.nodes
        if root.idx >= len(nodes) or nodes[root.idx] is not root:
            raise UsageError("root belongs to a different tape")
        if root.shape != (1, 1):
            raise UsageError(f"backward root must be 1x1, got {root.shape}")

        adjoints = {root.idx: np.ones((1, 1))} if root.reached else {}
        for idx in range(root.idx, -1, -1):
            g = adjoints.get(idx)
            node = nodes[idx]
            if g is None or node.rule is None:
                continue
            for i, gi in zip(node.inputs, node.rule(g)):
                if nodes[i].reached:
                    have = adjoints.get(i)
                    adjoints[i] = gi if have is None else have + gi
        return Gradients(adjoints)


def scalar(var: Var) -> float:
    """Extract the value of a 1x1 node as a Python float."""
    if var.shape != (1, 1):
        raise UsageError(f"expected a 1x1 node, got {var.shape}")
    return float(var.value[0, 0])
