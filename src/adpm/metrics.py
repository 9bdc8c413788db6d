"""Classification metrics and the empirical generalization-bound checker.

The bound under test weighs per-class terms by proportions p_j:

    L(f) <= sum_j p_j ( Lhat_j(f) + 2 L_ell R_{n_j} + c_loss sqrt(log(1/delta) / (2 n_j)) ),

where R_{n_j} is the class-restricted empirical Rademacher complexity,
L_ell the loss's Lipschitz constant and c_loss its bound. The checker
scores the 0/1 loss, for which L_ell = 1/2 and c_loss = 1, so its class
term is Lhat_j + R_{n_j} + sqrt(log(1/delta) / (2 n_j)).
The supremum over hypotheses is taken by exhaustive search over a
finite grid of sign classifiers, which makes every term exactly
computable at desk scale. Losses are exact error counts over class
sizes: each class's rows are gathered once and scored in fixed blocks of
rows, so no (H, n) score matrix is built. An experiment scores its
population once, not once per draw. Arguments are checked at the
boundary, before any scoring: draw counts are integers >= 1, delta is a
real number in (0, 1), p holds two numeric proportions, and samples
are 2-D finite features with the grid's width and one label in {0, 1} per
row.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, UsageError, as_integer


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: np.ndarray   # (k,)
    recall: np.ndarray      # (k,)
    f1: np.ndarray          # (k,)
    macro_f1: float
    confusion: np.ndarray   # (k, k), rows true, cols predicted

    def to_jsonable(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision.tolist(),
            "recall": self.recall.tolist(),
            "f1": self.f1.tolist(),
            "macro_f1": self.macro_f1,
            "confusion": self.confusion.tolist(),
        }


def confusion_matrix(y_true, y_pred, k: int) -> np.ndarray:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise UsageError(f"label arrays differ: {y_true.shape} vs {y_pred.shape}")
    for name, labels in (("y_true", y_true), ("y_pred", y_pred)):
        if labels.size and (labels.min() < 0 or labels.max() >= k):
            bad = labels[(labels < 0) | (labels >= k)][0]
            raise UsageError(f"{name}: labels must be integers from 0 to {k - 1}, got {bad}")
    cm = np.zeros((k, k), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def classification_metrics(y_true, y_pred, k: int) -> MetricsReport:
    """Accuracy, per-class precision/recall/F1 and macro-F1.

    Ratios with a zero denominator are reported as 0. A true or predicted
    label outside [0, k) raises UsageError naming the first one.
    """
    cm = confusion_matrix(y_true, y_pred, k)
    tp = np.diag(cm).astype(np.float64)
    pred_tot = cm.sum(axis=0).astype(np.float64)
    true_tot = cm.sum(axis=1).astype(np.float64)
    precision = np.divide(tp, pred_tot, out=np.zeros(k), where=pred_tot > 0)
    recall = np.divide(tp, true_tot, out=np.zeros(k), where=true_tot > 0)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros(k), where=pr > 0)
    total = cm.sum()
    accuracy = float(tp.sum() / total) if total else 0.0
    return MetricsReport(accuracy=accuracy, precision=precision, recall=recall,
                         f1=f1, macro_f1=float(f1.mean()), confusion=cm)


@dataclass(frozen=True)
class HypothesisGrid:
    """Finite set of sign classifiers f(x) = sign(x @ w + b), sign(0) = +1."""

    weights: np.ndarray  # (H, d)
    biases: np.ndarray   # (H,)

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def _scores(self, x) -> np.ndarray:
        """(H, n) matrix of x @ w + b; f(x) = +1 where it is >= 0."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        raw = self.weights @ x.T
        raw += self.biases[:, None]
        return raw

    def evaluate(self, x) -> np.ndarray:
        """(H, n) matrix of +-1 outputs."""
        return np.where(self._scores(x) >= 0.0, 1.0, -1.0)

    def with_negation(self) -> "HypothesisGrid":
        return HypothesisGrid(np.concatenate([self.weights, -self.weights]),
                              np.concatenate([self.biases, -self.biases]))

    @classmethod
    def linear(cls, d: int, n_directions: int, thresholds, seed: int) -> "HypothesisGrid":
        """Deterministic grid of unit directions crossed with thresholds."""
        thresholds = np.asarray(thresholds, dtype=np.float64)
        if n_directions < 1 or thresholds.size == 0:
            raise UsageError(f"a grid needs >= 1 direction and threshold, got "
                             f"{n_directions} directions and {thresholds.size} thresholds")
        rng = np.random.default_rng([seed, 4])
        dirs = rng.standard_normal((n_directions, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        weights = np.repeat(dirs, thresholds.size, axis=0)
        biases = -np.tile(thresholds, n_directions)
        return cls(weights, biases)


def _class_indices(labels, k: int, what: str = "sample") -> list[np.ndarray]:
    """Row indices of each class 0..k-1; every label must be one of them."""
    labels = np.asarray(labels)
    groups = [np.nonzero(labels == j)[0] for j in range(k)]
    if sum(g.size for g in groups) != labels.size:
        bad = labels[~np.isin(labels, np.arange(k))][0].item()
        raise UsageError(f"{what}: labels must be integers from 0 to {k - 1}, got {bad!r}")
    empty = [j for j, g in enumerate(groups) if g.size == 0]
    if empty:
        raise UsageError(f"{what}: classes {empty} have no samples")
    return groups


def empirical_rademacher(x, labels, p, grid: HypothesisGrid, draws: int, rng) -> float:
    """Monte Carlo estimate of the class-weighted Rademacher complexity.

    Each draw assigns uniform +-1 signs, takes the per-class supremum of
    (1/n_j) sum_{i in class j} sigma_i f(x_i) over the grid, and weighs
    the suprema by p_j. The signs are one (draws, n) float64 matrix, and
    each class takes one (H, n_j) @ (n_j, draws) product of exact sums.
    """
    draws = as_integer("draws", draws, 1)
    p = np.asarray(p, dtype=np.float64)
    groups = _class_indices(labels, p.size)
    outputs = grid.evaluate(x)  # (H, n)
    signs = rng.integers(0, 2, size=(draws, outputs.shape[1])) * 2.0 - 1.0
    values = np.zeros(draws)
    for j, g in enumerate(groups):
        values += p[j] * ((outputs[:, g] @ signs[:, g].T).max(axis=0) / g.size)
    return np.cumsum(values)[-1] / draws  # the running total over draws, in order


def class_rademacher(x_class, grid: HypothesisGrid, draws: int, rng) -> float:
    """Complexity of a single class's sample restriction."""
    n = np.atleast_2d(x_class).shape[0]
    return empirical_rademacher(x_class, np.zeros(n, dtype=np.int64),
                                np.array([1.0]), grid, draws, rng)


_BLOCK_ROWS = 8192  # rows per scoring product: a (H, 8192) block, never the (H, n) matrix


def _class_rows(x, y, grid: HypothesisGrid, what: str) -> list[np.ndarray]:
    """The rows of each class of the binary sample (x, y), in class order.

    Rejects, naming the bad value, features that are not a finite (n, d)
    float array with the grid's d, labels that do not match them row for
    row, and labels outside {0, 1}. Well-typed input is not copied before
    the per-class gather.
    """
    x = np.asarray(x, dtype=np.float64)
    d = grid.weights.shape[1]
    if x.ndim != 2 or x.shape[1] != d:
        raise ShapeError(f"{what}: features must be (n, {d}), got shape {x.shape}")
    y = np.asarray(y)
    if y.shape != (x.shape[0],):
        raise ShapeError(f"{what}: labels must have shape ({x.shape[0]},) to match the "
                         f"features, got {y.shape}")
    groups = _class_indices(y, 2, what)
    finite = np.isfinite(x)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise UsageError(f"{what}: features must be finite, got {x[~finite][0]} in row {row}")
    return [x[g] for g in groups]


def _class_losses(grid: HypothesisGrid, parts) -> np.ndarray:
    """(H, 2) per-class 0/1 losses of every hypothesis; parts[j] holds the
    rows of class j.

    Each entry is a class's exact error count over its size, the bits of
    the mean of the per-sample loss (1 - y u)/2 with y, u in {-1, +1}.
    As a function of the output u on [-1, 1] that loss is Lipschitz with
    constant 1/2 and bounded by 1. A class is scored in blocks of
    _BLOCK_ROWS rows; each score has the bits of the whole-sample product,
    and a class-0 row is an error where f = +1, a class-1 row where f = -1.
    """
    losses = np.empty((grid.size, len(parts)))
    for j, part in enumerate(parts):
        positive = np.zeros(grid.size, dtype=np.int64)
        for start in range(0, part.shape[0], _BLOCK_ROWS):
            positive += (grid._scores(part[start:start + _BLOCK_ROWS]) >= 0.0).sum(axis=1)
        errors = positive if j == 0 else part.shape[0] - positive
        losses[:, j] = errors / part.shape[0]
    return losses


@dataclass(frozen=True)
class BoundReport:
    """One training draw checked against the weighted bound."""

    rhs: np.ndarray          # (H,)
    lhs: np.ndarray          # (H,)
    margins: np.ndarray      # rhs - lhs
    r_per_class: np.ndarray  # (k,)
    violations: int
    holds: bool


def _population(pop_x, pop_y, grid: HypothesisGrid, delta: float, p):
    """Check what every draw shares; return the population's (H, 2)
    per-class losses and the class proportions.
    """
    if isinstance(delta, bool) or not isinstance(delta, numbers.Real) or not 0 < delta < 1:
        raise UsageError(f"delta must be a real number in (0, 1), got {delta!r}")
    if grid.size == 0:
        raise UsageError("the hypothesis grid is empty")
    p = np.full(2, 0.5) if p is None else np.asarray(p)
    # the kind check comes first: the value checks need a numeric array
    if p.dtype.kind not in "iuf" or p.shape != (2,) or not (
            np.isfinite(p).all() and (p >= 0.0).all() and abs(p.sum() - 1.0) <= 1e-9):
        raise UsageError("p must be 2 finite, non-negative proportions summing to 1, "
                         f"got {np.array2string(p, threshold=6)}")
    return _class_losses(grid, _class_rows(pop_x, pop_y, grid, "population")), p.astype(float)


def _check_draw(parts, lpop: np.ndarray, grid: HypothesisGrid, p, delta, draws: int,
                rng) -> BoundReport:
    """Check one training draw, given as the rows of each of its classes."""
    n_j = np.array([part.shape[0] for part in parts], dtype=np.float64)
    lhat = _class_losses(grid, parts)
    r = np.array([class_rademacher(part, grid, draws, rng) for part in parts])
    deviation = np.sqrt(np.log(1.0 / delta) / (2.0 * n_j))

    rhs = (p[None, :] * (lhat + r[None, :] + deviation[None, :])).sum(axis=1)
    lhs = (p[None, :] * lpop).sum(axis=1)
    margins = rhs - lhs
    violations = int((margins < 0.0).sum())
    return BoundReport(rhs=rhs, lhs=lhs, margins=margins, r_per_class=r,
                       violations=violations, holds=violations == 0)


def bound_check(train_x, train_y, pop_x, pop_y, grid: HypothesisGrid, *,
                delta: float = 0.05, p=None, draws: int = 200, rng=None) -> BoundReport:
    """Check every grid hypothesis on one training draw.

    Labels are binary {0, 1}, one per row of finite (n, d) features, and
    draws, the Monte Carlo sign draws per class, is an integer >= 1. The
    left side is the p-weighted per-class loss on the held-out population
    sample; the right side adds the class complexity and deviation terms
    to the training losses.
    """
    draws = as_integer("draws", draws, 1)
    lpop, p = _population(pop_x, pop_y, grid, delta, p)
    rng = np.random.default_rng(0) if rng is None else rng
    return _check_draw(_class_rows(train_x, train_y, grid, "training set"), lpop, grid, p,
                       delta, draws, rng)


def bound_experiment(draw_fn, n_draws: int, pop_x, pop_y, grid: HypothesisGrid, *,
                     delta: float = 0.05, p=None, mc_draws: int = 200, seed: int = 0) -> dict:
    """Repeat bound_check over independent training draws.

    draw_fn(i) must return the i-th training set as a (features, labels)
    pair. n_draws and mc_draws must be integers >= 1 and seed an integer
    >= 0. The population is scored once, before the first draw. The
    report carries the fraction of draws where any hypothesis violated
    the bound, per-hypothesis margin statistics and the mean complexity
    estimates.
    """
    n_draws, mc_draws = as_integer("n_draws", n_draws, 1), as_integer("mc_draws", mc_draws, 1)
    as_integer("seed", seed, 0)
    lpop, p = _population(pop_x, pop_y, grid, delta, p)
    margins = np.zeros((n_draws, grid.size))
    r_sum = None
    violating_draws = 0
    for i in range(n_draws):
        drawn = draw_fn(i)
        if not isinstance(drawn, (tuple, list)) or len(drawn) != 2:
            got = (f"a {type(drawn).__name__} of {len(drawn)}"
                   if isinstance(drawn, (tuple, list)) else repr(drawn))
            raise UsageError(f"draw {i}: draw_fn must return a (features, labels) pair, "
                             f"got {got}")
        report = _check_draw(_class_rows(*drawn, grid, f"draw {i}"), lpop, grid, p, delta,
                             mc_draws, np.random.default_rng([seed, 5, i]))
        margins[i] = report.margins
        r_sum = report.r_per_class if r_sum is None else r_sum + report.r_per_class
        violating_draws += 0 if report.holds else 1
    return {
        "draws": n_draws,
        "delta": delta,
        "violation_rate": violating_draws / n_draws,
        "violating_draws": violating_draws,
        "hypotheses": grid.size,
        "margin_mean": margins.mean(axis=0).tolist(),
        "margin_min": margins.min(axis=0).tolist(),
        "r_mean": (r_sum / n_draws).tolist(),
    }
