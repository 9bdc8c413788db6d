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
sizes. An experiment scores its population once, not once per draw:
each class's rows are gathered once and projected, in fixed blocks of
rows, onto the grid's m distinct directions up to sign (the c09 grid has
48 hypotheses over 8 directions), and each hypothesis counts the
projections on its side of its threshold. As fl(s + b) >= 0 exactly
where s >= -b, and negating a weight row negates its product exactly,
the counts are those of the (H, block) scores whenever each projection
has the bits of its score; no (H, n) score matrix is built. Each
training draw's rows are scored once, and their +-1 outputs give both
its losses and its complexity. Arguments are checked at the boundary,
before any scoring: draw counts are integers >= 1, delta is a real
number in (0, 1), p holds two numeric proportions, the grid holds a
finite real (H, d) weight array and (H,) bias vector, and samples are
2-D finite features with the grid's width and one label in {0, 1} per
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
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise UsageError(f"label arrays differ: {y_true.shape} vs {y_pred.shape}")
    for name, labels in (("y_true", y_true), ("y_pred", y_pred)):
        _reject_labels_outside(labels, k, name)
    cm = np.zeros((k, k), dtype=np.int64)
    np.add.at(cm, (y_true.astype(np.int64), y_pred.astype(np.int64)), 1)
    return cm


def classification_metrics(y_true, y_pred, k: int) -> MetricsReport:
    """Accuracy, per-class precision/recall/F1 and macro-F1.

    Ratios with a zero denominator are reported as 0. A true or predicted
    label that is not an integer in [0, k), such as 0.7, -1 or k, raises
    UsageError naming the first one.
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


def _reject_labels_outside(labels: np.ndarray, k: int, what: str) -> None:
    """Raise UsageError naming the first label that is not one of 0..k-1."""
    ok = np.isin(labels, np.arange(k))
    if not ok.all():
        bad = labels[~ok][:1].tolist()[0]  # a plain Python value
        raise UsageError(f"{what}: labels must be integers from 0 to {k - 1}, got {bad!r}")


def _class_indices(labels, k: int, what: str = "sample") -> list[np.ndarray]:
    """Row indices of each class 0..k-1; every label must be one of them."""
    labels = np.asarray(labels)
    groups = [np.nonzero(labels == j)[0] for j in range(k)]
    if sum(g.size for g in groups) != labels.size:
        _reject_labels_outside(labels, k, what)
    empty = [j for j, g in enumerate(groups) if g.size == 0]
    if empty:
        raise UsageError(f"{what}: classes {empty} have no samples")
    return groups


def _complexity(classes, p) -> float:
    """sum_j p_j sup_f (1/n_j) sum_{i in class j} sigma_i f(x_i), averaged
    over the sign draws.

    classes[j] pairs class j's (H, n_j) +-1 grid outputs with its
    (draws, n_j) signs. Each class takes one (H, n_j) @ (n_j, draws)
    product of exact sums, and the draws are averaged through their
    running total, in order.
    """
    values = np.zeros(classes[0][1].shape[0])
    for weight, (outputs, signs) in zip(p, classes):
        values += weight * ((outputs @ signs.T).max(axis=0) / outputs.shape[1])
    return np.cumsum(values)[-1] / values.size


def _signs(rng, draws: int, n: int) -> np.ndarray:
    """(draws, n) uniform +-1 signs as float64."""
    return rng.integers(0, 2, size=(draws, n)) * 2.0 - 1.0


def empirical_rademacher(x, labels, p, grid: HypothesisGrid, draws: int, rng) -> float:
    """Monte Carlo estimate of the class-weighted Rademacher complexity.

    Each draw assigns uniform +-1 signs, takes the per-class supremum of
    (1/n_j) sum_{i in class j} sigma_i f(x_i) over the grid, and weighs
    the suprema by p_j. The signs are one (draws, n) float64 matrix.
    """
    draws = as_integer("draws", draws, 1)
    p = np.asarray(p, dtype=np.float64)
    groups = _class_indices(labels, p.size)
    outputs = grid.evaluate(x)  # (H, n)
    signs = _signs(rng, draws, outputs.shape[1])
    return _complexity([(outputs[:, g], signs[:, g]) for g in groups], p)


def class_rademacher(x_class, grid: HypothesisGrid, draws: int, rng) -> float:
    """Complexity of a single class's sample restriction."""
    n = np.atleast_2d(x_class).shape[0]
    return empirical_rademacher(x_class, np.zeros(n, dtype=np.int64),
                                np.array([1.0]), grid, draws, rng)


_BLOCK_ROWS = 8192  # rows per population product: (m, 8192), never (H, n) or (m, n)


def _class_rows(x, y, grid: HypothesisGrid, what: str) -> list[np.ndarray]:
    """The rows of each class of the binary sample (x, y), in class order.

    Rejects, naming the bad value, features that are not a finite (n, d)
    float array with the grid's d, labels that do not match them row for
    row, and labels outside {0, 1}. Well-typed input is not copied before
    the per-class gather, np.take along the rows: it selects the rows
    x[g] does, with a cheaper copy loop for rows as narrow as d = 2.
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
    return [np.take(x, g, axis=0) for g in groups]


def _error_rates(j: int, positive: np.ndarray, n: int) -> np.ndarray:
    """Class j's 0/1 loss of each hypothesis from its count of f = +1
    outputs over the class's n rows: a class-0 row is an error where
    f = +1, a class-1 row where f = -1.

    Each loss is an exact error count over n, the bits of the mean of the
    per-sample loss (1 - y u)/2 with y, u in {-1, +1}. As a function of
    the output u on [-1, 1] that loss is Lipschitz with constant 1/2 and
    bounded by 1.
    """
    return (positive if j == 0 else n - positive) / n


def _directions(weights: np.ndarray):
    """The distinct rows of weights up to sign, as (U, which, sign) with
    weights[h] == sign[h] * U[which[h]].

    A row's sign is that of its first nonzero entry, and +1 for a zero
    row. U has two rows or more when weights has: numpy hands a product
    with one row to gemv, whose sums may round otherwise than the gemm
    that scores a grid of several rows.
    """
    rows = np.arange(weights.shape[0])
    sign = np.where(weights[rows, np.argmax(weights != 0.0, axis=1)] < 0.0, -1.0, 1.0)
    unique, which = np.unique(weights * sign[:, None], axis=0, return_inverse=True)
    if unique.shape[0] == 1 < rows.size:
        unique = np.concatenate([unique, unique])
    return unique, which.reshape(-1), sign


def _class_losses(grid: HypothesisGrid, parts) -> np.ndarray:
    """(H, 2) per-class 0/1 losses of every hypothesis; parts[j] holds the
    rows of class j.

    Hypothesis h gives a row f = +1 where fl(s + b_h) >= 0, s being the
    row's product with h's weights. A sum of two doubles is zero only when
    they cancel exactly, and rounding keeps its sign, so that holds
    exactly where s >= -b_h. Round-to-nearest is symmetric, so negating a
    weight row negates its product exactly. Each block of _BLOCK_ROWS
    rows is therefore projected once onto the grid's m distinct
    directions up to sign, an (m, block) product, and h counts the
    projections p onto its direction with p >= -b_h if its sign is +1 and
    p <= b_h if it is -1. So the counts equal those of the (H, block)
    scores wherever a projection has the bits of the matching score. The
    BLAS does not promise that: OpenBLAS may round a block's last columns
    differently for a product of m rows than for one of H rows, and a row
    whose score lies within one rounding of a threshold may then count
    on the other side. Integer-valued samples and grids give exact
    products, and the seeded c09 and benchmark reports keep every bit.
    """
    directions, which, sign = _directions(grid.weights)
    biases = grid.biases.astype(np.float64)  # as the scores add them; -b of an int can wrap
    upper = sign < 0.0
    limits = np.where(upper, biases, -biases)
    losses = np.empty((grid.size, len(parts)))
    for j, part in enumerate(parts):
        positive = np.zeros(grid.size, dtype=np.int64)
        for start in range(0, part.shape[0], _BLOCK_ROWS):
            projections = directions @ part[start:start + _BLOCK_ROWS].T
            for h, (u, limit) in enumerate(zip(which, limits)):
                p = projections[u]
                positive[h] += np.count_nonzero(p <= limit if upper[h] else p >= limit)
        losses[:, j] = _error_rates(j, positive, part.shape[0])
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


def _check_grid(grid: HypothesisGrid) -> None:
    """Reject, naming the bad value, weights that are not a finite real
    (H, d) array with d >= 1 and biases that are not a finite real (H,)
    vector."""
    for name, value in (("weights", grid.weights), ("biases", grid.biases)):
        if not isinstance(value, np.ndarray) or value.dtype.kind not in "iuf":
            got = f"dtype {value.dtype}" if isinstance(value, np.ndarray) else type(value).__name__
            raise UsageError(f"grid {name} must be a NumPy array of real numbers, got {got}")
    weights, biases = grid.weights, grid.biases
    if weights.ndim != 2 or weights.shape[1] == 0:
        raise ShapeError(f"grid weights must be (H, d) with d >= 1, got shape {weights.shape}")
    if biases.shape != weights.shape[:1]:
        raise ShapeError(f"grid biases must have shape ({weights.shape[0]},) to match the "
                         f"weights, got {biases.shape}")
    for name, value in (("weights", weights), ("biases", biases)):
        finite = np.isfinite(value)
        if not finite.all():
            row = int(np.argmin(finite.reshape(len(value), -1).all(axis=1)))
            raise UsageError(f"grid {name} must be finite, got {value[~finite][0]} "
                             f"in row {row}")


def _population(pop_x, pop_y, grid: HypothesisGrid, delta: float, p):
    """Check what every draw shares; return the population's (H, 2)
    per-class losses and the class proportions.
    """
    if isinstance(delta, bool) or not isinstance(delta, numbers.Real) or not 0 < delta < 1:
        raise UsageError(f"delta must be a real number in (0, 1), got {delta!r}")
    _check_grid(grid)
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
    """Check one training draw, given as the rows of each of its classes.

    Each class's rows are scored once, by grid.evaluate: its +-1 outputs
    give the class's losses and, with signs drawn class by class, its
    complexity.
    """
    outputs = [grid.evaluate(part) for part in parts]
    n_j = np.array([o.shape[1] for o in outputs], dtype=np.float64)
    lhat = np.stack([_error_rates(j, np.count_nonzero(o > 0.0, axis=1), o.shape[1])
                     for j, o in enumerate(outputs)], axis=1)
    r = np.array([_complexity([(o, _signs(rng, draws, o.shape[1]))], (1.0,))
                  for o in outputs])
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
