"""Classification metrics and the empirical generalization-bound checker.

The bound under test weighs per-class terms by proportions p_j:

    L(f) <= sum_j p_j ( Lhat_j(f) + 2 L_ell R_{n_j} + c_loss sqrt(log(1/delta) / (2 n_j)) ),

where R_{n_j} is the class-restricted empirical Rademacher complexity.
The supremum over hypotheses is taken by exhaustive search over a
finite grid of sign classifiers, which makes every term exactly
computable at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError


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
    cm = np.zeros((k, k), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def classification_metrics(y_true, y_pred, k: int) -> MetricsReport:
    """Accuracy, per-class precision/recall/F1 and macro-F1.

    Ratios with a zero denominator are reported as 0.
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

    def evaluate(self, x) -> np.ndarray:
        """(H, n) matrix of +-1 outputs."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        raw = self.weights @ x.T + self.biases[:, None]
        return np.where(raw >= 0.0, 1.0, -1.0)

    def with_negation(self) -> "HypothesisGrid":
        return HypothesisGrid(np.concatenate([self.weights, -self.weights]),
                              np.concatenate([self.biases, -self.biases]))

    @classmethod
    def linear(cls, d: int, n_directions: int, thresholds, seed: int) -> "HypothesisGrid":
        """Deterministic grid of unit directions crossed with thresholds."""
        rng = np.random.default_rng([seed, 4])
        dirs = rng.standard_normal((n_directions, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        thresholds = np.asarray(thresholds, dtype=np.float64)
        weights = np.repeat(dirs, thresholds.size, axis=0)
        biases = -np.tile(thresholds, n_directions)
        return cls(weights, biases)


def _class_indices(labels, k: int) -> list[np.ndarray]:
    labels = np.asarray(labels, dtype=np.int64)
    groups = [np.nonzero(labels == j)[0] for j in range(k)]
    empty = [j for j, g in enumerate(groups) if g.size == 0]
    if empty:
        raise UsageError(f"classes {empty} have no samples")
    return groups


def empirical_rademacher(x, labels, p, grid: HypothesisGrid, draws: int, rng) -> float:
    """Monte Carlo estimate of the class-weighted Rademacher complexity.

    Each draw assigns uniform +-1 signs, takes the per-class supremum of
    (1/n_j) sum_{i in class j} sigma_i f(x_i) over the grid, and weighs
    the suprema by p_j.
    """
    if draws < 1:
        raise UsageError(f"draws must be >= 1, got {draws}")
    p = np.asarray(p, dtype=np.float64)
    groups = _class_indices(labels, p.size)
    outputs = grid.evaluate(x)  # (H, n)
    per_class = [outputs[:, g] for g in groups]
    total = 0.0
    n = np.asarray(x).shape[0]
    for _ in range(draws):
        sigma = rng.integers(0, 2, size=n) * 2.0 - 1.0
        value = 0.0
        for j, g in enumerate(groups):
            sup = float((per_class[j] @ sigma[g]).max()) / g.size
            value += p[j] * sup
        total += value
    return total / draws


def class_rademacher(x_class, grid: HypothesisGrid, draws: int, rng) -> float:
    """Complexity of a single class's sample restriction."""
    n = np.atleast_2d(x_class).shape[0]
    return empirical_rademacher(x_class, np.zeros(n, dtype=np.int64),
                                np.array([1.0]), grid, draws, rng)


def sign_loss(outputs: np.ndarray, y_pm: np.ndarray) -> np.ndarray:
    """Per-sample 0/1 loss of +-1 outputs against +-1 labels.

    As a function of the output value on [-1, 1] this is (1 - y*u)/2:
    Lipschitz with constant 1/2 and bounded by 1.
    """
    return (1.0 - outputs * y_pm[None, :]) / 2.0


@dataclass(frozen=True)
class BoundReport:
    """One training draw checked against the weighted bound."""

    rhs: np.ndarray          # (H,)
    lhs: np.ndarray          # (H,)
    margins: np.ndarray      # rhs - lhs
    r_per_class: np.ndarray  # (k,)
    violations: int
    holds: bool


def bound_check(train_x, train_y, pop_x, pop_y, grid: HypothesisGrid, *,
                c_loss: float = 1.0, lip: float = 0.5, delta: float = 0.05,
                p=None, draws: int = 200, rng=None) -> BoundReport:
    """Check every grid hypothesis on one training draw.

    Labels are binary {0, 1}, mapped to -1/+1. The left side is the
    p-weighted per-class loss on the held-out population sample; the
    right side adds the class complexity and deviation terms to the
    training losses.
    """
    if not (0.0 < delta < 1.0):
        raise UsageError(f"delta must lie in (0, 1), got {delta}")
    rng = np.random.default_rng(0) if rng is None else rng
    train_y = np.asarray(train_y, dtype=np.int64)
    pop_y = np.asarray(pop_y, dtype=np.int64)
    k = int(max(train_y.max(), pop_y.max())) + 1
    if k != 2:
        raise UsageError(f"bound_check handles binary tasks, got k={k}")
    p = np.full(k, 1.0 / k) if p is None else np.asarray(p, dtype=np.float64)

    groups = _class_indices(train_y, k)
    n_j = np.array([g.size for g in groups], dtype=np.float64)
    train_pm = 2.0 * train_y - 1.0
    pop_pm = 2.0 * pop_y - 1.0

    train_losses = sign_loss(grid.evaluate(train_x), train_pm)  # (H, n)
    lhat = np.stack([train_losses[:, g].mean(axis=1) for g in groups], axis=1)  # (H, k)

    pop_losses = sign_loss(grid.evaluate(pop_x), pop_pm)
    pop_groups = _class_indices(pop_y, k)
    lpop = np.stack([pop_losses[:, g].mean(axis=1) for g in pop_groups], axis=1)

    train_x = np.atleast_2d(np.asarray(train_x, dtype=np.float64))
    r = np.array([class_rademacher(train_x[g], grid, draws, rng) for g in groups])
    deviation = c_loss * np.sqrt(np.log(1.0 / delta) / (2.0 * n_j))

    rhs = (p[None, :] * (lhat + 2.0 * lip * r[None, :] + deviation[None, :])).sum(axis=1)
    lhs = (p[None, :] * lpop).sum(axis=1)
    margins = rhs - lhs
    violations = int((margins < 0.0).sum())
    return BoundReport(rhs=rhs, lhs=lhs, margins=margins, r_per_class=r,
                       violations=violations, holds=violations == 0)


def bound_experiment(draw_fn, n_draws: int, pop_x, pop_y, grid: HypothesisGrid, *,
                     c_loss: float = 1.0, lip: float = 0.5, delta: float = 0.05,
                     p=None, mc_draws: int = 200, seed: int = 0) -> dict:
    """Repeat bound_check over independent training draws.

    draw_fn(i) must return the i-th training set (features, labels). The
    report carries the fraction of draws where any hypothesis violated
    the bound, per-hypothesis margin statistics and the mean complexity
    estimates.
    """
    if n_draws < 1:
        raise UsageError(f"n_draws must be >= 1, got {n_draws}")
    margins = np.zeros((n_draws, grid.size))
    r_sum = None
    violating_draws = 0
    for i in range(n_draws):
        train_x, train_y = draw_fn(i)
        report = bound_check(train_x, train_y, pop_x, pop_y, grid,
                             c_loss=c_loss, lip=lip, delta=delta, p=p,
                             draws=mc_draws, rng=np.random.default_rng([seed, 5, i]))
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
