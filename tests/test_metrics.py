import math

import numpy as np
import pytest

from adpm.errors import UsageError
from adpm.metrics import (HypothesisGrid, bound_check, bound_experiment,
                          class_rademacher, classification_metrics,
                          confusion_matrix, empirical_rademacher)


def test_perfect_predictions():
    y = np.array([0, 1, 2, 1, 0])
    rep = classification_metrics(y, y, 3)
    assert rep.accuracy == 1.0
    assert np.array_equal(rep.precision, np.ones(3))
    assert np.array_equal(rep.recall, np.ones(3))
    assert rep.macro_f1 == 1.0
    assert rep.confusion.sum() == 5


def test_single_class_predictor_on_balanced_pair():
    y_true = np.array([0, 0, 1, 1])
    y_pred = np.zeros(4, dtype=int)
    rep = classification_metrics(y_true, y_pred, 2)
    assert rep.accuracy == 0.5
    assert rep.recall[0] == 1.0 and rep.recall[1] == 0.0
    assert rep.precision[1] == 0.0 and rep.f1[1] == 0.0


def test_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(0)
    y_true = rng.integers(0, 3, 60)
    y_pred = rng.integers(0, 3, 60)
    rep = classification_metrics(y_true, y_pred, 3)
    for j in range(3):
        tp = int(np.sum((y_true == j) & (y_pred == j)))
        fp = int(np.sum((y_true != j) & (y_pred == j)))
        fn = int(np.sum((y_true == j) & (y_pred != j)))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        assert rep.precision[j] == pytest.approx(prec, abs=1e-15)
        assert rep.recall[j] == pytest.approx(rec, abs=1e-15)
        assert rep.f1[j] == pytest.approx(f1, abs=1e-15)
    assert rep.macro_f1 == pytest.approx(rep.f1.mean(), abs=1e-15)
    assert rep.confusion.sum() == 60
    assert np.all(np.array([rep.accuracy, rep.macro_f1]) <= 1.0)


def test_macro_f1_invariant_under_relabeling():
    rng = np.random.default_rng(1)
    y_true = rng.integers(0, 4, 80)
    y_pred = rng.integers(0, 4, 80)
    base = classification_metrics(y_true, y_pred, 4)
    perm = np.array([2, 3, 1, 0])
    twisted = classification_metrics(perm[y_true], perm[y_pred], 4)
    assert twisted.macro_f1 == pytest.approx(base.macro_f1, abs=1e-15)
    assert twisted.accuracy == pytest.approx(base.accuracy, abs=1e-15)
    inv = np.argsort(perm)
    assert np.array_equal(twisted.confusion[np.ix_(perm, perm)], base.confusion)


def test_metrics_length_mismatch():
    with pytest.raises(UsageError):
        confusion_matrix([0, 1], [0], 2)


def _mean_abs_sign_sum(n: int) -> float:
    # E|S_n| for S_n a sum of n independent signs:
    # n * C(n-1, floor((n-1)/2)) / 2^(n-1)
    return n * math.comb(n - 1, (n - 1) // 2) / 2.0 ** (n - 1)


def test_rademacher_constant_grid_matches_closed_form():
    rng_data = np.random.default_rng(2)
    n0, n1 = 18, 7
    x = rng_data.standard_normal((n0 + n1, 2))
    labels = np.array([0] * n0 + [1] * n1)
    p = np.array([0.4, 0.6])
    grid = HypothesisGrid(np.zeros((2, 2)), np.array([1.0, -1.0]))
    exact = p[0] * _mean_abs_sign_sum(n0) / n0 + p[1] * _mean_abs_sign_sum(n1) / n1
    draws = 6000
    est = empirical_rademacher(x, labels, p, grid, draws, np.random.default_rng(3))
    # per-draw std is below sum_j p_j / sqrt(n_j)
    se = (p[0] / math.sqrt(n0) + p[1] / math.sqrt(n1)) / math.sqrt(draws)
    assert abs(est - exact) < 5 * se


def test_rademacher_single_hypothesis_near_zero():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, 3))
    labels = np.zeros(40, dtype=int)
    grid = HypothesisGrid(np.array([[1.0, 0.0, 0.0]]), np.array([0.0]))
    est = empirical_rademacher(x, labels, np.array([1.0]), grid, 4000,
                               np.random.default_rng(5))
    # E[sigma] = 0; the estimate is a mean of 4000 draws of std 1/sqrt(40)
    assert abs(est) < 5 / math.sqrt(40 * 4000)


def test_rademacher_balanced_single_class_reduction():
    # with one class and unit weight the weighted form reduces to
    # (1/n) E[sup_f sum_i sigma_i f(x_i)], recomputed independently here
    rng = np.random.default_rng(6)
    n = 25
    x = rng.standard_normal((n, 2))
    grid = HypothesisGrid.linear(2, 8, [-0.5, 0.0, 0.5], seed=7).with_negation()
    draws = 300
    est = empirical_rademacher(x, np.zeros(n, dtype=int), np.array([1.0]), grid,
                               draws, np.random.default_rng(8))
    outputs = grid.evaluate(x)
    rng2 = np.random.default_rng(8)
    total = 0.0
    for _ in range(draws):
        sigma = rng2.integers(0, 2, size=n) * 2.0 - 1.0
        total += float((outputs @ sigma).max()) / n
    assert est == pytest.approx(total / draws, abs=1e-12)


def test_rademacher_nonnegative_for_negation_closed_grid():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((30, 2))
    labels = np.array([0] * 20 + [1] * 10)
    grid = HypothesisGrid.linear(2, 5, [0.0, 1.0], seed=10).with_negation()
    for seed in range(5):
        est = empirical_rademacher(x, labels, np.array([0.5, 0.5]), grid, 50,
                                   np.random.default_rng(seed))
        assert est >= 0.0  # sup over f and -f is |.|, so every draw is >= 0


def test_rademacher_rejects_empty_class():
    with pytest.raises(UsageError):
        empirical_rademacher(np.ones((3, 1)), np.zeros(3, dtype=int),
                             np.array([0.5, 0.5]),
                             HypothesisGrid(np.zeros((2, 1)), np.array([1.0, -1.0])), 10,
                             np.random.default_rng(0))


def _two_blob_draw(n0, n1, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((n0, 2)) + np.array([-2.0, 0.0])
    x1 = rng.standard_normal((n1, 2)) + np.array([2.0, 0.0])
    x = np.concatenate([x0, x1])
    y = np.array([0] * n0 + [1] * n1)
    return x, y


def test_bound_zero_loss_trivially_holds():
    x, y = _two_blob_draw(20, 10, seed=11)
    # sign(x0) and its negation classify the blobs; losses are tiny, with
    # c_loss = 0 the deviation term vanishes, and closure under negation
    # keeps the complexity estimate non-negative
    grid = HypothesisGrid(np.array([[1.0, 0.0]]), np.array([0.0])).with_negation()
    report = bound_check(x, y, x, y, grid, c_loss=0.0, lip=0.5, delta=0.05,
                         draws=100, rng=np.random.default_rng(12))
    assert report.holds
    assert (report.margins >= 0.0).all()


def test_bound_per_class_restriction_matches_public_estimator():
    x, y = _two_blob_draw(16, 8, seed=13)
    grid = HypothesisGrid.linear(2, 4, [0.0], seed=14)
    report = bound_check(x, y, x, y, grid, draws=60, rng=np.random.default_rng(15))
    rng = np.random.default_rng(15)  # same stream, consumed in class order
    r0 = class_rademacher(x[y == 0], grid, 60, rng)
    r1 = class_rademacher(x[y == 1], grid, 60, rng)
    assert report.r_per_class[0] == pytest.approx(r0, abs=1e-15)
    assert report.r_per_class[1] == pytest.approx(r1, abs=1e-15)


def test_bound_terms_monotone_in_class_sizes():
    # deviation terms shrink exactly; the constant-grid complexity
    # E|S_n|/n is evaluated in closed form for nested sizes
    delta = 0.05
    for n in (5, 10, 20, 40):
        dev_small = math.sqrt(math.log(1 / delta) / (2 * n))
        dev_large = math.sqrt(math.log(1 / delta) / (2 * (2 * n)))
        assert dev_large < dev_small
        assert _mean_abs_sign_sum(2 * n) / (2 * n) < _mean_abs_sign_sum(n) / n


def test_bound_experiment_violation_rate_small():
    pop_x, pop_y = _two_blob_draw(4000, 2000, seed=16)
    grid = HypothesisGrid.linear(2, 6, [-1.0, 0.0, 1.0], seed=17).with_negation()
    report = bound_experiment(lambda i: _two_blob_draw(30, 15, seed=100 + i), 20,
                              pop_x, pop_y, grid, delta=0.05, mc_draws=60, seed=18)
    assert report["draws"] == 20
    assert report["violation_rate"] <= 0.05
    assert len(report["margin_mean"]) == grid.size
