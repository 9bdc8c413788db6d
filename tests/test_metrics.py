import json
import math
import re

import numpy as np
import pytest

from adpm import metrics
from adpm.errors import ShapeError, UsageError
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


def test_rademacher_rejects_a_label_outside_its_classes():
    with pytest.raises(UsageError, match=r"labels must be integers from 0 to 1, got 2$"):
        empirical_rademacher(np.ones((3, 1)), np.array([0, 1, 2]), np.array([0.5, 0.5]),
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


def _per_draw_rademacher(x, labels, p, grid, draws, rng):
    # one matvec per class per draw, the form the batched estimator replaces
    groups = [np.nonzero(np.asarray(labels) == j)[0] for j in range(len(p))]
    outputs = grid.evaluate(x)
    total = 0.0
    for _ in range(draws):
        sigma = rng.integers(0, 2, size=outputs.shape[1]) * 2.0 - 1.0
        value = 0.0
        for j, g in enumerate(groups):
            value += p[j] * (float((outputs[:, g] @ sigma[g]).max()) / g.size)
        total += value
    return total / draws


def test_batched_rademacher_matches_per_draw_loop_bitwise():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((41, 3))
    labels = np.array([0] * 29 + [1] * 12)
    p = np.array([0.3, 0.7])
    grid = HypothesisGrid.linear(3, 7, [-0.5, 0.0, 0.8], seed=20).with_negation()
    for draws in (1, 2, 57):
        est = empirical_rademacher(x, labels, p, grid, draws, np.random.default_rng(21))
        ref = _per_draw_rademacher(x, labels, p, grid, draws, np.random.default_rng(21))
        assert est == ref


def _per_draw_bound_experiment(draw_fn, n_draws, pop_x, pop_y, grid, p, mc_draws, seed,
                               c_loss=1.0, lip=0.5, delta=0.05):
    # every draw scores the population again and takes float means of the
    # per-sample losses (1 - y u)/2, the arithmetic the counts replace
    def class_means(x, y):
        losses = (1.0 - grid.evaluate(x) * (2.0 * y - 1.0)[None, :]) / 2.0
        return np.stack([losses[:, y == j].mean(axis=1) for j in (0, 1)], axis=1)

    margins = np.zeros((n_draws, grid.size))
    r_sum = None
    violating = 0
    for i in range(n_draws):
        x, y = draw_fn(i)
        rng = np.random.default_rng([seed, 5, i])
        r = np.array([_per_draw_rademacher(x[y == j], np.zeros((y == j).sum(), dtype=int),
                                           np.array([1.0]), grid, mc_draws, rng)
                      for j in (0, 1)])
        n_j = np.array([(y == 0).sum(), (y == 1).sum()], dtype=np.float64)
        deviation = c_loss * np.sqrt(np.log(1.0 / delta) / (2.0 * n_j))
        rhs = (p[None, :] * (class_means(x, y) + 2.0 * lip * r[None, :]
                             + deviation[None, :])).sum(axis=1)
        margins[i] = rhs - (p[None, :] * class_means(pop_x, pop_y)).sum(axis=1)
        r_sum = r if i == 0 else r_sum + r
        violating += int((margins[i] < 0.0).any())
    return {"draws": n_draws, "delta": delta, "violation_rate": violating / n_draws,
            "violating_draws": violating, "hypotheses": grid.size,
            "margin_mean": margins.mean(axis=0).tolist(),
            "margin_min": margins.min(axis=0).tolist(),
            "r_mean": (r_sum / n_draws).tolist()}


def test_bound_experiment_matches_per_draw_oracle_bitwise():
    pop_x, pop_y = _two_blob_draw(900, 300, seed=22)
    grid = HypothesisGrid.linear(2, 5, [-1.0, 0.0, 1.0], seed=23).with_negation()
    p = np.array([0.35, 0.65])

    def draw(i):
        return _two_blob_draw(17, 6, seed=200 + i)

    got = bound_experiment(draw, 6, pop_x, pop_y, grid, p=p, mc_draws=45, seed=24)
    want = _per_draw_bound_experiment(draw, 6, pop_x, pop_y, grid, p, 45, 24)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_bound_experiment_scores_population_once():
    rows = []

    class CountingWeights(np.ndarray):
        # records how many rows each product with the grid's weights scores
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and inputs[0] is self:
                rows.append(inputs[1].shape[-1])
            return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)

    base = HypothesisGrid.linear(2, 4, [-1.0, 0.0, 1.0], seed=25).with_negation()
    grid = HypothesisGrid(base.weights.view(CountingWeights), base.biases)
    pop_x, pop_y = _two_blob_draw(400, 101, seed=26)
    bound_experiment(lambda i: _two_blob_draw(20, 9, seed=300 + i), 5, pop_x, pop_y, grid,
                     mc_draws=10, seed=27)
    # the population's 501 rows once, class by class, before any draw; then
    # each draw's 29 rows twice, class by class: its losses, then its complexities
    assert rows == [400, 101] + [20, 9, 20, 9] * 5
    assert sum(rows) == 501 + 5 * 2 * 29


def test_blocked_class_losses_match_the_dense_form_bitwise():
    # more than two blocks in each class, odd class sizes, rows interleaved,
    # and rows scoring exactly 0.0 (sign(0) = +1) in both classes
    block = metrics._BLOCK_ROWS
    n0, n1 = 2 * block + 7, 2 * block + 1
    rng = np.random.default_rng(33)
    y = rng.permutation(np.array([0] * n0 + [1] * n1))
    x = rng.standard_normal((n0 + n1, 2)) + np.where(y == 1, 0.5, -0.5)[:, None]
    x[rng.choice(n0 + n1, 400, replace=False), 0] = 0.0
    x[rng.choice(n0 + n1, 400, replace=False), 0] = 1.0
    base = HypothesisGrid.linear(2, 6, [-1.0, 0.0, 0.7], seed=34).with_negation()
    grid = HypothesisGrid(np.concatenate([[[1.0, 0.0], [1.0, 0.0]], base.weights]),
                          np.concatenate([[0.0, -1.0], base.biases]))
    scores = grid._scores(x)
    assert (scores[:2, y == 0] == 0.0).any(axis=1).all()
    assert (scores[:2, y == 1] == 0.0).any(axis=1).all()
    wrong = (scores >= 0.0) != (y == 1)
    want = np.stack([wrong[:, y == j].mean(axis=1) for j in (0, 1)], axis=1)
    got = metrics._class_losses(grid, [x[y == 0], x[y == 1]])
    assert got.tobytes() == want.tobytes()


def _same(a):
    return a


def _nan_at_row_3(x):
    x = x.copy()
    x[3, 1] = np.nan
    return x


def _label_2_set_to(value):
    def relabel(y):
        y = y.astype(type(value))
        y[2] = value
        return y
    return relabel


BAD_SAMPLES = {
    # name: (features edit, labels edit, error, message)
    "features-1d": (lambda x: x[:, 0], _same, ShapeError,
                    "features must be (n, 2), got shape (15,)"),
    "features-3-columns": (lambda x: np.hstack([x, x[:, :1]]), _same, ShapeError,
                           "features must be (n, 2), got shape (15, 3)"),
    "labels-short": (_same, lambda y: y[:-1], ShapeError,
                     "labels must have shape (15,) to match the features, got (14,)"),
    "labels-minus-one": (_same, _label_2_set_to(-1), UsageError,
                         "labels must be integers from 0 to 1, got -1"),
    "labels-two": (_same, _label_2_set_to(2), UsageError,
                   "labels must be integers from 0 to 1, got 2"),
    "labels-half": (_same, _label_2_set_to(0.5), UsageError,
                    "labels must be integers from 0 to 1, got 0.5"),
    "labels-one-and-a-half": (_same, _label_2_set_to(1.5), UsageError,
                              "labels must be integers from 0 to 1, got 1.5"),
    "features-nan": (_nan_at_row_3, _same, UsageError,
                     "features must be finite, got nan in row 3"),
}


BOUND_ENTRY_POINTS = {
    # name: (the bad sample's name in the message, call with good (x, y) and bad (bx, by))
    "check-population": ("population",
                         lambda x, y, bx, by, g: bound_check(x, y, bx, by, g, draws=5)),
    "check-training": ("training set",
                       lambda x, y, bx, by, g: bound_check(bx, by, x, y, g, draws=5)),
    "experiment-population": ("population", lambda x, y, bx, by, g: bound_experiment(
        lambda i: (x, y), 2, bx, by, g, mc_draws=5)),
    "experiment-draw": ("draw 1", lambda x, y, bx, by, g: bound_experiment(
        lambda i: (bx, by) if i == 1 else (x, y), 2, x, y, g, mc_draws=5)),
}


@pytest.mark.parametrize("where", list(BOUND_ENTRY_POINTS))
@pytest.mark.parametrize("bad", list(BAD_SAMPLES))
def test_bound_rejects_a_bad_sample_naming_the_value(bad, where):
    x, y = _two_blob_draw(10, 5, seed=35)
    edit_x, edit_y, error, message = BAD_SAMPLES[bad]
    name, call = BOUND_ENTRY_POINTS[where]
    grid = HypothesisGrid.linear(2, 2, [0.0], seed=36)
    with pytest.raises(error, match="^" + re.escape(f"{name}: {message}")):
        call(x, y, edit_x(x), edit_y(y), grid)


BAD_ARGUMENTS = {
    # name: (call with a good sample (x, y) and grid g, message)
    "n-draws-float": (lambda x, y, g: bound_experiment(lambda i: (x, y), 2.5, x, y, g,
                                                       mc_draws=5),
                      "n_draws must be an integer, got 2.5"),
    "n-draws-bool": (lambda x, y, g: bound_experiment(lambda i: (x, y), True, x, y, g,
                                                      mc_draws=5),
                     "n_draws must be an integer, got True"),
    "mc-draws-float": (lambda x, y, g: bound_experiment(lambda i: (x, y), 2, x, y, g,
                                                        mc_draws=2.5),
                       "mc_draws must be an integer, got 2.5"),
    "mc-draws-bool": (lambda x, y, g: bound_experiment(lambda i: (x, y), 2, x, y, g,
                                                       mc_draws=True),
                      "mc_draws must be an integer, got True"),
    "mc-draws-zero": (lambda x, y, g: bound_experiment(lambda i: (x, y), 2, x, y, g,
                                                       mc_draws=0),
                      "mc_draws must be >= 1, got 0"),
    "seed-float": (lambda x, y, g: bound_experiment(lambda i: (x, y), 2, x, y, g, mc_draws=5,
                                                    seed=1.5),
                   "seed must be an integer, got 1.5"),
    "seed-negative": (lambda x, y, g: bound_experiment(lambda i: (x, y), 2, x, y, g,
                                                       mc_draws=5, seed=-1),
                      "seed must be >= 0, got -1"),
    "check-draws-float": (lambda x, y, g: bound_check(x, y, x, y, g, draws=2.5),
                          "draws must be an integer, got 2.5"),
    "check-draws-zero": (lambda x, y, g: bound_check(x, y, x, y, g, draws=0),
                         "draws must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", list(BAD_ARGUMENTS))
def test_bound_rejects_a_bad_count_before_any_scoring(monkeypatch, case):
    x, y = _two_blob_draw(10, 5, seed=37)
    grid = HypothesisGrid.linear(2, 2, [0.0], seed=38)
    call, message = BAD_ARGUMENTS[case]

    def no_scoring(*args):
        raise AssertionError("a sample was scored")

    monkeypatch.setattr(metrics, "_class_losses", no_scoring)
    with pytest.raises(UsageError, match="^" + re.escape(message) + "$"):
        call(x, y, grid)


@pytest.mark.parametrize("result, got", [(None, "None"), ("triple", "a tuple of 3"),
                                         ("single", "a list of 1")],
                         ids=["none", "triple", "single"])
def test_bound_rejects_a_draw_that_is_not_a_pair(result, got):
    x, y = _two_blob_draw(10, 5, seed=39)
    grid = HypothesisGrid.linear(2, 2, [0.0], seed=40)
    drawn = {None: None, "triple": (x, y, y), "single": [x]}[result]
    with pytest.raises(UsageError, match="^" + re.escape(
            f"draw 1: draw_fn must return a (features, labels) pair, got {got}") + "$"):
        bound_experiment(lambda i: drawn if i == 1 else (x, y), 2, x, y, grid, mc_draws=5)


@pytest.mark.parametrize("directions, thresholds", [(0, [0.0]), (-1, [0.0]), (3, [])])
def test_grid_rejects_no_directions_or_thresholds(directions, thresholds):
    with pytest.raises(UsageError):
        HypothesisGrid.linear(2, directions, thresholds, seed=0)


@pytest.mark.parametrize("p", [[0.5, float("nan")], [0.2, 0.3, 0.5], [1.5, -0.5],
                               [0.5, 0.4], [float("inf"), 0.0], [1.0]],
                         ids=["nan", "length-3", "negative", "sum-0.9", "inf", "length-1"])
def test_bound_rejects_bad_proportions(p):
    x, y = _two_blob_draw(10, 5, seed=28)
    grid = HypothesisGrid.linear(2, 2, [0.0], seed=29)
    with pytest.raises(UsageError, match="p must be"):
        bound_check(x, y, x, y, grid, p=p, draws=5)
    with pytest.raises(UsageError, match="p must be"):
        bound_experiment(lambda i: (x, y), 2, x, y, grid, p=p, mc_draws=5)


def test_bound_rejects_empty_grid():
    x, y = _two_blob_draw(10, 5, seed=30)
    grid = HypothesisGrid(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(UsageError, match="grid is empty"):
        bound_check(x, y, x, y, grid, draws=5)
    with pytest.raises(UsageError, match="grid is empty"):
        bound_experiment(lambda i: (x, y), 2, x, y, grid, mc_draws=5)


def test_bound_rejects_empty_draw_or_population():
    x, y = _two_blob_draw(10, 5, seed=31)
    none_x, none_y = np.zeros((0, 2)), np.zeros(0, dtype=int)
    grid = HypothesisGrid.linear(2, 2, [0.0], seed=32)
    with pytest.raises(UsageError, match="no samples"):
        bound_check(none_x, none_y, x, y, grid, draws=5)
    with pytest.raises(UsageError, match="no samples"):
        bound_experiment(lambda i: (x, y), 2, none_x, none_y, grid, mc_draws=5)
