import dataclasses

import numpy as np
import pytest

from adpm import optim
from adpm.autodiff import Tape
from adpm.data import LongTailSpec, generate_longtail
from adpm.denoiser import DenoiserParams
from adpm.priors import (PriorGraph, PriorNetParams, _cross_entropy_grads, mlp_forward,
                         prior_bundle, salience_mask, warmup_train)

from gradcheck import finite_diff, rel_err


def composed_priors(params, x):
    """Global, local and fused priors composed from the tape's affine and
    tanh ops and a row softmax written here."""
    def softmax(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    tape = Tape()
    w1, b1, w2, b2 = (tape.param(arr) for arr in params.blocks().values())

    def logits(inputs):
        return tape.affine(tape.tanh(tape.affine(tape.const(inputs), w1, b1)), w2, b2).value

    y_g = softmax(logits(x))
    y_l = softmax(logits(x * salience_mask(params, x)))
    return y_g, y_l, (y_g + y_l) * 0.5, logits(x)


def zero_params(d=3, hidden=4, k=3):
    return PriorNetParams(w1=np.zeros((d, hidden)), b1=np.zeros((1, hidden)),
                          w2=np.zeros((hidden, k)), b2=np.zeros((1, k)))


def random_params(d, hidden, k, seed=0):
    return PriorNetParams.draw((d, hidden, k), np.random.default_rng(seed))


def global_prior(params, x):
    return prior_bundle(params, np.atleast_2d(x)).y_g[0]


def local_prior(params, x):
    return prior_bundle(params, np.atleast_2d(x)).y_l[0]


@pytest.mark.parametrize("n", [1, 2, 7])
def test_numpy_priors_match_tape_bitwise(n):
    params = random_params(6, 5, 4, seed=13)
    x = np.random.default_rng(14).standard_normal((n, 6)) * 2
    bundle = prior_bundle(params, x)
    assert bundle.y_g.shape == (n, 4)
    y_g, y_l, y_f, logits = composed_priors(params, x)
    for ours, ref in ((bundle.y_g, y_g), (bundle.y_l, y_l), (bundle.y_f, y_f),
                      (mlp_forward(params, x)[1], logits)):
        assert ours.tobytes() == ref.tobytes()


def test_prior_graph_puts_the_bundle_on_the_tape_as_constants():
    params = random_params(6, 5, 4, seed=13)
    x = np.random.default_rng(15).standard_normal((5, 6))
    tape = Tape()
    graph = PriorGraph(tape, params, tape.const(x))
    bundle = prior_bundle(params, x)
    for var, ref in ((graph.y_g, bundle.y_g), (graph.y_l, bundle.y_l),
                     (graph.y_f, bundle.y_f)):
        assert np.array_equal(var.value, ref) and not var.reached and var.rule is None


def test_zero_weights_give_uniform_priors():
    params = zero_params()
    x = np.array([0.3, -0.5, 2.0])
    assert np.allclose(global_prior(params, x), [1 / 3] * 3, rtol=0, atol=1e-15)
    assert np.allclose(local_prior(params, x), [1 / 3] * 3, rtol=0, atol=1e-15)


def test_priors_live_on_simplex():
    rng = np.random.default_rng(1)
    params = random_params(5, 8, 4, seed=2)
    for _ in range(50):
        x = rng.standard_normal(5) * 3
        for vec in (global_prior(params, x), local_prior(params, x)):
            assert (vec >= 0).all()
            assert abs(vec.sum() - 1.0) < 1e-12


def test_local_full_mask_equals_global_bitwise():
    # at d = 1 the mask keeps max(1, 0) = 1 coordinate: all of them
    params = random_params(1, 5, 3, seed=3)
    assert params.mask_size == 1
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.standard_normal(1)
        assert np.array_equal(local_prior(params, x), global_prior(params, x))


def test_local_mask_picks_dominant_feature():
    # coordinate 1 carries nearly all the weight mass, so m=1 keeps it
    params = PriorNetParams(w1=np.array([[0.1, 0.1], [1.0, 1.0]]),
                            b1=np.zeros((1, 2)),
                            w2=np.array([[0.7, -0.4], [0.2, 0.9]]),
                            b2=np.zeros((1, 2)))
    x = np.array([1.0, 0.9])
    assert np.array_equal(salience_mask(params, x), [[0.0, 1.0]])
    masked = np.array([0.0, 0.9])
    assert np.array_equal(local_prior(params, x), global_prior(params, masked))


@pytest.mark.parametrize("d, kept", [(1, 1), (2, 1), (3, 1), (4, 2), (7, 3), (8, 4)])
def test_mask_size_is_derived_from_the_feature_count(d, kept):
    assert zero_params(d=d).mask_size == kept
    assert int(salience_mask(zero_params(d=d), np.ones((1, d))).sum()) == kept


def test_the_four_blocks_are_the_whole_prior_network():
    assert [f.name for f in dataclasses.fields(PriorNetParams)] == ["w1", "b1", "w2", "b2"]
    with pytest.raises(TypeError):
        PriorNetParams(**zero_params(d=6).blocks(), mask_size=3)
    # both networks are drawn from their shape table, with no wrapper
    assert not hasattr(PriorNetParams, "init") and not hasattr(DenoiserParams, "init")


def test_salience_ties_break_to_lower_index():
    # d = 4 keeps 2 of 4 equally salient coordinates
    params = PriorNetParams(w1=np.ones((4, 2)), b1=np.zeros((1, 2)),
                            w2=np.zeros((2, 2)), b2=np.zeros((1, 2)))
    mask = salience_mask(params, np.array([1.0, 1.0, 1.0, 1.0]))
    assert np.array_equal(mask, [[1.0, 1.0, 0.0, 0.0]])


def test_fuse_cases_and_symmetry():
    # the fused prior is the componentwise mean of the global and local ones
    u = np.full((1, 4), 0.25)
    assert np.array_equal(prior_bundle(zero_params(k=4), np.ones((1, 3))).y_f, u)
    params = random_params(5, 6, 5, seed=5)
    x = np.random.default_rng(5).standard_normal((20, 5)) * 3
    bundle = prior_bundle(params, x)
    assert not np.array_equal(bundle.y_g, bundle.y_l)
    assert np.array_equal(bundle.y_f, (bundle.y_g + bundle.y_l) / 2)
    assert np.array_equal(bundle.y_f, (bundle.y_l + bundle.y_g) / 2)


def test_bundle_sums_to_one():
    params = random_params(4, 6, 3, seed=6)
    bundle = prior_bundle(params, np.array([[0.5, -1.0, 2.0, 0.1]]))
    for vec in (bundle.y_g, bundle.y_l, bundle.y_f):
        assert abs(vec.sum() - 1.0) < 1e-12


def two_blob_table(n=40, seed=8):
    spec = LongTailSpec(k=2, head_count=n, decay=1.0, d=2, separation=6.0,
                        spread=0.7, seed=seed)
    return generate_longtail(spec)


def _logistic_fit_accuracy(table):
    # independent reference: full-batch gradient descent on logistic loss
    x = np.concatenate([table.features, np.ones((table.n, 1))], axis=1)
    y = table.labels.astype(np.float64)
    w = np.zeros(x.shape[1])
    for _ in range(2000):
        p = 1.0 / (1.0 + np.exp(-(x @ w)))
        w -= 0.5 * x.T @ (p - y) / table.n
    pred = (x @ w > 0).astype(np.int64)
    return float((pred == table.labels).mean())


def test_warmup_converges_on_separable_toy():
    table = two_blob_table()
    assert _logistic_fit_accuracy(table) >= 0.99  # data really is separable
    params = random_params(2, 8, 2, seed=9)
    trained = warmup_train(params, table, 200, optim.Adam(0.01), batch_size=table.n,
                           seed=1)
    preds = np.argmax(prior_bundle(trained, table.features).y_g, axis=1)
    acc = float(np.mean(preds == table.labels))
    assert acc >= 0.99


def test_warmup_zero_epochs_is_bitwise_noop():
    table = two_blob_table(n=10)
    params = random_params(2, 4, 2, seed=10)
    out = warmup_train(params, table, 0, optim.Adam(), batch_size=4)
    for name, arr in params.blocks().items():
        assert np.array_equal(out.blocks()[name], arr)


def test_cross_entropy_flat_gradient_matches_finite_differences():
    table = generate_longtail(LongTailSpec(k=3, head_count=6, decay=0.5, d=3,
                                           separation=1.0, spread=1.0, seed=2))
    params, vec = random_params(3, 4, 3, seed=7).flat()
    grad = np.full_like(vec, np.nan)
    loss = _cross_entropy_grads(params, table.features, table.onehot, params.views(grad))
    assert loss == pytest.approx(cross_entropy(params, table), abs=1e-12)

    def f():
        return _cross_entropy_grads(params, table.features, table.onehot,
                                    params.views(np.empty_like(vec)))
    # the blocks are views into vec, so each perturbation of vec moves one weight
    assert rel_err(grad, finite_diff(f, vec)).max() < 1e-6


def cross_entropy(params, table):
    """Softmax cross entropy of mlp_forward's logits over the whole table."""
    logits = mlp_forward(params, table.features)[1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(table.n), table.labels].mean())


class GradientDescent:
    """Plain gradient descent with the step interface warmup_train uses."""

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        params -= self.lr * grads


def test_warmup_full_batch_descent_monotone():
    table = two_blob_table(n=30)
    params = random_params(2, 6, 2, seed=11)
    losses = [cross_entropy(params, table)]
    current = params
    for epoch in range(50):
        # one batch of every row: a full-batch step per epoch
        current = warmup_train(current, table, 1, GradientDescent(0.05),
                               batch_size=table.n, seed=12)
        losses.append(cross_entropy(current, table))
    diffs = np.diff(losses)
    assert (diffs <= 1e-6).all()
