import numpy as np
import pytest

from adpm.data import LongTailSpec, generate_longtail
from adpm.errors import ShapeError
from adpm.priors import (PriorNetParams, fuse, global_prior, local_prior, prior_bundle,
                         salience_mask, warmup_loss, warmup_train)


def zero_params(d=3, hidden=4, k=3, m=None):
    return PriorNetParams(w1=np.zeros((d, hidden)), b1=np.zeros((1, hidden)),
                          w2=np.zeros((hidden, k)), b2=np.zeros((1, k)),
                          mask_size=m if m is not None else d)


def random_params(d, hidden, k, m, seed=0):
    rng = np.random.default_rng(seed)
    return PriorNetParams.init(d, hidden, k, m, rng)


def test_zero_weights_give_uniform_priors():
    params = zero_params()
    x = np.array([0.3, -0.5, 2.0])
    assert np.allclose(global_prior(params, x), [1 / 3] * 3, rtol=0, atol=1e-15)
    assert np.allclose(local_prior(params, x), [1 / 3] * 3, rtol=0, atol=1e-15)


def test_priors_live_on_simplex():
    rng = np.random.default_rng(1)
    params = random_params(5, 8, 4, 2, seed=2)
    for _ in range(50):
        x = rng.standard_normal(5) * 3
        for vec in (global_prior(params, x), local_prior(params, x)):
            assert (vec >= 0).all()
            assert abs(vec.sum() - 1.0) < 1e-12


def test_local_full_mask_equals_global_bitwise():
    params = random_params(6, 5, 3, 6, seed=3)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.standard_normal(6)
        assert np.array_equal(local_prior(params, x), global_prior(params, x))


def test_local_mask_picks_dominant_feature():
    # coordinate 1 carries nearly all the weight mass, so m=1 keeps it
    params = PriorNetParams(w1=np.array([[0.1, 0.1], [1.0, 1.0]]),
                            b1=np.zeros((1, 2)),
                            w2=np.array([[0.7, -0.4], [0.2, 0.9]]),
                            b2=np.zeros((1, 2)), mask_size=1)
    x = np.array([1.0, 0.9])
    assert np.array_equal(salience_mask(params, x), [[0.0, 1.0]])
    masked = np.array([0.0, 0.9])
    full = PriorNetParams(**{**params.blocks()}, mask_size=2)
    assert np.array_equal(local_prior(params, x), global_prior(full, masked))


def test_salience_ties_break_to_lower_index():
    params = PriorNetParams(w1=np.ones((3, 2)), b1=np.zeros((1, 2)),
                            w2=np.zeros((2, 2)), b2=np.zeros((1, 2)), mask_size=2)
    mask = salience_mask(params, np.array([1.0, 1.0, 1.0]))
    assert np.array_equal(mask, [[1.0, 1.0, 0.0]])


def test_fuse_cases_and_symmetry():
    u = np.full(4, 0.25)
    assert np.array_equal(fuse(u, u).y_f, u)
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    assert np.array_equal(fuse(e0, e1).y_f, [0.5, 0.5, 0.0])
    rng = np.random.default_rng(5)
    a = rng.dirichlet(np.ones(5))
    b = rng.dirichlet(np.ones(5))
    assert np.array_equal(fuse(a, b).y_f, (a + b) / 2)
    assert np.array_equal(fuse(a, b).y_f, fuse(b, a).y_f)
    with pytest.raises(ShapeError):
        fuse(np.ones(3), np.ones(4))


def test_bundle_sums_to_one():
    params = random_params(4, 6, 3, 2, seed=6)
    bundle = prior_bundle(params, np.array([0.5, -1.0, 2.0, 0.1]))
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
    params = random_params(2, 8, 2, 2, seed=9)
    trained = warmup_train(params, table, epochs=200, lr=0.01, seed=1)
    preds = [int(np.argmax(global_prior(trained, x))) for x in table.features]
    acc = float(np.mean(np.array(preds) == table.labels))
    assert acc >= 0.99


def test_warmup_zero_epochs_is_bitwise_noop():
    table = two_blob_table(n=10)
    params = random_params(2, 4, 2, 1, seed=10)
    out = warmup_train(params, table, epochs=0)
    for name, arr in params.blocks().items():
        assert np.array_equal(out.blocks()[name], arr)


def test_warmup_full_batch_descent_monotone():
    table = two_blob_table(n=30)
    params = random_params(2, 6, 2, 2, seed=11)
    losses = [warmup_loss(params, table)]
    current = params
    for epoch in range(50):
        current = warmup_train(current, table, epochs=1, lr=0.05,
                               optimizer="sgd", seed=12)
        losses.append(warmup_loss(current, table))
    diffs = np.diff(losses)
    assert (diffs <= 1e-6).all()
