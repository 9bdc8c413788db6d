import math

import numpy as np
import pytest

from adpm.autodiff import Tape, scalar
from adpm.errors import ConfigError, ShapeError
from adpm.losses import eps_loss, mmd_loss, rbf_kernel, total_loss

from gradcheck import finite_diff, rel_err
from tape_oracle import eps_loss_graph, mmd_loss_graph, total_loss_graph


def rbf_kernel_mean(a, b, sigma=1.0):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(rbf_kernel(a, b, sigma).mean())


def mmd_value(eps_true, eps_pred, sigma=1.0):
    return mmd_loss(np.asarray(eps_true, dtype=np.float64),
                    np.asarray(eps_pred, dtype=np.float64), sigma)[0]


def eps_value(eps_true, eps_pred):
    return eps_loss(np.asarray(eps_true, dtype=np.float64),
                    np.asarray(eps_pred, dtype=np.float64))[0]


def test_kernel_identical_single_rows():
    assert rbf_kernel_mean([[0.3, -0.2]], [[0.3, -0.2]]) == pytest.approx(1.0, abs=1e-15)


def test_kernel_scalar_formula_oracle():
    # exp(-(0-1)^2 / 2) at unit bandwidth
    value = rbf_kernel_mean([[0.0]], [[1.0]])
    assert value == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert value == pytest.approx(0.6065306597126334, abs=1e-15)


def test_kernel_symmetric():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((6, 3))
    assert rbf_kernel_mean(a, b) == pytest.approx(rbf_kernel_mean(b, a), abs=1e-15)


def test_kernel_brute_force_oracle():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 2))
    b = rng.standard_normal((3, 2))
    sigma = 1.3
    total = 0.0
    for i in range(5):
        for j in range(3):
            total += math.exp(-float(((a[i] - b[j]) ** 2).sum()) / (2 * sigma * sigma))
    expected = total / 15
    got = rbf_kernel_mean(a, b, sigma)
    assert got == pytest.approx(expected, abs=1e-12)


def pairwise_rbf_mean(a, b, sigma):
    """Mean RBF kernel and its adjoints in a and b, from pairwise differences.

    K_ij = exp(-|a_i - b_j|^2 / (2 sigma^2)); the adjoint of a_i is
    -sum_j K_ij (a_i - b_j) / (sigma^2 K.size), and b_j's is the same sum
    over i with the sign flipped.
    """
    diff = a[:, None, :] - b[None, :, :]
    kernel = np.exp(-(diff ** 2).sum(axis=2) / (2.0 * sigma * sigma))
    weighted = kernel[:, :, None] * diff / (sigma * sigma * kernel.size)
    return kernel.mean(), -weighted.sum(axis=1), weighted.sum(axis=0)


def test_rbf_mean_matches_composed_kernel():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m, p, cols = (int(v) for v in rng.integers(1, 9, size=3))
        a = rng.standard_normal((m, cols))
        b = rng.standard_normal((p, cols))
        sigma = float(rng.uniform(0.3, 3.0))
        # the aliased pair (a, a) is the K(pred, pred) term of the MMD
        for aliased in (False, True):
            tape = Tape()
            av, bv = tape.param(a), tape.param(b)
            out = tape.rbf_mean(av, av if aliased else bv, sigma)
            grads = tape.backward(out)
            if aliased:
                value, ga, gb = pairwise_rbf_mean(a, a, sigma)
                ca, cb = ga + gb, np.zeros_like(b)
            else:
                value, ca, cb = pairwise_rbf_mean(a, b, sigma)
            assert abs(scalar(out) - value) <= 1e-12
            assert np.abs(grads[av] - ca).max() <= 1e-12
            assert np.abs(grads[bv] - cb).max() <= 1e-12


def test_mmd_identical_batches_is_zero():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 4))
    assert abs(mmd_value(x, x.copy())) <= 1e-12


def test_mmd_single_row_scalar_oracle():
    # 1 - 2 exp(-1/2) + 1, recomputed with mpmath
    value = mmd_value([[0.0]], [[1.0]])
    assert value == pytest.approx(0.7869386805747332, abs=1e-15)


def test_mmd_axioms_over_random_batches():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        p = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 4))
        a = rng.standard_normal((m, cols))
        b = rng.standard_normal((p, cols))
        v = mmd_value(a, b)
        assert v >= -1e-12
        assert abs(v - mmd_value(b, a)) <= 1e-12


def test_eps_loss_cases():
    assert eps_value([[1.0, 2.0]], [[1.0, 2.0]]) == 0.0
    assert eps_value([[0.0, 0.0]], [[1.0, 1.0]]) == pytest.approx(2.0, abs=1e-15)


def test_eps_loss_matches_loop_oracle():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal((6, 3))
    expected = sum(float(((a[i] - b[i]) ** 2).sum()) for i in range(6)) / 6
    assert eps_value(a, b) == pytest.approx(expected, abs=1e-12)


def test_eps_loss_batch_mean_duplication_invariant():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((4, 3))
    single = eps_value(a, b)
    doubled = eps_value(np.concatenate([a, a]), np.concatenate([b, b]))
    assert abs(single - doubled) <= 1e-12


def test_eps_loss_shape_error():
    with pytest.raises(ShapeError):
        eps_value(np.ones((2, 3)), np.ones((3, 3)))


def test_total_loss():
    assert total_loss(0.2, 0.2, 1.0, w=0.5) == pytest.approx(1.2, abs=1e-15)
    assert total_loss(0.0, 0.0, 0.0, 0.5) == 0.0
    rng = np.random.default_rng(6)
    for _ in range(20):
        lg, ll, le, w = rng.uniform(0.01, 2.0, size=4)
        assert total_loss(lg, ll, le, w) == pytest.approx(w * (lg + ll) + le, abs=1e-15)
    with pytest.raises(ConfigError):
        total_loss(1.0, 1.0, 1.0, w=0.0)


def test_total_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    eps_true = rng.standard_normal((5, 3))
    pred = rng.standard_normal((5, 3))

    def total():
        l_mmd = mmd_loss(eps_true, pred, 1.0)[0]
        return total_loss(l_mmd, l_mmd, eps_loss(eps_true, pred)[0], 0.5)

    # L_g and L_l are the same MMD here, so its gradient counts twice
    grad = mmd_loss(eps_true, pred, 1.0, 0.5)[1] * 2.0 + eps_loss(eps_true, pred)[1]
    assert rel_err(grad, finite_diff(total, pred)).max() < 1e-4


@pytest.mark.parametrize("sigma", [1.0, 0.7], ids=["unit", "narrow"])
@pytest.mark.parametrize("weight", [1.0, 0.5, 0.3])
def test_losses_match_the_tape_bitwise(sigma, weight):
    # the numpy terms and their gradients are the tape's, bit for bit
    rng = np.random.default_rng(9)
    for rows in (1, 2, 7):
        eps_true = rng.standard_normal((rows, 3))
        pred = rng.standard_normal((rows, 3))
        # L_eps enters the total with weight 1
        for loss, graph, term_weight in (
                (lambda t, p: mmd_loss(t, p, sigma, weight),
                 lambda tape, t, p: mmd_loss_graph(tape, t, p, sigma), weight),
                (eps_loss, eps_loss_graph, 1.0)):
            value, grad = loss(eps_true, pred)
            tape = Tape()
            pv = tape.param(pred)
            root = graph(tape, tape.const(eps_true), pv)
            weighted = tape.scale(root, term_weight)
            assert value == scalar(root)
            assert grad.tobytes() == tape.backward(weighted)[pv].tobytes()
    for l_g, l_l, l_eps in rng.uniform(0.01, 2.0, size=(5, 3)):
        tape = Tape()
        assert total_loss(l_g, l_l, l_eps, weight) == scalar(total_loss_graph(
            tape, *(tape.const([[v]]) for v in (l_g, l_l, l_eps)), weight))
