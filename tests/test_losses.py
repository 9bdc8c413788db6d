import math

import numpy as np
import pytest

from adpm.autodiff import Tape, scalar
from adpm.errors import ConfigError, ShapeError
from adpm.losses import (KernelConfig, eps_loss_graph, mmd_loss_graph, resolve_bandwidth,
                         total_loss_graph)

from gradcheck import finite_diff, rel_err


# each loss is evaluated on a tape of its own, the way batch_loss builds it

def rbf_kernel_mean(a, b, cfg=KernelConfig()):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    tape = Tape()
    return scalar(tape.rbf_mean(tape.const(a), tape.const(b), resolve_bandwidth(a, b, cfg)))


def mmd_loss(eps_true, eps_pred, cfg=KernelConfig()):
    tape = Tape()
    return scalar(mmd_loss_graph(tape, tape.const(eps_true), tape.const(eps_pred), cfg))


def eps_loss(eps_true, eps_pred):
    tape = Tape()
    return scalar(eps_loss_graph(tape, tape.const(eps_true), tape.const(eps_pred)))


def total_loss(l_g, l_l, l_eps, w=0.5):
    tape = Tape()
    return scalar(total_loss_graph(tape, *(tape.const([[v]]) for v in (l_g, l_l, l_eps)), w))


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
    got = rbf_kernel_mean(a, b, KernelConfig(bandwidth=sigma))
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


def test_median_heuristic_bandwidth():
    a = np.array([[0.0], [0.0]])
    b = np.array([[0.0], [0.0]])
    assert resolve_bandwidth(a, b, KernelConfig(bandwidth_mode="median-heuristic")) == 1.0
    a = np.array([[0.0]])
    b = np.array([[2.0]])
    cfg = KernelConfig(bandwidth_mode="median-heuristic")
    assert resolve_bandwidth(a, b, cfg) == pytest.approx(2.0)


def test_mmd_identical_batches_is_zero():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 4))
    assert abs(mmd_loss(x, x.copy())) <= 1e-12


def test_mmd_single_row_scalar_oracle():
    # 1 - 2 exp(-1/2) + 1, recomputed with mpmath
    value = mmd_loss([[0.0]], [[1.0]])
    assert value == pytest.approx(0.7869386805747332, abs=1e-15)


def test_mmd_axioms_over_random_batches():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        p = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 4))
        a = rng.standard_normal((m, cols))
        b = rng.standard_normal((p, cols))
        v = mmd_loss(a, b)
        assert v >= -1e-12
        assert abs(v - mmd_loss(b, a)) <= 1e-12


def test_eps_loss_cases():
    assert eps_loss([[1.0, 2.0]], [[1.0, 2.0]]) == 0.0
    assert eps_loss([[0.0, 0.0]], [[1.0, 1.0]]) == pytest.approx(2.0, abs=1e-15)


def test_eps_loss_matches_loop_oracle():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal((6, 3))
    expected = sum(float(((a[i] - b[i]) ** 2).sum()) for i in range(6)) / 6
    assert eps_loss(a, b) == pytest.approx(expected, abs=1e-12)


def test_eps_loss_batch_mean_duplication_invariant():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((4, 3))
    single = eps_loss(a, b)
    doubled = eps_loss(np.concatenate([a, a]), np.concatenate([b, b]))
    assert abs(single - doubled) <= 1e-12


def test_eps_loss_shape_error():
    with pytest.raises(ShapeError):
        eps_loss(np.ones((2, 3)), np.ones((3, 3)))


def test_total_loss():
    assert total_loss(0.2, 0.2, 1.0, w=0.5) == pytest.approx(1.2, abs=1e-15)
    assert total_loss(0.0, 0.0, 0.0) == 0.0
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
    cfg = KernelConfig()

    def build():
        tape = Tape()
        pv = tape.param(pred)
        tv = tape.const(eps_true)
        l_mmd = mmd_loss_graph(tape, tv, pv, cfg)
        l_eps = eps_loss_graph(tape, tv, pv)
        return tape, pv, total_loss_graph(tape, l_mmd, l_mmd, l_eps, 0.5)

    tape, pv, root = build()
    grads = tape.backward(root)
    fd = finite_diff(lambda: scalar(build()[2]), pred)
    assert rel_err(grads[pv], fd).max() < 1e-4
