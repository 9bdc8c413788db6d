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


def composed_rbf_mean(tape, a, b, sigma):
    """The mean RBF kernel as a composition of elementary tape ops."""
    m, cols = a.shape
    p = b.shape[0]
    ones_cols = tape.const(np.ones((cols, 1)))
    ra = tape.matmul(tape.mul(a, a), ones_cols)
    rb = tape.matmul(tape.mul(b, b), ones_cols)
    gram = tape.matmul(a, b, trans_b=True)
    sq = tape.sub(
        tape.add(tape.matmul(ra, tape.const(np.ones((1, p)))),
                 tape.matmul(tape.const(np.ones((m, 1))), rb, trans_b=True)),
        tape.scale(gram, 2.0))
    return tape.mean(tape.exp(tape.scale(sq, -1.0 / (2.0 * sigma * sigma))))


def test_rbf_mean_matches_composed_kernel():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m, p, cols = (int(v) for v in rng.integers(1, 9, size=3))
        a = rng.standard_normal((m, cols))
        b = rng.standard_normal((p, cols))
        sigma = float(rng.uniform(0.3, 3.0))
        # the aliased pair (a, a) is the K(pred, pred) term of the MMD
        for aliased in (False, True):
            results = []
            for kernel in (Tape.rbf_mean, composed_rbf_mean):
                tape = Tape()
                av, bv = tape.param(a), tape.param(b)
                out = kernel(tape, av, av if aliased else bv, sigma)
                grads = tape.backward(out)
                results.append((scalar(out), grads[av], grads[bv]))
            (fused, ga, gb), (composed, ca, cb) = results
            assert abs(fused - composed) <= 1e-12
            assert np.abs(ga - ca).max() <= 1e-12 and np.abs(gb - cb).max() <= 1e-12


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
