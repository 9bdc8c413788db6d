import numpy as np
import pytest

from adpm.denoiser import DenoiserParams
from adpm.errors import ConfigError
from adpm.optim import Adam, flatten, lr_at, unflatten


def test_adam_zero_gradient_is_noop():
    params = np.array([1.0, -2.0, 0.5, 3.0])
    before = params.copy()
    opt = Adam(lr=0.1)
    opt.step(params, np.zeros(4))
    assert np.array_equal(params, before)
    assert not opt.m.any() and not opt.v.any()


def test_adam_state_round_trip():
    # step Adam, copy its state into a fresh one, and check that both
    # take the next step alike
    rng = np.random.default_rng(0)
    params = rng.standard_normal(9)
    opt = Adam(0.01)
    assert opt.state_dict() == {"step_count": 0}
    for _ in range(5):
        opt.step(params, rng.standard_normal(9))
    state = opt.state_dict()
    clone = Adam(0.01)
    clone.load_state_dict(state)
    assert clone.state_dict().keys() == state.keys()
    for key, value in state.items():
        assert np.array_equal(clone.state_dict()[key], value)
    g = rng.standard_normal(9)
    a, b = params.copy(), params.copy()
    opt.step(a, g)
    clone.step(b, g)
    assert np.array_equal(a, b)
    assert state["m"].shape == state["v"].shape == (9,)
    # the state holds copies, not the optimizer's own moments
    state["m"][:] = 0.0
    assert opt.m.any()


def _blockwise_adam(blocks, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step block by block, as separate arrays."""
    c1, c2 = 1.0 - beta1 ** step, 1.0 - beta2 ** step
    for name, p in blocks.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        p -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)


def test_flat_adam_over_views_equals_blockwise_adam_bitwise():
    rng = np.random.default_rng(1)
    shapes = {"w": (3, 4), "b": (1, 4), "u": (4, 2)}
    blocks = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    ref = {name: arr.copy() for name, arr in blocks.items()}
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    flat = flatten(blocks.values())
    views = unflatten(flat, shapes)
    opt = Adam(lr=0.05)
    for step in range(1, 8):
        grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        opt.step(flat, flatten(grads.values()))
        _blockwise_adam(ref, grads, m, v, step, 0.05)
    for name in shapes:
        assert views[name].tobytes() == ref[name].tobytes()
        assert unflatten(opt.m, shapes)[name].tobytes() == m[name].tobytes()
        assert unflatten(opt.v, shapes)[name].tobytes() == v[name].tobytes()


def test_unflatten_gives_views_and_checks_the_length():
    shapes = {"a": (2, 3), "b": (1, 3)}
    vec = np.arange(9.0)
    views = unflatten(vec, shapes)
    assert views["a"].base is vec and views["b"].tolist() == [[6.0, 7.0, 8.0]]
    views["b"][0, 0] = -1.0
    assert vec[6] == -1.0
    assert np.array_equal(flatten(views.values()), vec)
    with pytest.raises(ConfigError, match="blocks hold 9 values, the vector 10"):
        unflatten(np.zeros(10), shapes)


def test_flat_copies_the_network_into_one_vector_of_views():
    params = DenoiserParams.draw((3, 5, 2, 4), np.random.default_rng(3))
    net, vec = params.flat()
    assert vec.tobytes() == flatten(params.blocks().values()).tobytes()
    for name, arr in net.blocks().items():
        assert arr.base is vec and arr.tobytes() == params.blocks()[name].tobytes()
    vec += 1.0  # the copy moves with its vector; the network it came from does not
    assert net.fuse_w[0, 0] == params.fuse_w[0, 0] + 1.0
    views = net.views(np.arange(vec.size, dtype=np.float64))
    assert list(views) == list(params.blocks())
    assert all(views[name].shape == arr.shape for name, arr in params.blocks().items())
    with pytest.raises(ConfigError):
        net.views(np.zeros(vec.size + 1))


def test_lr_schedule_endpoints_and_max():
    total = 200
    base = 1e-3
    warmup = max(1, round(0.1 * total))
    assert lr_at(0, total, base) == pytest.approx(base / warmup)
    values = [lr_at(s, total, base) for s in range(total + 1)]
    assert max(values) == pytest.approx(base)
    assert values[warmup] == pytest.approx(base)  # peak right after warmup
    assert lr_at(total, total, base) >= 0.0
    assert lr_at(total, total, base) == pytest.approx(0.0, abs=1e-18)


def test_lr_schedule_monotone_warmup_then_decay():
    total = 100
    values = np.array([lr_at(s, total, 1e-2) for s in range(total + 1)])
    warmup = 10
    assert (np.diff(values[:warmup]) > 0).all()
    assert (np.diff(values[warmup:]) <= 1e-18).all()
