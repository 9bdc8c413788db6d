import dataclasses
import math

import numpy as np
import pytest

from adpm.autodiff import Tape, scalar
from adpm.denoiser import (Activations, DenoiserParams, predict_noise, time_embed,
                           time_embed_batch)
from adpm.errors import ConfigError, ShapeError

from gradcheck import finite_diff, rel_err
from tape_oracle import DenoiserGraph


def make_params(k=3, h=6, d_att=4, t_dim=4, seed=0):
    return DenoiserParams.draw((k, h, d_att, t_dim), np.random.default_rng(seed))


def zero_params(k=3, h=6, d_att=4, t_dim=4):
    p = make_params(k, h, d_att, t_dim)
    return DenoiserParams(**{name: np.zeros_like(arr) for name, arr in p.blocks().items()})


def test_time_embed_at_zero():
    emb = time_embed(0, 10, 8)
    assert np.array_equal(emb[0::2], np.zeros(4))
    assert np.array_equal(emb[1::2], np.ones(4))


def test_time_embed_closed_form():
    # angles t * 10000^(-2i/dim) for dim=4, t=1: 1 and 0.01
    emb = time_embed(1, 10, 4)
    expected = [math.sin(1.0), math.cos(1.0), math.sin(0.01), math.cos(0.01)]
    assert np.allclose(emb, expected, rtol=0, atol=1e-15)


def test_time_embed_injective_at_desk_scale():
    T = 200
    table = time_embed_batch(np.arange(T + 1), T, 16)
    assert np.unique(table, axis=0).shape[0] == T + 1


@pytest.mark.parametrize("T", [10, 100, 1000])
def test_time_table_rows_equal_time_embed_bitwise(T):
    # the sampler reads its visited steps' rows from the (T + 1)-row table
    # that training uses; predict_noise embeds one step at a time
    for dim in (4, 16, 32):
        table = time_embed_batch(np.arange(T + 1), T, dim)
        for t in range(1, T + 1):
            assert table[t].tobytes() == time_embed(t, T, dim).tobytes(), (dim, t)


def test_time_embed_validation():
    with pytest.raises(ConfigError):
        time_embed(1, 10, 5)
    with pytest.raises(ConfigError):
        time_embed(11, 10, 4)


def test_predict_noise_zero_weights_zero_output():
    params = zero_params()
    out = predict_noise(params, np.ones((1, 3)), np.ones((1, 3)), 5, 10)
    assert np.array_equal(out, np.zeros((1, 3)))


def test_predict_noise_deterministic():
    params = make_params(seed=3)
    rng = np.random.default_rng(4)
    rng.standard_normal(6)  # the former cond draw, kept so yn and yp keep their values
    yn, yp = rng.standard_normal((1, 3)), rng.dirichlet(np.ones(3), size=1)
    a = predict_noise(params, yn, yp, 7, 20)
    b = predict_noise(params, yn, yp, 7, 20)
    assert np.array_equal(a, b)


def test_predict_noise_time_sensitivity():
    params = make_params(seed=5)
    rng = np.random.default_rng(6)
    rng.standard_normal(6)  # the former cond draw
    yn, yp = rng.standard_normal((1, 3)), rng.dirichlet(np.ones(3), size=1)
    a = predict_noise(params, yn, yp, 3, 20)
    b = predict_noise(params, yn, yp, 15, 20)
    assert float(np.linalg.norm(a - b)) > 0.0


def test_predict_noise_matches_tape_graph():
    params = make_params(k=3, h=6, d_att=4, t_dim=4, seed=12)
    rng = np.random.default_rng(13)
    n = 7
    rng.standard_normal((n, 6))  # the former cond draw
    yn = rng.standard_normal((n, 3))
    yp = rng.dirichlet(np.ones(3), size=n)
    for t in (0, 1, 9, 20):
        tape = Tape()
        ref = DenoiserGraph(tape, params).predict(
            tape.const(yn), tape.const(yp), np.full(n, t), 20).value
        got = predict_noise(params, yn, yp, t, 20)
        assert got.shape == (n, 3)
        assert np.abs(got - ref).max() <= 1e-12
        one = predict_noise(params, yn[:1], yp[:1], t, 20)
        assert one.shape == (1, 3) and np.abs(one - ref[:1]).max() <= 1e-12


def test_predict_noise_builds_no_tape(monkeypatch):
    def no_tape(*args, **kwargs):
        raise AssertionError("predict_noise built a tape")
    monkeypatch.setattr(Tape, "__init__", no_tape)
    params = make_params(seed=14)
    out = predict_noise(params, np.ones((2, 3)), np.ones((2, 3)), 4, 10)
    assert out.shape == (2, 3) and np.isfinite(out).all()


def test_predict_noise_rejects_mismatched_label_shapes():
    # the model has k = 3; without the check the concat or a matmul raises
    # a bare numpy ValueError
    params = make_params(seed=15)
    for noisy, prior in [((2, 3), (3, 3)), ((3, 3), (2, 3)), ((2, 3), (2, 4)),
                         ((2, 4), (2, 4)), ((3,), (3,)), ((1, 3), (3,))]:
        with pytest.raises(ShapeError):
            predict_noise(params, np.ones(noisy), np.ones(prior), 1, 10)


def _sum_sq_case(seed=7):
    params = make_params(k=2, h=4, d_att=3, t_dim=4, seed=seed)
    rng = np.random.default_rng(seed + 1)
    yn = rng.standard_normal((3, 2))
    yp = rng.dirichlet(np.ones(2), size=3)
    return params, yn, yp, time_embed_batch(np.array([1, 5, 9]), 10, 4)


def _backward_of_sum_sq(params, yn, yp, t_rows):
    """Gradient blocks of the sum of squared outputs, from backward."""
    acts = params.forward(yn, yp, t_rows)
    grad = params.backward(acts, 2.0 * acts.out)
    return params.views(grad)


def test_predict_noise_gradients_match_finite_differences():
    params, yn, yp, t_rows = _sum_sq_case()
    grads = _backward_of_sum_sq(params, yn, yp, t_rows)
    for name, arr in params.blocks().items():
        fd = finite_diff(lambda: float(np.sum(params.forward(yn, yp, t_rows).out ** 2)), arr)
        err = rel_err(grads[name], fd).max()
        assert err < 1e-4, f"{name}: {err}"


def test_backward_matches_the_tape_bitwise():
    # the tape's sum_sq adjoint is 2 * 1.0 * out, the g_out given here
    params, yn, yp, t_rows = _sum_sq_case(seed=11)
    grads = _backward_of_sum_sq(params, yn, yp, t_rows)
    tape = Tape()
    graph = DenoiserGraph(tape, params)
    out = graph.predict(tape.const(yn), tape.const(yp), np.array([1, 5, 9]), 10)
    assert out.value.tobytes() == params.forward(yn, yp, t_rows).out.tobytes()
    ref = tape.backward(tape.sum_sq(out))
    for name, var in graph.vars.items():
        assert grads[name].tobytes() == ref[var].tobytes(), name


def test_backward_writes_into_out_and_returns_it():
    params, yn, yp, t_rows = _sum_sq_case(seed=11)
    acts = params.forward(yn, yp, t_rows)
    fresh = params.backward(acts, 2.0 * acts.out)
    out = np.full(fresh.size, np.nan)
    assert params.backward(acts, 2.0 * acts.out, out) is out
    assert out.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("h", [2, 3, 4, 64])
@pytest.mark.parametrize("nb", [1, 2, 29, 32])
def test_repeated_time_rows_give_the_bits_of_every_row_given(nb, h):
    # a block of nb time rows shared by three blocks of inputs, as
    # batch_loss passes them, against the rows written out three times;
    # one row, or at most 3 hidden units, takes BLAS paths whose bits
    # depend on the row count
    params = make_params(k=6, h=h, d_att=4, t_dim=32, seed=nb + h)
    rng = np.random.default_rng(nb * h)
    rows = time_embed_batch(rng.integers(1, 101, size=nb), 100, 32)
    yn, yp = rng.standard_normal((2, 3 * nb, 6))
    shared = params.forward(yn, yp, rows, 3)
    written = params.forward(yn, yp, np.concatenate([rows] * 3))
    for field in dataclasses.fields(Activations):
        assert getattr(shared, field.name).tobytes() == \
            getattr(written, field.name).tobytes(), field.name


def test_predict_noise_permutation_equivariance():
    k = 4
    params = make_params(k=k, h=5, d_att=3, t_dim=4, seed=9)
    rng = np.random.default_rng(10)
    perm = np.array([2, 0, 3, 1])
    blocks = {n: a.copy() for n, a in params.blocks().items()}
    blocks["fuse_w"] = np.concatenate([blocks["fuse_w"][:k][perm],
                                       blocks["fuse_w"][k:][perm]])
    blocks["dec2_w"] = blocks["dec2_w"][:, perm]
    blocks["dec2_b"] = blocks["dec2_b"][:, perm]
    permuted = DenoiserParams(**blocks)

    rng.standard_normal(5)  # the former cond draw
    yn, yp = rng.standard_normal((1, k)), rng.dirichlet(np.ones(k), size=1)
    base = predict_noise(params, yn, yp, 6, 12)
    twisted = predict_noise(permuted, yn[:, perm], yp[:, perm], 6, 12)
    assert np.allclose(twisted, base[:, perm], rtol=0, atol=1e-12)


@pytest.mark.parametrize("T", [7, 100, 1000])
def test_time_rows_of_any_step_subset_equal_the_full_table_bitwise(T):
    # the sampler embeds only its visited steps
    from adpm.diffusion import sample_timesteps
    for dim in (2, 4, 16, 32):
        table = time_embed_batch(np.arange(T + 1), T, dim)
        for steps in range(1, min(T, 60) + 1):
            ts = sample_timesteps(T, steps)
            assert time_embed_batch(ts, T, dim).tobytes() == table[ts].tobytes(), (dim, steps)
