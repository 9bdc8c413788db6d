"""The deterministic reverse sampler written out step by step, as a test
oracle.

Each chain starts at its prior y_f and takes the reverse update with no
sigma z term. At every step it computes the time embedding, folds the
denoiser's linear chains fuse -> enc and wv -> wo -> dec1 into single
maps, runs the folded network with allocating operations, and recomputes
the update's coefficients from the gamma rows. Tests pin the library's
sample to it bitwise. Passing predict=adpm.denoiser.predict_noise runs
the same chains through the unfolded network, as it is trained.
"""

import numpy as np

from adpm.denoiser import time_embed
from adpm.diffusion import sample_timesteps


def predict_noise(params, y_noisy, y_prior, t, T):
    """Noise prediction for (n, k) rows that share step t, with fuse -> enc
    and wv -> wo -> dec1 each multiplied out into one map."""
    t_row = time_embed(t, T, params.t_emb_dim)[None, :]
    w_in = params.fuse_w @ params.enc_w
    b_in = params.fuse_b @ params.enc_w + params.enc_b
    w_mid = params.wv @ params.wo @ params.dec1_w
    temb = t_row @ params.time_w + params.time_b
    r = temb @ params.dec1_w + params.dec1_b + temb
    x = np.concatenate([y_noisy, y_prior], axis=1)
    kv = np.tanh(x @ w_in + b_in)
    h1 = np.tanh(kv @ w_mid + r)
    return h1 @ params.dec2_w + params.dec2_b


def reverse_step(schedule, lam, t, y_t, y_f, eps_hat, gamma_rows):
    """One noise-free update of (n, k) states, lam (n,) and gamma_rows
    (n, T+1)."""
    lam = lam[:, None]
    beta_t = schedule.beta[t - 1]
    xi = 1.0 - gamma_rows[:, t, None]
    assert not (xi == 0.0).any()
    zeta = np.sqrt(1.0 - lam * beta_t)
    drift = y_t - ((xi - zeta) / xi) * y_f - (lam * beta_t / np.sqrt(xi)) * eps_hat
    return drift / zeta


def sample(schedule, params, y_f, lam, steps, predict=predict_noise):
    """Endpoints (n, k) and trace [(t, (n, k) states)] of the chains that
    start at the rows of y_f, row r at level lam[r], each step's noise
    predicted by predict(params, y, y_f, t, T)."""
    y_f = np.atleast_2d(np.asarray(y_f, dtype=np.float64))
    n = y_f.shape[0]
    T = schedule.T
    lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), (n,))
    gamma_rows = np.array([schedule.gamma_for(v) for v in lam]).reshape(n, T + 1)
    y = y_f
    trace = [(T, y)]
    for t in sample_timesteps(T, steps):
        eps_hat = predict(params, y, y_f, int(t), T)
        y = reverse_step(schedule, lam, int(t), y, y_f, eps_hat, gamma_rows)
        trace.append((int(t) - 1, y))
    return y, trace


def assert_tracks(got, want, rel=1e-12):
    """Each row of got within rel of want's row, by their largest entries,
    and the same class ranked first."""
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert (np.abs(got - want) <= rel * scale).all(), np.max(np.abs(got - want) / scale)
    assert np.array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))
