"""The reverse sampler written out step by step, as a test oracle.

At every step it computes the time embedding, runs the denoiser's whole
forward pass and recomputes the update's coefficients from the gamma
rows, the way the library's sampler did before it built its coefficient
table once per call. Tests pin the library's sample to it bitwise.
"""

import numpy as np

from adpm.denoiser import time_embed
from adpm.diffusion import sample_timesteps


def predict_noise(params, y_noisy, y_prior, t, T):
    """Noise prediction for (n, k) rows that share step t."""
    t_row = time_embed(t, T, params.t_emb_dim)[None, :]
    x = np.concatenate([y_noisy, y_prior], axis=1)
    fused = x @ params.fuse_w + params.fuse_b
    kv = np.tanh(fused @ params.enc_w + params.enc_b)
    kv_v = kv @ params.wv
    temb = t_row @ params.time_w + params.time_b
    u = kv_v @ params.wo + temb
    h1 = np.tanh(u @ params.dec1_w + params.dec1_b + temb)
    return h1 @ params.dec2_w + params.dec2_b


def reverse_step(schedule, lam, t, y_t, y_f, eps_hat, z, gamma_rows):
    """One update of (n, k) states, lam (n,) and gamma_rows (n, T+1)."""
    lam = lam[:, None]
    beta_t = schedule.beta[t - 1]
    xi = 1.0 - gamma_rows[:, t, None]
    assert not (xi == 0.0).any()
    zeta = np.sqrt(1.0 - lam * beta_t)
    sigma = np.sqrt(lam * beta_t * (1.0 - gamma_rows[:, t - 1, None]) / xi)
    drift = y_t - ((xi - zeta) / xi) * y_f - (lam * beta_t / np.sqrt(xi)) * eps_hat
    return drift / zeta + sigma * z


def sample(schedule, params, y_f, lam, rngs, steps):
    """Endpoints (n, k) and trace [(t, (n, k) states)] of the chains that
    start at the rows of y_f, row r at level lam[r] on generator rngs[r]
    (one k-vector for y^T, then one per step)."""
    y_f = np.atleast_2d(np.asarray(y_f, dtype=np.float64))
    n, k = y_f.shape
    T = schedule.T
    lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), (n,))
    gamma_rows = np.array([schedule.gamma_for(v) for v in lam]).reshape(n, T + 1)
    ts = sample_timesteps(T, steps)
    noise = np.empty((ts.size + 1, n, k))
    for r, g in enumerate(rngs):
        noise[:, r] = g.standard_normal((ts.size + 1, k))
    y = y_f + noise[0]
    trace = [(T, y)]
    for i, t in enumerate(ts, start=1):
        eps_hat = predict_noise(params, y, y_f, int(t), T)
        y = reverse_step(schedule, lam, int(t), y, y_f, eps_hat, noise[i], gamma_rows)
        trace.append((int(t) - 1, y))
    return y, trace
