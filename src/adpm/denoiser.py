"""The noise-prediction network.

Noisy label variables are concatenated with their prior, projected and
encoded into one token per sample. The attention block maps that token
through its value and output projections, (kv @ wv) @ wo: each sample
attends only to its own single token, and a softmax over one key is
exactly 1, so no query or key projection is needed. A sinusoidal time
embedding, passed through a learned projection, is injected both after
the attention and inside the decoder, so the network can identify the
noise magnitude at step t. The input features do not enter the network:
it sees an input only through its prior.

All layers are tanh-activated linear maps, run as plain numpy. The
forward pass (DenoiserParams.forward) concatenates the noisy labels with
their priors and projects the time rows (project_time), then runs the
trunk on both. Training runs forward, keeps the activations and takes
the gradient with the hand-derived backward pass
(DenoiserParams.backward). No autodiff tape is built.

Two chains of the trunk have no nonlinearity inside them, fuse -> enc
and wv -> wo -> dec1, so at inference each runs as one product of
weights. DenoiserParams.fold multiplies them out once per sampler call,
and FoldedTrunk.step then predicts the noise of x at the i-th visited
step with three products:

    kv = tanh(x @ W_in + b_in),  h1 = tanh(kv @ W_mid + r_i),
    eps = h1 @ dec2_w + dec2_b,

where W_in = fuse_w @ enc_w, b_in = fuse_b @ enc_w + enc_b,
W_mid = wv @ wo @ dec1_w, and r_i = temb_i @ dec1_w + dec1_b + temb_i is
a step's row of one (S, h) table of the visited steps' time biases. The
step writes its three activations into arrays sized once per call, with
b_in and dec2_b tiled to the rows, so it allocates nothing. It is the
same function rounded in another order: on the desk and sample runs its
endpoints moved by at most about 1e-12 relative and no prediction
changed. Training keeps the unfolded trunk, since backward reads every
activation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import optim
from .errors import ConfigError, ShapeError


def time_embed(t: int, T: int, dim: int) -> np.ndarray:
    """Interleaved sin/cos embedding of step t at geometric frequencies."""
    return time_embed_batch(np.array([t]), T, dim)[0]


def time_embed_batch(ts, T: int, dim: int) -> np.ndarray:
    """Embeddings of the steps ts, one row each. Every entry is an
    elementwise function of its step, so a row is bitwise the same
    whichever other steps share the call."""
    if dim % 2 != 0 or dim < 2:
        raise ConfigError(f"time embedding dimension must be even, got {dim}")
    ts = np.asarray(ts, dtype=np.float64)
    if (ts < 0).any() or (ts > T).any():
        raise ConfigError(f"time steps must lie in [0, {T}]")
    half = dim // 2
    freqs = 10000.0 ** (-2.0 * np.arange(half) / dim)
    angles = ts[:, None] * freqs[None, :]
    out = np.empty((ts.size, dim))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


@dataclass
class DenoiserParams(optim.BlockTable):
    """All trainable blocks of the noise-prediction network, laid out by
    shapes()."""

    fuse_w: np.ndarray   # (2k, h)   label/prior concat -> latent
    fuse_b: np.ndarray   # (1, h)
    enc_w: np.ndarray    # (h, h)    latent encoder
    enc_b: np.ndarray    # (1, h)
    wv: np.ndarray       # (h, d_att)
    wo: np.ndarray       # (d_att, h)
    time_w: np.ndarray   # (t_dim, h)
    time_b: np.ndarray   # (1, h)
    dec1_w: np.ndarray   # (h, h)
    dec1_b: np.ndarray   # (1, h)
    dec2_w: np.ndarray   # (h, k)
    dec2_b: np.ndarray   # (1, k)

    @property
    def k(self) -> int:
        return self.dec2_w.shape[1]

    @property
    def t_emb_dim(self) -> int:
        return self.time_w.shape[0]

    @staticmethod
    def shapes(k: int, h: int, d_att: int, t_dim: int) -> dict[str, tuple[int, int]]:
        """Block name -> shape, in blocks() order."""
        return {"fuse_w": (2 * k, h), "fuse_b": (1, h), "enc_w": (h, h), "enc_b": (1, h),
                "wv": (h, d_att), "wo": (d_att, h), "time_w": (t_dim, h), "time_b": (1, h),
                "dec1_w": (h, h), "dec1_b": (1, h), "dec2_w": (h, k), "dec2_b": (1, k)}

    def dims(self) -> tuple[int, int, int, int]:
        """(k, h, d_att, t_dim), as the blocks give them."""
        return (self.dec2_w.shape[-1], self.fuse_w.shape[-1], self.wv.shape[-1],
                self.time_w.shape[0])

    def forward(self, y_noisy: np.ndarray, y_prior: np.ndarray, t_rows: np.ndarray,
                repeats: int = 1) -> "Activations":
        """Forward pass on (n, k) rows, keeping what backward reads: the
        noisy rows beside their priors and the time rows, one per input,
        then the trunk.

        t_rows holds the rows' time embeddings: one row per input, a
        single row shared by all of them, or, with repeats > 1, one row
        per input of the first n / repeats, the inputs being repeats
        blocks that share their time rows. Such rows are projected once
        and the projection repeated, except where BLAS rounds a row by how
        many rows share its product: a block of one row, or a projection
        to at most 3 columns, projects every repeated row.
        """
        x = np.concatenate([y_noisy, y_prior], axis=1)
        if repeats == 1:
            return Activations(t_rows, x, *self.trunk(x, self.project_time(t_rows)))
        every = np.concatenate([t_rows] * repeats)
        if t_rows.shape[0] == 1 or self.time_w.shape[1] <= 3:
            temb = self.project_time(every)
        else:
            temb = np.concatenate([self.project_time(t_rows)] * repeats)
        return Activations(every, x, *self.trunk(x, temb))

    def project_time(self, t_rows: np.ndarray) -> np.ndarray:
        """Learned projection of time embeddings, t_rows @ time_w + time_b."""
        return t_rows @ self.time_w + self.time_b

    def trunk(self, x: np.ndarray, temb: np.ndarray) -> tuple:
        """The network after the time projection: x, the (n, 2k) rows of
        noisy labels beside their priors, and their projected time rows
        temb (n rows, or one shared row) give (fused, kv, kv_v, u, h1,
        out), out being the predicted noise; backward reads them all.

        Each activation is one product, then its adds and tanh in place.
        The shapes are not checked; predict_noise checks them.
        """
        fused = x @ self.fuse_w
        fused += self.fuse_b
        kv = fused @ self.enc_w
        kv += self.enc_b
        np.tanh(kv, out=kv)
        kv_v = kv @ self.wv
        u = kv_v @ self.wo
        u += temb
        h1 = u @ self.dec1_w
        h1 += self.dec1_b
        h1 += temb
        np.tanh(h1, out=h1)
        out = h1 @ self.dec2_w
        out += self.dec2_b
        return fused, kv, kv_v, u, h1, out

    def fold(self, t_rows: np.ndarray, n: int) -> "FoldedTrunk":
        """The trunk at inference on n rows at the S steps whose time
        embeddings are the rows of t_rows (S, t_dim), with its two linear
        chains multiplied out once: fuse -> enc becomes one (2k, h) map
        and wv -> wo -> dec1 one (h, h) map, whose time bias is one row
        per step, temb @ dec1_w + dec1_b + temb. Each time row is
        projected and multiplied by dec1_w as a 1-row product, as
        predict_noise projects its step's row.
        """
        temb = self.project_time(t_rows[:, None, :])
        r = temb @ self.dec1_w
        r += self.dec1_b
        r += temb
        b_in = self.fuse_b @ self.enc_w
        b_in += self.enc_b
        k, h, _, _ = self.dims()
        return FoldedTrunk(w_in=self.fuse_w @ self.enc_w, b_in=np.tile(b_in, (n, 1)),
                           w_mid=self.wv @ self.wo @ self.dec1_w, r=r[:, 0, :],
                           w_out=self.dec2_w, b_out=np.tile(self.dec2_b, (n, 1)),
                           acts=(np.empty((n, h)), np.empty((n, h)), np.empty((n, k))))

    def backward(self, acts: "Activations", g_out: np.ndarray,
                 out: np.ndarray | None = None,
                 grads: dict[str, np.ndarray] | None = None) -> np.ndarray:
        """Gradient of a scalar loss whose gradient in forward's output is
        g_out, as one vector holding the blocks in blocks() order: out, a
        float64 vector of that length, when given, else a new one. grads
        is out's blocks as views(out) names them, for a caller that keeps
        them with out; they are built here when not given.

        t_rows must hold one row per input. Each adjoint is the expression,
        in the order, that a reverse-mode tape over forward's ops computes:
        a weight's adjoint is inputs.T @ g, a bias's is ones(n, 1).T @ g,
        and temb's two uses are added decoder-first.
        """
        n = g_out.shape[0]
        ones_t = np.ones((n, 1)).T
        if out is None:
            out = np.empty(sum(arr.size for arr in self.blocks().values()))
        if grads is None:
            grads = self.views(out)

        def affine(g, x, name):
            np.matmul(x.T, g, out=grads[f"{name}_w"])
            np.matmul(ones_t, g, out=grads[f"{name}_b"])

        affine(g_out, acts.h1, "dec2")
        g_pre = (g_out @ self.dec2_w.T) * (1.0 - acts.h1 ** 2)
        affine(g_pre, acts.u, "dec1")
        g_u = g_pre @ self.dec1_w.T
        affine(g_pre + g_u, acts.t_rows, "time")
        np.matmul(acts.kv_v.T, g_u, out=grads["wo"])
        g_kv_v = g_u @ self.wo.T
        np.matmul(acts.kv.T, g_kv_v, out=grads["wv"])
        g_enc = (g_kv_v @ self.wv.T) * (1.0 - acts.kv ** 2)
        affine(g_enc, acts.fused, "enc")
        affine(g_enc @ self.enc_w.T, acts.x, "fuse")
        return out


@dataclass(frozen=True)
class FoldedTrunk:
    """The trunk at inference on n rows at S visited steps, as
    DenoiserParams.fold builds it: the folded maps, the biases tiled to n
    rows and the activations every step writes into."""

    w_in: np.ndarray    # (2k, h)  fuse_w @ enc_w
    b_in: np.ndarray    # (n, h)   fuse_b @ enc_w + enc_b, tiled
    w_mid: np.ndarray   # (h, h)   wv @ wo @ dec1_w
    r: np.ndarray       # (S, h)   temb @ dec1_w + dec1_b + temb, one row per step
    w_out: np.ndarray   # (h, k)   dec2_w
    b_out: np.ndarray   # (n, k)   dec2_b, tiled
    acts: tuple[np.ndarray, ...]  # kv (n, h), h1 (n, h), eps (n, k)

    def step(self, x: np.ndarray, i: int) -> np.ndarray:
        """The predicted noise of the (n, 2k) rows x at the i-th step, as
        three products, kv = tanh(x @ w_in + b_in), h1 = tanh(kv @ w_mid
        + r[i]) and h1 @ w_out + b_out, each written with its adds and
        tanh into acts; the returned array is acts' last, overwritten by
        the next step."""
        kv, h1, eps = self.acts
        np.matmul(x, self.w_in, out=kv)
        kv += self.b_in
        np.tanh(kv, out=kv)
        np.matmul(kv, self.w_mid, out=h1)
        h1 += self.r[i]
        np.tanh(h1, out=h1)
        np.matmul(h1, self.w_out, out=eps)
        eps += self.b_out
        return eps


@dataclass
class Activations:
    """Values of one forward pass that its backward pass reads."""

    t_rows: np.ndarray  # (n or 1, t_dim) time embeddings
    x: np.ndarray       # (n, 2k)   noisy labels beside their priors
    fused: np.ndarray   # (n, h)
    kv: np.ndarray      # (n, h)    encoded token
    kv_v: np.ndarray    # (n, d_att) its value projection
    u: np.ndarray       # (n, h)    attention output plus time projection
    h1: np.ndarray      # (n, h)    decoder hidden layer
    out: np.ndarray     # (n, k)    predicted noise


def predict_noise(params: DenoiserParams, y_noisy, y_prior, t: int, T: int) -> np.ndarray:
    """Noise prediction at step t, shared by all rows: (n, k) noisy labels
    and their (n, k) priors give one (n, k) row per input."""
    noisy = np.asarray(y_noisy, dtype=np.float64)
    prior = np.asarray(y_prior, dtype=np.float64)
    if noisy.ndim != 2 or noisy.shape[1] != params.k or prior.shape != noisy.shape:
        raise ShapeError(f"y_noisy and y_prior must both have shape (n, {params.k}), "
                         f"got {noisy.shape} and {prior.shape}")
    return params.forward(noisy, prior, time_embed(t, T, params.t_emb_dim)[None, :]).out
