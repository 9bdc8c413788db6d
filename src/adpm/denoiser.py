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
forward pass (DenoiserParams.forward) is the time projection
(project_time) followed by the trunk, which takes the projected rows.
Training runs both, keeps the activations and takes the gradient with
the hand-derived backward pass (DenoiserParams.backward). The reverse
sampler projects the time rows of its visited steps once per call and
runs only the trunk at each step. No autodiff tape is built.
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
class DenoiserParams:
    """All trainable blocks of the noise-prediction network."""

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

    def __post_init__(self):
        h = self.fuse_w.shape[1]
        checks = [
            self.enc_w.shape == (h, h),
            self.wv.shape[0] == h,
            self.wo.shape == (self.wv.shape[1], h),
            self.time_w.shape[1] == h,
            self.dec1_w.shape == (h, h),
            self.dec2_w.shape[0] == h,
        ]
        if not all(checks):
            raise ShapeError("denoiser parameter blocks are mutually inconsistent")
        if self.time_w.shape[0] % 2 != 0:
            raise ConfigError(f"time embedding dimension must be even, got {self.time_w.shape[0]}")

    @property
    def k(self) -> int:
        return self.dec2_w.shape[1]

    @property
    def t_emb_dim(self) -> int:
        return self.time_w.shape[0]

    @staticmethod
    def shapes(k: int, h: int, d_att: int, t_dim: int) -> dict[str, tuple[int, int]]:
        """Block name -> shape, in blocks() order; init draws every block
        in this shape."""
        return {"fuse_w": (2 * k, h), "fuse_b": (1, h), "enc_w": (h, h), "enc_b": (1, h),
                "wv": (h, d_att), "wo": (d_att, h), "time_w": (t_dim, h), "time_b": (1, h),
                "dec1_w": (h, h), "dec1_b": (1, h), "dec2_w": (h, k), "dec2_b": (1, k)}

    @classmethod
    def init(cls, k: int, h: int, d_att: int, t_dim: int, rng) -> "DenoiserParams":
        s = cls.shapes(k, h, d_att, t_dim)

        def w(name):
            return rng.standard_normal(s[name]) / np.sqrt(s[name][0])
        fuse_w, enc_w = w("fuse_w"), w("enc_w")
        # two (h, d_att) draws of the former query/key projections are
        # discarded so every later block keeps its seeded values
        w("wv"), w("wv")
        return cls(
            fuse_w=fuse_w, fuse_b=np.zeros(s["fuse_b"]),
            enc_w=enc_w, enc_b=np.zeros(s["enc_b"]),
            wv=w("wv"), wo=w("wo"),
            time_w=w("time_w"), time_b=np.zeros(s["time_b"]),
            dec1_w=w("dec1_w"), dec1_b=np.zeros(s["dec1_b"]),
            dec2_w=w("dec2_w"), dec2_b=np.zeros(s["dec2_b"]),
        )

    def blocks(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in (
            "fuse_w", "fuse_b", "enc_w", "enc_b", "wv", "wo",
            "time_w", "time_b", "dec1_w", "dec1_b", "dec2_w", "dec2_b")}

    def copy(self) -> "DenoiserParams":
        return DenoiserParams(**{k: v.copy() for k, v in self.blocks().items()})

    def forward(self, y_noisy: np.ndarray, y_prior: np.ndarray,
                t_rows: np.ndarray) -> "Activations":
        """Forward pass on (n, k) rows, keeping what backward reads: the
        time projection of t_rows, then the trunk.

        t_rows holds the rows' time embeddings, one row per input or a
        single row shared by all of them.
        """
        return Activations(t_rows, *self.trunk(y_noisy, y_prior, self.project_time(t_rows)))

    def project_time(self, t_rows: np.ndarray) -> np.ndarray:
        """Learned projection of time embeddings, t_rows @ time_w + time_b."""
        return t_rows @ self.time_w + self.time_b

    def trunk(self, y_noisy: np.ndarray, y_prior: np.ndarray, temb: np.ndarray) -> tuple:
        """The network after the time projection: (n, k) rows and their
        projected time rows temb (n rows, or one shared row) give
        (x, fused, kv, kv_v, u, h1, out), out being the predicted noise.

        The shapes are not checked; predict_noise and sample check them.
        """
        x = np.concatenate([y_noisy, y_prior], axis=1)
        fused = x @ self.fuse_w + self.fuse_b
        kv = np.tanh(fused @ self.enc_w + self.enc_b)
        kv_v = kv @ self.wv
        u = kv_v @ self.wo + temb
        h1 = np.tanh(u @ self.dec1_w + self.dec1_b + temb)
        return x, fused, kv, kv_v, u, h1, h1 @ self.dec2_w + self.dec2_b

    def backward(self, acts: "Activations", g_out: np.ndarray) -> np.ndarray:
        """Gradient of a scalar loss whose gradient in forward's output is
        g_out, as one vector holding the blocks in blocks() order.

        t_rows must hold one row per input. Each adjoint is the expression,
        in the order, that a reverse-mode tape over forward's ops computes:
        a weight's adjoint is inputs.T @ g, a bias's is ones(n, 1).T @ g,
        and temb's two uses are added decoder-first.
        """
        n = g_out.shape[0]
        ones_t = np.ones((n, 1)).T
        blocks = self.blocks()
        flat = np.empty(sum(arr.size for arr in blocks.values()))
        grads = optim.unflatten(flat, {name: arr.shape for name, arr in blocks.items()})

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
        return flat


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
    """Noise prediction at step t, shared by all rows.

    One input as 1-D arrays gives a 1-D result; (n, .) arrays give one
    row per input.
    """
    y_noisy = np.asarray(y_noisy, dtype=np.float64)
    noisy = np.atleast_2d(y_noisy)
    prior = np.atleast_2d(np.asarray(y_prior, dtype=np.float64))
    shape = (noisy.shape[0], params.k)
    if noisy.shape != shape or prior.shape != shape:
        raise ShapeError(f"y_noisy and y_prior must both have shape (n, {params.k}), "
                         f"got {noisy.shape} and {prior.shape}")
    out = params.forward(noisy, prior, time_embed(t, T, params.t_emb_dim)[None, :]).out
    return out[0] if y_noisy.ndim == 1 else out
