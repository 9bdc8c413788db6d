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

All layers are tanh-activated linear maps. Training builds them on the
autodiff tape (DenoiserGraph), so the full composition is differentiable
end to end; sampling needs no gradients and runs the same network as
plain numpy (DenoiserParams.apply), with no tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Var
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

    def apply(self, y_noisy: np.ndarray, y_prior: np.ndarray, t: int, T: int) -> np.ndarray:
        """Forward pass on (n, k) rows that share one step t; builds no tape.

        Computes what DenoiserGraph.predict computes. The time embedding
        is computed once and broadcast over the rows.
        """
        shape = (y_noisy.shape[0], self.k)
        if y_noisy.shape != shape or y_prior.shape != shape:
            raise ShapeError(f"y_noisy and y_prior must both have shape (n, {self.k}), "
                             f"got {y_noisy.shape} and {y_prior.shape}")
        fused = np.concatenate([y_noisy, y_prior], axis=1) @ self.fuse_w + self.fuse_b
        kv = np.tanh(fused @ self.enc_w + self.enc_b)
        att = (kv @ self.wv) @ self.wo
        temb = time_embed(t, T, self.t_emb_dim)[None, :] @ self.time_w + self.time_b
        h1 = np.tanh((att + temb) @ self.dec1_w + self.dec1_b + temb)
        return h1 @ self.dec2_w + self.dec2_b


class DenoiserGraph:
    """Tape subgraph evaluating the denoiser on a batch."""

    def __init__(self, tape: Tape, params: DenoiserParams):
        self.tape = tape
        self.params = params
        self.vars = {name: tape.param(arr) for name, arr in params.blocks().items()}

    def predict(self, y_noisy: Var, y_prior: Var, ts, T: int) -> Var:
        """Noise prediction for a batch, one step per row."""
        tape, vars = self.tape, self.vars
        fused = tape.affine(tape.concat_cols(y_noisy, y_prior), vars["fuse_w"],
                            vars["fuse_b"])
        kv = tape.tanh(tape.affine(fused, vars["enc_w"], vars["enc_b"]))
        att = tape.matmul(tape.matmul(kv, vars["wv"]), vars["wo"])
        temb = tape.affine(tape.const(time_embed_batch(ts, T, self.params.t_emb_dim)),
                           vars["time_w"], vars["time_b"])
        u = tape.add(att, temb)
        h1 = tape.tanh(tape.add(tape.affine(u, vars["dec1_w"], vars["dec1_b"]), temb))
        return tape.affine(h1, vars["dec2_w"], vars["dec2_b"])


def predict_noise(params: DenoiserParams, y_noisy, y_prior, t: int, T: int) -> np.ndarray:
    """Noise prediction at step t, without a tape.

    One input as 1-D arrays gives a 1-D result; (n, .) arrays give one
    row per input.
    """
    y_noisy = np.asarray(y_noisy, dtype=np.float64)
    out = params.apply(np.atleast_2d(y_noisy),
                       np.atleast_2d(np.asarray(y_prior, dtype=np.float64)), t, T)
    return out[0] if y_noisy.ndim == 1 else out
