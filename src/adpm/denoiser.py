"""The noise-prediction network.

Noisy label variables are concatenated with their prior, projected and
encoded, then fused with the conditioning features through a
single-token cross attention (one query from the feature encoder, one
key/value from the label embedding; with a single key the softmax
weight is exactly 1). A sinusoidal time embedding, passed through a
learned projection, is injected both after the attention and inside the
decoder, so the network can identify the noise magnitude at step t.

All layers are tanh-activated linear maps. Training builds them on the
autodiff tape (DenoiserGraph), so the full composition is differentiable
end to end; sampling needs no gradients and runs the same network as
plain numpy (DenoiserParams.apply), with no tape.
"""

from __future__ import annotations

import json
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
    wq: np.ndarray       # (h, d_att)
    wk: np.ndarray       # (h, d_att)
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
            self.wq.shape[0] == h and self.wk.shape == self.wq.shape
            and self.wv.shape == self.wq.shape,
            self.wo.shape == (self.wq.shape[1], h),
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
    def hidden(self) -> int:
        return self.fuse_w.shape[1]

    @property
    def t_emb_dim(self) -> int:
        return self.time_w.shape[0]

    @classmethod
    def init(cls, k: int, h: int, d_att: int, t_dim: int, rng) -> "DenoiserParams":
        def w(rows, cols):
            return rng.standard_normal((rows, cols)) / np.sqrt(rows)
        return cls(
            fuse_w=w(2 * k, h), fuse_b=np.zeros((1, h)),
            enc_w=w(h, h), enc_b=np.zeros((1, h)),
            wq=w(h, d_att), wk=w(h, d_att), wv=w(h, d_att), wo=w(d_att, h),
            time_w=w(t_dim, h), time_b=np.zeros((1, h)),
            dec1_w=w(h, h), dec1_b=np.zeros((1, h)),
            dec2_w=w(h, k), dec2_b=np.zeros((1, k)),
        )

    def blocks(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in (
            "fuse_w", "fuse_b", "enc_w", "enc_b", "wq", "wk", "wv", "wo",
            "time_w", "time_b", "dec1_w", "dec1_b", "dec2_w", "dec2_b")}

    def copy(self) -> "DenoiserParams":
        return DenoiserParams(**{k: v.copy() for k, v in self.blocks().items()})

    def apply(self, cond: np.ndarray, y_noisy: np.ndarray, y_prior: np.ndarray,
              t: int, T: int) -> np.ndarray:
        """Forward pass on (n, .) rows that share one step t; builds no tape.

        Computes what DenoiserGraph.predict computes. The q/k projections
        are dropped: each row attends to its single key, whose softmax
        weight is exactly 1, so the attention output is exactly
        (kv @ wv) @ wo. The time embedding is computed once and broadcast
        over the rows. cond enters only through the dropped query, so it
        does not change the output; its shape is still checked.
        """
        if cond.shape != (y_noisy.shape[0], self.hidden):
            raise ShapeError(f"cond must have shape ({y_noisy.shape[0]}, {self.hidden}), "
                             f"got {cond.shape}")
        fused = np.concatenate([y_noisy, y_prior], axis=1) @ self.fuse_w + self.fuse_b
        kv = np.tanh(fused @ self.enc_w + self.enc_b)
        att = (kv @ self.wv) @ self.wo
        temb = time_embed(t, T, self.t_emb_dim)[None, :] @ self.time_w + self.time_b
        h1 = np.tanh((att + temb) @ self.dec1_w + self.dec1_b + temb)
        return h1 @ self.dec2_w + self.dec2_b


def cross_attention(tape: Tape, q_src: Var, kv_src: Var, vars: dict[str, Var]) -> Var:
    """Full cross attention: softmax(Q K^T / sqrt(d_att)) V, then W_O.

    q_src rows are query tokens, kv_src rows key/value tokens. With a
    single key token the softmax weight is exactly 1 and the output is
    the single value row mapped through W_O.
    """
    d_att = vars["wq"].shape[1]
    q = tape.matmul(q_src, vars["wq"])
    k = tape.matmul(kv_src, vars["wk"])
    v = tape.matmul(kv_src, vars["wv"])
    scores = tape.scale(tape.matmul(q, k, trans_b=True), 1.0 / np.sqrt(d_att))
    weights = tape.softmax_rows(scores)
    return tape.matmul(tape.matmul(weights, v), vars["wo"])


def _paired_attention(tape: Tape, q_src: Var, kv_src: Var, vars: dict[str, Var]) -> Var:
    """Row-paired attention: sample i attends to its own single token.

    The per-row softmax over one key is exactly 1, so the mix equals V
    row-for-row; queries and keys stay on the tape with an exactly zero
    gradient.
    """
    d_att = vars["wq"].shape[1]
    n = q_src.shape[0]
    q = tape.matmul(q_src, vars["wq"])
    k = tape.matmul(kv_src, vars["wk"])
    v = tape.matmul(kv_src, vars["wv"])
    ones_col = tape.const(np.ones((d_att, 1)))
    scores = tape.scale(tape.matmul(tape.mul(q, k), ones_col), 1.0 / np.sqrt(d_att))
    weights = tape.softmax_rows(scores)  # (n, 1), identically 1
    spread = tape.matmul(weights, tape.const(np.ones((1, d_att))))
    return tape.matmul(tape.mul(spread, v), vars["wo"])


class DenoiserGraph:
    """Tape subgraph evaluating the denoiser on a batch."""

    def __init__(self, tape: Tape, params: DenoiserParams):
        self.tape = tape
        self.params = params
        self.vars = {name: tape.param(arr) for name, arr in params.blocks().items()}

    def predict(self, cond: Var, y_noisy: Var, y_prior: Var, ts, T: int) -> Var:
        tape, vars = self.tape, self.vars
        n = cond.shape[0]
        fused = tape.add(
            tape.matmul(tape.concat_cols(y_noisy, y_prior), vars["fuse_w"]),
            self._bias(n, vars["fuse_b"]))
        kv = tape.tanh(tape.add(tape.matmul(fused, vars["enc_w"]),
                                self._bias(n, vars["enc_b"])))
        att = _paired_attention(tape, cond, kv, vars)
        temb = tape.add(
            tape.matmul(tape.const(time_embed_batch(ts, T, self.params.t_emb_dim)),
                        vars["time_w"]),
            self._bias(n, vars["time_b"]))
        u = tape.add(att, temb)
        h1 = tape.tanh(tape.add(
            tape.add(tape.matmul(u, vars["dec1_w"]), self._bias(n, vars["dec1_b"])),
            temb))
        return tape.add(tape.matmul(h1, vars["dec2_w"]), self._bias(n, vars["dec2_b"]))

    def _bias(self, rows: int, b: Var) -> Var:
        return self.tape.matmul(self.tape.const(np.ones((rows, 1))), b)


def predict_noise(params: DenoiserParams, cond, y_noisy, y_prior, t: int, T: int) -> np.ndarray:
    """Noise prediction at step t, without a tape.

    One input as 1-D arrays gives a 1-D result; (n, .) arrays give one
    row per input.
    """
    y_noisy = np.asarray(y_noisy, dtype=np.float64)
    out = params.apply(np.atleast_2d(np.asarray(cond, dtype=np.float64)),
                       np.atleast_2d(y_noisy),
                       np.atleast_2d(np.asarray(y_prior, dtype=np.float64)), t, T)
    return out[0] if y_noisy.ndim == 1 else out


CHECKPOINT_VERSION = 1


def blocks_to_jsonable(blocks: dict[str, np.ndarray]) -> dict:
    """Shape plus row-major float list per block; floats round-trip exactly."""
    return {name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in blocks.items()}


def blocks_from_jsonable(obj: dict) -> dict[str, np.ndarray]:
    out = {}
    for name, entry in obj.items():
        out[name] = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
    return out


def save_denoiser(params: DenoiserParams, path) -> None:
    payload = {"version": CHECKPOINT_VERSION, "blocks": blocks_to_jsonable(params.blocks())}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_denoiser(path) -> DenoiserParams:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if "version" not in payload:
        raise ConfigError(f"{path}: checkpoint missing version field")
    return DenoiserParams(**blocks_from_jsonable(payload["blocks"]))
