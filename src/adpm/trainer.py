"""Joint training loop: prior warmup, anisotropic noising, three-branch loss.

Every batch draws one timestep per sample and, per branch (global,
local, fused), an independent Gaussian noise batch. Each branch's draw
is corrupted with the true class's noise level and the branch's own
prior. The three corrupted batches are stacked into one batch of three
times the rows and pushed through the shared denoiser in one pass; its
output is split back into the branches and scored: MMD against the true
noise for the global and local branches, mean squared error for the
fused branch. Gradients flow into the denoiser and the prior
network. batch_loss builds the library's only autodiff tape; warmup
and inference run their forward passes as plain numpy. A step whose
loss is not finite stops training with a ConfigError.

Reproducibility contract: all stochasticity of epoch e comes from a
stream keyed by (seed, 2, e): first the shuffle permutation, then per
batch the timesteps and the three noise batches in branch order g, l,
f. Resuming from a checkpoint therefore reproduces an uninterrupted
run bitwise. Initialization has its own stream, (seed, 0); init_model
gives its draw order.
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import optim
from .autodiff import Tape, scalar
from .data import DatasetTable
from .denoiser import DenoiserGraph, DenoiserParams
from .errors import ConfigError
from .losses import (KernelConfig, LossReport, eps_loss_graph, mmd_loss_graph,
                     total_loss_graph)
from .priors import PriorGraph, PriorNetParams, warmup_train
from .schedule import (ClassCensus, NoiseLevelConfig, NoiseSchedule, build_schedule,
                       lambda_vector, linear_beta)

CHECKPOINT_VERSION = 1
# the query/key projections of the former single-key attention and the former
# feature encoder never got a gradient; checkpoints that still hold them load
# with them dropped
LEGACY_BLOCKS = ("denoiser.wq", "denoiser.wk", "encoder.w", "encoder.b")
_CHECKPOINT_FIELDS = ("version", "epoch", "counts", "config", "prior_mask_size",
                      "blocks", "prior_frozen", "optimizer")
BRANCHES = ("global", "local", "fused")


@dataclass
class TrainConfig:
    """Hyperparameters of one training run."""

    T: int = 1000
    sample_steps: int = 250
    beta1: float = 1e-4
    betaT: float = 0.02
    alpha: float = 1.0 / 6.0
    c: float = 5.0
    w: float = 0.5
    epochs: int = 300
    batch_size: int = 32
    learning_rate: float = 1e-3
    warmup_epochs: int = 15
    seed: int = 0
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    lr_warmup_frac: float = 0.1
    lambda_override: float | None = None
    hidden: int = 64
    attn_dim: int = 32
    time_dim: int = 32
    prior_hidden: int = 32
    prior_mask: int | None = None  # None: half the feature count
    kernel_bandwidth: float = 1.0
    kernel_bandwidth_mode: str = "fixed"
    checkpoint_every: int = 0  # epochs; 0 writes only at the end

    def __post_init__(self):
        if self.sample_steps > self.T:
            raise ConfigError(f"sample_steps {self.sample_steps} exceeds T {self.T}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0) \
                or self.batch_size < 1:
            raise ConfigError("learning_rate must be finite and positive and batch_size >= 1")
        if self.epochs < 0 or self.warmup_epochs < 0:
            raise ConfigError("epoch counts must be non-negative")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        for name in ("sample_steps", "hidden", "attn_dim", "time_dim", "prior_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.time_dim % 2:
            raise ConfigError(f"time_dim must be even, got {self.time_dim}")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if not (np.isfinite(self.w) and self.w > 0):
            raise ConfigError(f"w must be finite and positive, got {self.w}")
        self.kernel_cfg()  # rejects a bad kernel bandwidth or mode

    def noise_cfg(self) -> NoiseLevelConfig:
        return NoiseLevelConfig(alpha=self.alpha, c=self.c)

    def kernel_cfg(self) -> KernelConfig:
        return KernelConfig(bandwidth=self.kernel_bandwidth,
                            bandwidth_mode=self.kernel_bandwidth_mode)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        """Config from a JSON object that passes check_field_types."""
        check_field_types(cls, obj)
        return cls(**obj)


def check_field_types(cls, obj, what: str = "config") -> None:
    """Raise ConfigError unless obj is a dict whose keys are fields of the
    dataclass cls and whose values have their field's type.

    An int is accepted for a float field, and None only where the
    field's default is None.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} is not a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(obj) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in obj.items():
        field = fields[key]
        if value is None and field.default is None:
            continue
        # annotations are strings such as "float" or "int | None"
        typ = {"int": (int,), "float": (int, float), "str": (str,)}[
            field.type.split(" | ")[0]]
        if isinstance(value, bool) or not isinstance(value, typ):
            raise ConfigError(f"{what} key {key!r} must be of type {field.type}, "
                              f"got {value!r}")


@dataclass
class ModelParams:
    """The two trainable parameter sets of the full model."""

    prior: PriorNetParams
    denoiser: DenoiserParams

    def blocks(self) -> dict[str, np.ndarray]:
        out = {}
        for prefix, params in (("prior", self.prior), ("denoiser", self.denoiser)):
            for name, arr in params.blocks().items():
                out[f"{prefix}.{name}"] = arr
        return out

    def copy(self) -> "ModelParams":
        return ModelParams(self.prior.copy(), self.denoiser.copy())


@dataclass(frozen=True)
class BatchDraws:
    """Pre-drawn randomness for one batch: timesteps and per-branch noise."""

    t: np.ndarray                  # (nb,) ints in [1, T]
    eps: dict[str, np.ndarray]     # branch -> (nb, k)


@dataclass
class Checkpoint:
    model: ModelParams
    prior_frozen: PriorNetParams
    opt_state: dict
    config: TrainConfig
    epoch: int
    counts: tuple[int, ...]


def init_model(d: int, k: int, cfg: TrainConfig) -> ModelParams:
    """Seeded initialization from stream (seed, 0).

    Draw order: the prior net, one discarded (d, hidden) draw, then the
    denoiser. The discarded draw held the former feature encoder's
    weights; keeping it gives the denoiser the values it had when the
    encoder existed.
    """
    rng = np.random.default_rng([cfg.seed, 0])
    mask = cfg.prior_mask if cfg.prior_mask is not None else max(1, d // 2)
    prior = PriorNetParams.init(d, cfg.prior_hidden, k, mask, rng)
    rng.standard_normal((d, cfg.hidden))
    den = DenoiserParams.init(k, cfg.hidden, cfg.attn_dim, cfg.time_dim, rng)
    return ModelParams(prior, den)


def model_shapes(d: int, k: int, cfg: TrainConfig) -> dict[str, tuple[int, int]]:
    """Block name -> shape of init_model(d, k, cfg), in blocks() order,
    computed without drawing or allocating anything."""
    shapes = {f"prior.{name}": shape for name, shape in
              PriorNetParams.shapes(d, cfg.prior_hidden, k).items()}
    shapes.update({f"denoiser.{name}": shape for name, shape in DenoiserParams.shapes(
        k, cfg.hidden, cfg.attn_dim, cfg.time_dim).items()})
    return shapes


def training_census(table: DatasetTable) -> ClassCensus:
    """Census of the training labels; empty classes count as one sample."""
    counts = table.class_counts()
    if (counts == 0).any():
        empty = np.nonzero(counts == 0)[0].tolist()
        warnings.warn(f"training split has no samples for classes {empty}; "
                      f"their noise level uses count 1")
        counts = np.maximum(counts, 1)
    return ClassCensus(tuple(int(c) for c in counts))


def noise_schedule(counts, cfg: TrainConfig) -> NoiseSchedule:
    """cfg's schedule for a census of class counts: lambda_override for
    every class if set, else the census's anisotropic noise levels."""
    beta = linear_beta(cfg.T, cfg.beta1, cfg.betaT)
    if cfg.lambda_override is not None:
        lam = np.full(len(counts), float(cfg.lambda_override))
    else:
        lam = lambda_vector(ClassCensus(tuple(counts)), cfg.noise_cfg())
    return build_schedule(beta, lam)


def draw_batch_noise(rng, nb: int, k: int, T: int) -> BatchDraws:
    """Consume the epoch stream in the documented order."""
    t = rng.integers(1, T + 1, size=nb)
    eps = {branch: rng.standard_normal((nb, k)) for branch in BRANCHES}
    return BatchDraws(t=t, eps=eps)


def batch_loss(batch: DatasetTable, model: ModelParams, schedule: NoiseSchedule,
               cfg: TrainConfig, draws: BatchDraws) -> tuple[LossReport, dict]:
    """Evaluate the three-branch objective on one batch, with gradients
    for every parameter block."""
    nb = batch.n
    tape = Tape()
    x = tape.const(batch.features)
    prior_graph = PriorGraph(tape, model.prior, x)
    den_graph = DenoiserGraph(tape, model.denoiser)

    # the branches run as one stacked batch: row block i, rows i * nb to
    # (i + 1) * nb - 1, holds branch BRANCHES[i]
    gamma_t = schedule.gamma[batch.labels, draws.t]          # (nb,)
    root = np.sqrt(gamma_t)[:, None]
    noise_scale = np.sqrt(1.0 - gamma_t)[:, None]
    signal = tape.const(np.concatenate([root * batch.onehot + noise_scale * draws.eps[b]
                                        for b in BRANCHES]))
    prior_coef = tape.const(np.tile(1.0 - root, (len(BRANCHES), batch.k)))
    priors = tape.concat_rows(prior_graph.y_g, prior_graph.y_l, prior_graph.y_f)
    y_t = tape.add(signal, tape.mul(prior_coef, priors))
    stacked = den_graph.predict(y_t, priors, np.tile(draws.t, len(BRANCHES)), cfg.T)
    eps_hat = {b: tape.rows(stacked, i * nb, (i + 1) * nb) for i, b in enumerate(BRANCHES)}

    kernel = cfg.kernel_cfg()
    l_g = mmd_loss_graph(tape, tape.const(draws.eps["global"]), eps_hat["global"], kernel)
    l_l = mmd_loss_graph(tape, tape.const(draws.eps["local"]), eps_hat["local"], kernel)
    l_eps = eps_loss_graph(tape, tape.const(draws.eps["fused"]), eps_hat["fused"])
    l_total = total_loss_graph(tape, l_g, l_l, l_eps, cfg.w)

    report = LossReport(L_g=scalar(l_g), L_l=scalar(l_l), L_eps=scalar(l_eps),
                        L_total=scalar(l_total), w=cfg.w)
    grads_by_var = tape.backward(l_total)
    grads: dict[str, np.ndarray] = {}
    for prefix, graph_vars in (("prior", prior_graph.vars), ("denoiser", den_graph.vars)):
        for name, var in graph_vars.items():
            grads[f"{prefix}.{name}"] = grads_by_var[var]
    return report, grads


def fit(table: DatasetTable, cfg: TrainConfig, *, log_path=None,
        checkpoint_path=None, resume: Checkpoint | None = None) -> Checkpoint:
    """Warmup the prior net, then train all parameter sets jointly.

    The schedule is built (and its feasibility checked) before any
    parameter is touched. A frozen copy of the post-warmup prior net is
    kept for inference-time noise-level estimation.
    """
    counts = training_census(table).counts
    schedule = noise_schedule(counts, cfg)

    if resume is not None:
        model = resume.model.copy()
        prior_frozen = resume.prior_frozen.copy()
        start_epoch = resume.epoch
        opt = _make_opt(cfg)
        opt.load_state_dict(resume.opt_state)
    else:
        model = init_model(table.d, table.k, cfg)
        model.prior = warmup_train(model.prior, table, cfg.warmup_epochs,
                                   lr=cfg.learning_rate, optimizer=cfg.optimizer,
                                   batch_size=cfg.batch_size, seed=cfg.seed)
        prior_frozen = model.prior.copy()
        start_epoch = 0
        opt = _make_opt(cfg)

    blocks = model.blocks()
    n_batches = max(1, -(-table.n // cfg.batch_size))
    total_steps = max(1, cfg.epochs * n_batches)

    for epoch in range(start_epoch, cfg.epochs):
        rng = np.random.default_rng([cfg.seed, 2, epoch])
        order = rng.permutation(table.n)
        sums = np.zeros(4)
        batches = 0
        for start in range(0, table.n, cfg.batch_size):
            batch = table.take(order[start:start + cfg.batch_size])
            draws = draw_batch_noise(rng, batch.n, batch.k, cfg.T)
            with np.errstate(over="ignore", invalid="ignore"):
                # a non-finite loss is reported below, with its epoch and batch
                report, grads = batch_loss(batch, model, schedule, cfg, draws)
            if not np.isfinite(report.L_total):
                bad = [name for name, g in grads.items() if not np.isfinite(g).all()]
                raise ConfigError(
                    f"training diverged at epoch {epoch}, batch {batches}: L_total is "
                    f"{report.L_total}; first non-finite gradient block: "
                    f"{bad[0] if bad else 'none'}")
            lr = optim.lr_at(opt.step_count, total_steps, cfg.learning_rate,
                             cfg.lr_warmup_frac)
            opt.step(blocks, grads, lr=lr)
            sums += (report.L_g, report.L_l, report.L_eps, report.L_total)
            batches += 1
        if log_path is not None:
            record = {"epoch": epoch, "L_g": sums[0] / batches, "L_l": sums[1] / batches,
                      "L_eps": sums[2] / batches, "L_total": sums[3] / batches}
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
        done = epoch + 1
        if checkpoint_path is not None and cfg.checkpoint_every > 0 \
                and done % cfg.checkpoint_every == 0 and done < cfg.epochs:
            stem, ext = os.path.splitext(os.fspath(checkpoint_path))
            save_checkpoint(Checkpoint(model, prior_frozen, opt.state_dict(),
                                       cfg, done, counts), f"{stem}.epoch{done}{ext}")

    ckpt = Checkpoint(model=model, prior_frozen=prior_frozen,
                      opt_state=opt.state_dict(), config=cfg,
                      epoch=cfg.epochs, counts=counts)
    if checkpoint_path is not None:
        save_checkpoint(ckpt, checkpoint_path)
    return ckpt


def _make_opt(cfg: TrainConfig):
    return optim.make_optimizer(cfg.optimizer, cfg.learning_rate,
                                beta1=cfg.adam_beta1, beta2=cfg.adam_beta2,
                                eps=cfg.adam_eps)


def _blocks_to_jsonable(blocks: dict[str, np.ndarray], what: str) -> dict:
    """Shape plus row-major float list per block; floats round-trip exactly.
    Raises ConfigError naming the first block with a non-finite value."""
    _checked(blocks, {name: arr.shape for name, arr in blocks.items()}, what)
    return {name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in blocks.items()}


def _blocks_from_jsonable(obj) -> dict[str, np.ndarray]:
    if not isinstance(obj, dict):
        raise ConfigError("a block section is not a JSON object")
    out = {name: np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
           for name, entry in obj.items()}
    for name in LEGACY_BLOCKS:
        out.pop(name, None)
    return out


def _checked(blocks: dict[str, np.ndarray], shapes: dict[str, tuple],
             what: str) -> dict[str, np.ndarray]:
    """blocks, if they hold exactly the named shapes and only finite values."""
    for name in shapes:
        if name not in blocks:
            raise ConfigError(f"missing {what} {name!r}")
    for name, arr in blocks.items():
        if name not in shapes:
            raise ConfigError(f"unknown {what} {name!r}")
        if arr.shape != shapes[name]:
            raise ConfigError(f"{what} {name!r} has shape {arr.shape}, "
                              f"expected {shapes[name]}")
        if not np.isfinite(arr).all():
            raise ConfigError(f"{what} {name!r} holds a non-finite value")
    return blocks


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ckpt to path atomically.

    The JSON goes to a temporary file next to path, which is synced and
    then renamed over path, so a failed write leaves any existing file
    at path as it was and removes the temporary file. A block, frozen
    prior block or Adam moment holding a non-finite value raises
    ConfigError naming path, and nothing is written.
    """
    try:
        payload = {
            "version": CHECKPOINT_VERSION,
            "epoch": ckpt.epoch,
            "counts": list(ckpt.counts),
            "config": ckpt.config.to_dict(),
            "prior_mask_size": ckpt.model.prior.mask_size,
            "blocks": _blocks_to_jsonable(ckpt.model.blocks(), "block"),
            "prior_frozen": _blocks_to_jsonable(ckpt.prior_frozen.blocks(),
                                                "frozen prior block"),
            "optimizer": {
                "step_count": ckpt.opt_state["step_count"],
                "m": _blocks_to_jsonable(ckpt.opt_state.get("m", {}), "Adam moment m"),
                "v": _blocks_to_jsonable(ckpt.opt_state.get("v", {}), "Adam moment v"),
            },
        }
    except ConfigError as exc:
        raise ConfigError(f"{path}: not written: {exc}") from exc
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint.

    Raises ConfigError naming path unless the file is JSON of the current
    version with every field, holds every model block, frozen prior block
    and Adam moment in the shape its config and class counts imply, and
    holds only finite values. LEGACY_BLOCKS are ignored.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return _checkpoint_from(payload)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ConfigError(f"{path}: malformed checkpoint: {exc}") from exc


def _checkpoint_from(payload) -> Checkpoint:
    if not isinstance(payload, dict):
        raise ConfigError("checkpoint is not a JSON object")
    for key in _CHECKPOINT_FIELDS:
        if key not in payload:
            raise ConfigError(f"checkpoint missing field {key!r}")
    if payload["version"] != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {payload['version']!r}")
    cfg = TrainConfig.from_dict(payload["config"])
    counts = tuple(int(c) for c in payload["counts"])
    if not counts or min(counts) < 1:
        raise ConfigError(f"class counts must be positive, got {list(counts)}")
    mask = int(payload["prior_mask_size"])
    blocks = _blocks_from_jsonable(payload["blocks"])
    # the feature dimension is stored only as the first prior layer's rows
    w1 = blocks.get("prior.w1")
    if w1 is None or w1.ndim != 2:
        raise ConfigError("block 'prior.w1' is missing or not a matrix")
    shapes = model_shapes(w1.shape[0], len(counts), cfg)
    _checked(blocks, shapes, "block")
    prior_shapes = {name[len("prior."):]: shape for name, shape in shapes.items()
                    if name.startswith("prior.")}
    frozen = _checked(_blocks_from_jsonable(payload["prior_frozen"]), prior_shapes,
                      "frozen prior block")
    step_count = int(payload["optimizer"]["step_count"])
    moment_shapes = shapes if cfg.optimizer == "adam" and step_count > 0 else {}
    opt_state = {"step_count": step_count}
    for moment in ("m", "v"):
        state = _checked(_blocks_from_jsonable(payload["optimizer"][moment]),
                         moment_shapes, f"Adam moment {moment}")
        if cfg.optimizer == "adam":
            opt_state[moment] = state

    def group(prefix: str) -> dict[str, np.ndarray]:
        return {name[len(prefix) + 1:]: arr for name, arr in blocks.items()
                if name.startswith(prefix + ".")}

    model = ModelParams(
        prior=PriorNetParams(mask_size=mask, **group("prior")),
        denoiser=DenoiserParams(**group("denoiser")),
    )
    return Checkpoint(model=model, prior_frozen=PriorNetParams(mask_size=mask, **frozen),
                      opt_state=opt_state, config=cfg, epoch=int(payload["epoch"]),
                      counts=counts)
