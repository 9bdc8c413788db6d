"""Training loop: prior warmup, then the denoiser on anisotropic noising.

fit first pretrains the prior network with cross entropy
(priors.warmup_train) and then freezes it, as CARD does with its prior
f_phi. fit then computes two tables once (fit_tables): the global,
local and fused priors of every training row, and the time embedding of
every step 0..T; each batch gathers its rows from them. Every batch
draws one timestep per sample and, per branch (global, local, fused),
an independent Gaussian noise batch. Each branch's draw is corrupted
with the true class's noise level and the branch's own prior. The three
corrupted batches are stacked into one batch of three times the rows
and pushed through the shared denoiser in one pass; its output is split
back into the branches and scored: MMD against the true noise for the
global and local branches, mean squared error for the fused branch.

batch_loss runs as plain numpy: the denoiser's forward pass keeps its
activations, and a hand-derived backward pass through the losses and
the denoiser gives the gradient of the 12 denoiser blocks. No library
path builds an autodiff tape. The denoiser's blocks, their gradient and
Adam's moments are each one float64 vector (the blocks are views into
theirs), so one optimizer pass updates them all. A step whose loss is
not finite stops training with a ConfigError.

Reproducibility contract: all stochasticity of epoch e comes from a
stream keyed by (seed, 2, e): first the shuffle permutation, then per
batch the timesteps and the three noise batches in branch order g, l,
f. Resuming from a checkpoint therefore reproduces an uninterrupted
run bitwise. Initialization has its own stream, (seed, 0); init_model
gives its draw order.

A checkpoint (version 2) holds the one prior network, the denoiser,
Adam's moments of the denoiser blocks, the config and the training
census. A version-1 file held a second, jointly trained copy of the
prior; it loads with its post-warmup "prior_frozen" section as the
prior and its jointly trained prior blocks and their moments dropped.
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import optim
from .data import DatasetTable
from .denoiser import DenoiserParams, time_embed_batch
from .errors import ConfigError
from .losses import KernelConfig, LossReport, eps_loss, mmd_loss, total_loss
from .priors import PriorNetParams, prior_bundle, warmup_train
from .schedule import (ClassCensus, NoiseLevelConfig, NoiseSchedule, build_schedule,
                       lambda_vector, linear_beta)

CHECKPOINT_VERSION = 2
# the query/key projections of the former single-key attention and the former
# feature encoder never got a gradient; checkpoints that still hold them load
# with them dropped
LEGACY_BLOCKS = ("denoiser.wq", "denoiser.wk", "encoder.w", "encoder.b")
_CHECKPOINT_FIELDS = ("version", "epoch", "counts", "config", "prior_mask_size",
                      "blocks", "optimizer")
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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
        lam = self.lambda_override
        if lam is not None and not (np.isfinite(lam) and lam > 0):
            raise ConfigError(f"lambda_override must be finite and positive, got {lam}")
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
    """The prior network, frozen after warmup, and the trained denoiser."""

    prior: PriorNetParams
    denoiser: DenoiserParams

    def blocks(self) -> dict[str, np.ndarray]:
        return {**{f"prior.{name}": arr for name, arr in self.prior.blocks().items()},
                **self.denoiser_blocks()}

    def denoiser_blocks(self) -> dict[str, np.ndarray]:
        """The blocks fit trains, named as in blocks()."""
        return {f"denoiser.{name}": arr for name, arr in self.denoiser.blocks().items()}

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
    opt_state: dict
    config: TrainConfig
    epoch: int
    counts: tuple[int, ...]

    @property
    def prior_frozen(self) -> PriorNetParams:
        """model.prior, under the name perfbench/workloads.py still reads."""
        return self.model.prior


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


def fit_tables(prior: PriorNetParams, table: DatasetTable, T: int,
               time_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """What fit computes once, after warmup: the frozen prior's global,
    local and fused priors of every row of table, stacked as (3, n, k) in
    BRANCHES order, and the (T + 1, time_dim) time embeddings of steps
    0..T."""
    bundle = prior_bundle(prior, table.features)
    return (np.stack([bundle.y_g, bundle.y_l, bundle.y_f]),
            time_embed_batch(np.arange(T + 1), T, time_dim))


def batch_loss(batch: DatasetTable, priors: np.ndarray, t_table: np.ndarray,
               model: ModelParams, schedule: NoiseSchedule, cfg: TrainConfig,
               draws: BatchDraws) -> tuple[LossReport, np.ndarray]:
    """Evaluate the three-branch objective on one batch, and its gradient
    in the denoiser blocks as one vector in model.denoiser_blocks() order
    (named_views names its blocks).

    priors holds the batch rows of fit_tables' priors, (3, nb, k), and
    t_table is fit_tables' time embedding table; both enter as constants.
    """
    nb, k = batch.n, batch.k
    # the branches run as one stacked batch: row block i, rows i * nb to
    # (i + 1) * nb - 1, holds branch BRANCHES[i]
    gamma_t = schedule.gamma[batch.labels, draws.t]          # (nb,)
    root = np.sqrt(gamma_t)[:, None]
    noise_scale = np.sqrt(1.0 - gamma_t)[:, None]
    onehot = batch.onehot
    signal = np.concatenate([root * onehot + noise_scale * draws.eps[b] for b in BRANCHES])
    stacked_priors = priors.reshape(len(BRANCHES) * nb, k)
    y_t = signal + np.tile(1.0 - root, (len(BRANCHES), k)) * stacked_priors
    acts = model.denoiser.forward(y_t, stacked_priors,
                                  t_table[np.tile(draws.t, len(BRANCHES))])
    eps_hat = {b: acts.out[i * nb:(i + 1) * nb] for i, b in enumerate(BRANCHES)}

    kernel = cfg.kernel_cfg()
    l_g, g_g = mmd_loss(draws.eps["global"], eps_hat["global"], kernel, cfg.w)
    l_l, g_l = mmd_loss(draws.eps["local"], eps_hat["local"], kernel, cfg.w)
    l_eps, g_f = eps_loss(draws.eps["fused"], eps_hat["fused"])
    report = LossReport(L_g=l_g, L_l=l_l, L_eps=l_eps,
                        L_total=total_loss(l_g, l_l, l_eps, cfg.w), w=cfg.w)
    return report, model.denoiser.backward(acts, np.concatenate([g_g, g_l, g_f]))


def named_views(model: ModelParams, vec: np.ndarray) -> dict[str, np.ndarray]:
    """A vector laid out like the denoiser's blocks (a batch_loss gradient
    or an Adam moment) as views named as in model.denoiser_blocks()."""
    return optim.unflatten(vec, {name: arr.shape for name, arr in
                                 model.denoiser_blocks().items()})


def fit(table: DatasetTable, cfg: TrainConfig, *, log_path=None,
        checkpoint_path=None, resume: Checkpoint | None = None) -> Checkpoint:
    """Warmup the prior net, freeze it, then train the denoiser.

    The schedule is built (and its feasibility checked) before any
    parameter is touched. The post-warmup prior net gives the training
    priors here and both y_f and the noise level at inference. With
    log_path, each epoch appends one JSON record: the epoch's mean
    losses, the learning rate of its last step and the mean 2-norm of
    its steps' gradients.
    """
    counts = training_census(table).counts
    schedule = noise_schedule(counts, cfg)

    if resume is not None:
        model = resume.model.copy()
        start_epoch = resume.epoch
    else:
        model = init_model(table.d, table.k, cfg)
        model.prior = warmup_train(model.prior, table, cfg.warmup_epochs,
                                   lr=cfg.learning_rate, optimizer=cfg.optimizer,
                                   batch_size=cfg.batch_size, seed=cfg.seed)
        start_epoch = 0
    priors, t_table = fit_tables(model.prior, table, cfg.T, cfg.time_dim)
    # the denoiser's blocks become views into one vector, which the
    # optimizer updates in one pass per step
    shapes = {name: arr.shape for name, arr in model.denoiser.blocks().items()}
    params = optim.flatten(model.denoiser.blocks().values())
    model.denoiser = DenoiserParams(**optim.unflatten(params, shapes))
    opt = _make_opt(cfg)
    if resume is not None:
        opt.load_state_dict(_flat_opt_state(resume.opt_state, model))

    n_batches = max(1, -(-table.n // cfg.batch_size))
    total_steps = max(1, cfg.epochs * n_batches)

    for epoch in range(start_epoch, cfg.epochs):
        rng = np.random.default_rng([cfg.seed, 2, epoch])
        order = rng.permutation(table.n)
        sums = np.zeros(5)
        batches = 0
        for start in range(0, table.n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch = table.take(idx)
            draws = draw_batch_noise(rng, batch.n, batch.k, cfg.T)
            with np.errstate(over="ignore", invalid="ignore"):
                # a non-finite loss is reported below, with its epoch and batch
                report, grad = batch_loss(batch, priors[:, idx], t_table, model,
                                          schedule, cfg, draws)
            if not np.isfinite(report.L_total):
                bad = [name for name, g in named_views(model, grad).items()
                       if not np.isfinite(g).all()]
                raise ConfigError(
                    f"training diverged at epoch {epoch}, batch {batches}: L_total is "
                    f"{report.L_total}; first non-finite gradient block: "
                    f"{bad[0] if bad else 'none'}")
            lr = optim.lr_at(opt.step_count, total_steps, cfg.learning_rate,
                             cfg.lr_warmup_frac)
            opt.step(params, grad, lr=lr)
            sums[:4] += (report.L_g, report.L_l, report.L_eps, report.L_total)
            if log_path is not None:
                sums[4] += np.sqrt(grad @ grad)
            batches += 1
        if log_path is not None:
            record = {"epoch": epoch, "L_g": sums[0] / batches, "L_l": sums[1] / batches,
                      "L_eps": sums[2] / batches, "L_total": sums[3] / batches,
                      "lr": lr, "grad_norm": sums[4] / batches}
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
        done = epoch + 1
        if checkpoint_path is not None and cfg.checkpoint_every > 0 \
                and done % cfg.checkpoint_every == 0 and done < cfg.epochs:
            stem, ext = os.path.splitext(os.fspath(checkpoint_path))
            save_checkpoint(Checkpoint(model, _named_opt_state(opt, model), cfg, done,
                                       counts), f"{stem}.epoch{done}{ext}")

    ckpt = Checkpoint(model=model, opt_state=_named_opt_state(opt, model), config=cfg,
                      epoch=cfg.epochs, counts=counts)
    if checkpoint_path is not None:
        save_checkpoint(ckpt, checkpoint_path)
    return ckpt


def _named_opt_state(opt, model: ModelParams) -> dict:
    """The optimizer's state with Adam's moment vectors as blocks named as in
    model.denoiser_blocks(), the form checkpoints hold."""
    state = opt.state_dict()
    named = {"step_count": state["step_count"]}
    if isinstance(opt, optim.Adam):
        for moment in ("m", "v"):
            named[moment] = named_views(model, state[moment]) if moment in state else {}
    return named


def _flat_opt_state(state: dict, model: ModelParams) -> dict:
    """Inverse of _named_opt_state: named moments back to one vector each."""
    flat = {"step_count": state["step_count"]}
    for moment in ("m", "v"):
        if state.get(moment):
            flat[moment] = optim.flatten(state[moment][name]
                                         for name in model.denoiser_blocks())
    return flat


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
    at path as it was and removes the temporary file. A block or Adam
    moment holding a non-finite value raises ConfigError naming path,
    and nothing is written.
    """
    try:
        payload = {
            "version": CHECKPOINT_VERSION,
            "epoch": ckpt.epoch,
            "counts": list(ckpt.counts),
            "config": ckpt.config.to_dict(),
            "prior_mask_size": ckpt.model.prior.mask_size,
            "blocks": _blocks_to_jsonable(ckpt.model.blocks(), "block"),
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

    Raises ConfigError naming path unless the file is JSON of version 2
    (or 1, read as the module docstring says) with every field, holds
    every model block and denoiser Adam moment in the shape its config
    and class counts imply, and holds only finite values. LEGACY_BLOCKS
    are ignored.
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
    version = payload["version"]
    if version not in (1, CHECKPOINT_VERSION):
        raise ConfigError(f"unsupported checkpoint version {version!r}")
    cfg = TrainConfig.from_dict(payload["config"])
    counts = tuple(int(c) for c in payload["counts"])
    if not counts or min(counts) < 1:
        raise ConfigError(f"class counts must be positive, got {list(counts)}")
    mask = int(payload["prior_mask_size"])
    blocks = _blocks_from_jsonable(payload["blocks"])
    moments = {m: _blocks_from_jsonable(payload["optimizer"][m]) for m in ("m", "v")}
    if version == 1:
        # the post-warmup prior replaces the jointly trained one
        if "prior_frozen" not in payload:
            raise ConfigError("version-1 checkpoint missing field 'prior_frozen'")
        frozen = _blocks_from_jsonable(payload["prior_frozen"])
        for section in (blocks, *moments.values()):
            for name in [n for n in section if n.startswith("prior.")]:
                del section[name]
        blocks.update({f"prior.{name}": arr for name, arr in frozen.items()})
    # the feature dimension is stored only as the first prior layer's rows
    w1 = blocks.get("prior.w1")
    if w1 is None or w1.ndim != 2:
        raise ConfigError("block 'prior.w1' is missing or not a matrix")
    shapes = model_shapes(w1.shape[0], len(counts), cfg)
    _checked(blocks, shapes, "block")
    step_count = int(payload["optimizer"]["step_count"])
    moment_shapes = ({name: shape for name, shape in shapes.items()
                      if name.startswith("denoiser.")}
                     if cfg.optimizer == "adam" and step_count > 0 else {})
    opt_state = {"step_count": step_count}
    for moment, state in moments.items():
        _checked(state, moment_shapes, f"Adam moment {moment}")
        if cfg.optimizer == "adam":
            opt_state[moment] = state

    def group(prefix: str) -> dict[str, np.ndarray]:
        return {name[len(prefix) + 1:]: arr for name, arr in blocks.items()
                if name.startswith(prefix + ".")}

    model = ModelParams(
        prior=PriorNetParams(mask_size=mask, **group("prior")),
        denoiser=DenoiserParams(**group("denoiser")),
    )
    return Checkpoint(model=model, opt_state=opt_state, config=cfg,
                      epoch=int(payload["epoch"]), counts=counts)
