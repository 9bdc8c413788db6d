"""Training loop: prior warmup, then the denoiser on anisotropic noising.

fit first pretrains the prior network with cross entropy
(priors.warmup_train, with Adam at the config's learning rate) and then
freezes it, as CARD does with its prior f_phi. fit then computes two
tables once (fit_tables): the global, local and fused priors of every
training row, stacked as (3, n, k), and the time embedding of every
step 0..T; each batch gathers its rows from them. Every batch draws one
timestep per sample and one (3, nb, k) Gaussian noise stack, one (nb, k)
block per branch (global, local, fused). One broadcast call of
diffusion.forward_kernel corrupts every branch with the true class's
noise level and the branch's own prior; the one-hot labels are rows of
an identity built once per class count. The stack is pushed through the
shared denoiser as one batch of three times the rows, whose nb time rows
are projected once and shared by the three branches (forward's
repeats). Its output is reshaped back into the branches and scored: one
stacked losses.mmd_loss call gives the MMD against the true noise of the
global and the local branch, and the fused branch gets the mean squared
error.

batch_loss runs as plain numpy: the denoiser's forward pass keeps its
activations, and a hand-derived backward pass through the losses and
the denoiser gives the gradient of the 12 denoiser blocks. No library
path builds an autodiff tape. The denoiser's blocks, their gradient and
Adam's moments are each one float64 vector (BlockTable.flat makes the
blocks views into theirs, and views names the others), so one optimizer
pass updates them all; fit allocates the gradient vector once, and
every step's backward pass writes into it. The epoch loop runs inside
one np.errstate that silences overflow and invalid-value warnings, and
a step whose loss is not finite stops training with a ConfigError
instead. Adam is the only optimizer: it runs at the config's
learning_rate with optim's constant betas and eps, and optim.lr_at's
constant warmup fraction shapes the learning rate. The MMD kernel's
bandwidth is the constant KERNEL_BANDWIDTH, and the MMD terms' weight w
the constant MMD_WEIGHT. The prior's local branch keeps half the feature
count (at least one coordinate), a property of the prior network. The
config is frozen, so every value a run reads passed TrainConfig's
checks: errors.check_fields applies the type rule, finiteness and the
lower bounds of _AT_LEAST to every field, and only the rules a bound
cannot state are written out (sample_steps <= T, learning_rate > 0, an
even time_dim, and schedule.check_beta_range, the rule linear_beta
applies to the betas). The isotropic baseline (lambda = 1 for every
class) is c = 0 of the noise-level formula.

Reproducibility contract: all stochasticity of epoch e comes from a
stream keyed by (seed, 2, e): first the shuffle permutation, then per
batch the timesteps and the noise stack, branch g, then l, then f in
row-major order (one standard_normal((3, nb, k)) call gives the bits of
three (nb, k) calls in that order). Resuming from a checkpoint
therefore reproduces an uninterrupted run bitwise. Initialization
draws from stream (seed, 0): the prior's weights, then the denoiser's,
each network in its shapes() order (init_model). generate_longtail
draws its feature noise from (data seed, 0), the same stream when the
two seeds are equal.

A checkpoint (version 2) holds the one prior network, the denoiser,
Adam's moments of the denoiser blocks, the config and the training
census. In memory, Checkpoint.opt_state is the optimizer's own
state_dict(), each moment one vector; only the file names the moments
per block (named_views), and loading flattens them back. Version 2 is
the only format that loads. Files written by earlier trainers also hold
config keys of settings that are now fixed. RETIRED_KEYS maps each to
the value this trainer keeps; such a file loads only when every one
holds its kept value, and the keys are dropped. A run trained with the
lambda override set must be retrained with c = 0. Earlier files also
hold the field prior_mask_size, which the first prior layer now implies
(PriorNetParams.mask_size, max(1, d // 2)): such a file loads only when
the field holds that value, and new files omit it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import optim
from .data import DatasetTable
from .denoiser import DenoiserParams, time_embed_batch
from .diffusion import forward_kernel
from .errors import ConfigError, check_fields, fits_type
from .losses import LossReport, eps_loss, mmd_loss, total_loss
from .priors import PriorNetParams, prior_bundle, warmup_train
from .schedule import (ClassCensus, NoiseLevelConfig, NoiseSchedule, build_schedule,
                       check_beta_range, lambda_vector, linear_beta)

CHECKPOINT_VERSION = 2
_CHECKPOINT_FIELDS = ("version", "epoch", "counts", "config", "blocks", "optimizer")
BRANCHES = ("global", "local", "fused")
SCHEDULE_CACHE_SIZE = 16  # distinct schedules noise_schedule keeps
KERNEL_BANDWIDTH = 1.0  # sigma of the MMD terms' RBF kernel
MMD_WEIGHT = 0.5  # w of the objective w * (L_g + L_l) + L_eps
# config keys of older checkpoints -> the one value this trainer keeps
RETIRED_KEYS = {"optimizer": "adam", "kernel_bandwidth_mode": "fixed",
                "adam_beta1": optim.BETA1, "adam_beta2": optim.BETA2, "adam_eps": optim.EPS,
                "lr_warmup_frac": optim.WARMUP_FRAC, "lambda_override": None,
                "kernel_bandwidth": KERNEL_BANDWIDTH, "w": MMD_WEIGHT, "prior_mask": None}


# TrainConfig's lower bounds; check_fields also rejects a non-finite float
_AT_LEAST = {"sample_steps": 1, "batch_size": 1, "hidden": 1, "attn_dim": 1, "time_dim": 1,
             "prior_hidden": 1, "epochs": 0, "warmup_epochs": 0, "seed": 0,
             "checkpoint_every": 0, "alpha": 0, "c": 0}


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run, checked when built (see the
    module docstring); a bad value raises ConfigError naming it."""

    T: int = 1000
    sample_steps: int = 250
    beta1: float = 1e-4
    betaT: float = 0.02
    alpha: float = 1.0 / 6.0
    c: float = 5.0
    epochs: int = 300
    batch_size: int = 32
    learning_rate: float = 1e-3
    warmup_epochs: int = 15
    seed: int = 0
    hidden: int = 64
    attn_dim: int = 32
    time_dim: int = 32
    prior_hidden: int = 32
    checkpoint_every: int = 0  # epochs; 0 writes only at the end

    def __post_init__(self):
        check_fields(self, _AT_LEAST)
        if self.sample_steps > self.T:
            raise ConfigError(f"sample_steps {self.sample_steps} exceeds T {self.T}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.time_dim % 2:
            raise ConfigError(f"time_dim must be even, got {self.time_dim}")
        check_beta_range(self.beta1, self.betaT)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        """Config from a JSON object that passes check_field_types."""
        check_field_types(cls, obj)
        return cls(**obj)


def check_field_types(cls, obj, what: str = "config") -> None:
    """Raise ConfigError unless obj is a dict whose keys are fields of the
    dataclass cls and whose values fit their field's type (fits_type)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} is not a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(obj) - set(types)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in obj.items():
        if not fits_type(types[key], value):
            raise ConfigError(f"{what} key {key!r} must be of type {types[key]}, got {value!r}")


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
    """Pre-drawn randomness for one batch: timesteps and the noise stack."""

    t: np.ndarray    # (nb,) ints in [1, T]
    eps: np.ndarray  # (3, nb, k); eps[i] is branch BRANCHES[i]'s noise


@dataclass
class Checkpoint:
    model: ModelParams
    opt_state: dict  # the optimizer's state_dict()
    config: TrainConfig
    epoch: int
    counts: tuple[int, ...]

    @property
    def prior_frozen(self) -> PriorNetParams:
        """model.prior, under the name perfbench/workloads.py still reads."""
        return self.model.prior


def _networks(d: int, k: int, cfg: TrainConfig) -> dict[str, tuple[type, tuple[int, ...]]]:
    """ModelParams field -> (network class, its dims) for d features, k
    classes and cfg's widths, in blocks() order."""
    return {"prior": (PriorNetParams, (d, cfg.prior_hidden, k)),
            "denoiser": (DenoiserParams, (k, cfg.hidden, cfg.attn_dim, cfg.time_dim))}


def init_model(d: int, k: int, cfg: TrainConfig) -> ModelParams:
    """Seeded initialization from stream (seed, 0).

    Draw order: the prior net's weights, then the denoiser's, each network
    in its shapes() order (model_shapes' order); biases start at zero and
    draw nothing.
    """
    rng = np.random.default_rng([cfg.seed, 0])
    return ModelParams(**{name: net.draw(dims, rng)
                          for name, (net, dims) in _networks(d, k, cfg).items()})


def model_shapes(d: int, k: int, cfg: TrainConfig) -> dict[str, tuple[int, int]]:
    """Block name -> shape of init_model(d, k, cfg), in blocks() order,
    computed without drawing or allocating anything."""
    return {f"{name}.{block}": shape for name, (net, dims) in _networks(d, k, cfg).items()
            for block, shape in net.shapes(*dims).items()}


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
    """cfg's schedule for a census of class counts, at the census's noise
    levels; c = 0 gives the isotropic chain, lambda = 1 for every class.

    Memoized on the values that determine it (the counts and cfg's T,
    beta1, betaT, alpha and c, each with its type), so every call with
    the same values shares one read-only schedule; the cache keeps the
    SCHEDULE_CACHE_SIZE most recent.
    """
    return _schedule(tuple(counts), cfg.T, cfg.beta1, cfg.betaT, cfg.alpha, cfg.c)


@functools.lru_cache(maxsize=SCHEDULE_CACHE_SIZE, typed=True)
def _schedule(counts: tuple, T: int, beta1: float, betaT: float, alpha: float,
              c: float) -> NoiseSchedule:
    lam = lambda_vector(ClassCensus(counts), NoiseLevelConfig(alpha=alpha, c=c))
    return build_schedule(linear_beta(T, beta1, betaT), lam)


def draw_batch_noise(rng, nb: int, k: int, T: int) -> BatchDraws:
    """Consume the epoch stream in the documented order."""
    t = rng.integers(1, T + 1, size=nb)
    return BatchDraws(t=t, eps=rng.standard_normal((len(BRANCHES), nb, k)))


def fit_tables(prior: PriorNetParams, table: DatasetTable, T: int,
               time_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """What fit computes once, after warmup: the frozen prior's global,
    local and fused priors of every row of table, stacked as (3, n, k) in
    BRANCHES order, and the (T + 1, time_dim) time embeddings of steps
    0..T."""
    bundle = prior_bundle(prior, table.features)
    return (np.stack([bundle.y_g, bundle.y_l, bundle.y_f]),
            time_embed_batch(np.arange(T + 1), T, time_dim))


def batch_loss(labels: np.ndarray, priors: np.ndarray, t_table: np.ndarray,
               model: ModelParams, schedule: NoiseSchedule, draws: BatchDraws,
               out: np.ndarray | None = None) -> tuple[LossReport, np.ndarray]:
    """Evaluate the three-branch objective on one batch, and its gradient
    in the denoiser blocks as one vector in model.denoiser_blocks() order
    (named_views names its blocks): out, when given, else a new vector.

    labels holds the batch's (nb,) class labels, priors its rows of
    fit_tables' priors, (3, nb, k), and t_table is fit_tables' time
    embedding table; the priors and t_table enter as constants.
    """
    n_branches, nb, k = priors.shape
    gamma = schedule.gamma[labels, draws.t][:, None]
    y_t = forward_kernel(gamma, _one_hot(k)[labels], draws.eps, priors)
    # the branches run as one stacked batch: row block i, rows i * nb to
    # (i + 1) * nb - 1, holds branch BRANCHES[i]
    acts = model.denoiser.forward(y_t.reshape(-1, k), priors.reshape(-1, k),
                                  t_table[draws.t], n_branches)
    eps_hat = acts.out.reshape(n_branches, nb, k)

    # the global and local branches are scored by one stacked MMD call
    values, g_gl = mmd_loss(draws.eps[:2], eps_hat[:2], KERNEL_BANDWIDTH, MMD_WEIGHT)
    l_g, l_l = values.tolist()
    l_eps, g_f = eps_loss(draws.eps[2], eps_hat[2])
    report = LossReport(L_g=l_g, L_l=l_l, L_eps=l_eps,
                        L_total=total_loss(l_g, l_l, l_eps, MMD_WEIGHT))
    return report, model.denoiser.backward(acts, np.concatenate([*g_gl, g_f]), out)


@functools.cache
def _one_hot(k: int) -> np.ndarray:
    """The read-only (k, k) identity, whose row j is class j's one-hot
    label, built once per k."""
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


def named_views(model: ModelParams, vec: np.ndarray) -> dict[str, np.ndarray]:
    """A vector laid out like the denoiser's blocks (a batch_loss gradient
    or an Adam moment) as views named as in model.denoiser_blocks()."""
    return {f"denoiser.{name}": view for name, view in model.denoiser.views(vec).items()}


def fit(table: DatasetTable, cfg: TrainConfig, *, log_path=None,
        checkpoint_path=None, resume: Checkpoint | None = None) -> Checkpoint:
    """Warmup the prior net, freeze it, then train the denoiser.

    The schedule is built (and its feasibility checked) before any
    parameter is touched. The post-warmup prior net gives the training
    priors here and both y_f and the noise level at inference. With
    log_path, fit first keeps only the log's records of epochs before
    its start epoch (none for a fresh run), and then each epoch appends
    one JSON record: the epoch's mean losses, the learning rate of its
    last step and the mean 2-norm of its steps' gradients.

    A resume continues an uninterrupted run of cfg bitwise when cfg
    equals the checkpoint's config. It may change any setting but the
    model's shapes and the frozen prior's warmup_epochs, and it may not
    start beyond cfg.epochs. A table with no rows, and a resume that
    breaks one of these rules, raise ConfigError before any step, and
    nothing is written.
    """
    if table.n == 0:
        raise ConfigError("the training table has no rows")
    counts = training_census(table).counts
    schedule = noise_schedule(counts, cfg)

    if resume is not None:
        if resume.epoch > cfg.epochs:
            raise ConfigError(f"cannot resume at epoch {resume.epoch} of a {cfg.epochs}-epoch run")
        if resume.config.warmup_epochs != cfg.warmup_epochs:
            raise ConfigError(f"cannot resume with warmup_epochs={cfg.warmup_epochs!r}: the "
                              f"checkpoint's prior was trained with "
                              f"warmup_epochs={resume.config.warmup_epochs!r}")
        _checked(resume.model.blocks(), model_shapes(table.d, table.k, cfg), "resumed block")
        model = resume.model.copy()
        start_epoch = resume.epoch
    else:
        model = init_model(table.d, table.k, cfg)
        model.prior = warmup_train(model.prior, table, cfg.warmup_epochs,
                                   optim.Adam(cfg.learning_rate),
                                   batch_size=cfg.batch_size, seed=cfg.seed)
        start_epoch = 0
    if log_path is not None:
        _keep_log_before(log_path, start_epoch)
    priors, t_table = fit_tables(model.prior, table, cfg.T, cfg.time_dim)
    # the denoiser's blocks become views into one vector, which the
    # optimizer updates in one pass per step
    model.denoiser, params = model.denoiser.flat()
    opt = optim.Adam(cfg.learning_rate)
    if resume is not None:
        opt.load_state_dict(resume.opt_state)
    total_steps = cfg.epochs * -(-table.n // cfg.batch_size)
    grad = np.empty_like(params)  # every step writes its gradient here
    # a non-finite loss is reported in the loop, with its epoch and batch
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(start_epoch, cfg.epochs):
            rng = np.random.default_rng([cfg.seed, 2, epoch])
            order = rng.permutation(table.n)
            sums = np.zeros(5)
            batches = 0
            for start in range(0, table.n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                draws = draw_batch_noise(rng, idx.size, table.k, cfg.T)
                report, grad = batch_loss(table.labels[idx], priors[:, idx], t_table,
                                          model, schedule, draws, grad)
                if not np.isfinite(report.L_total):
                    bad = [name for name, g in named_views(model, grad).items()
                           if not np.isfinite(g).all()]
                    raise ConfigError(
                        f"training diverged at epoch {epoch}, batch {batches}: L_total is "
                        f"{report.L_total}; first non-finite gradient block: "
                        f"{bad[0] if bad else 'none'}")
                lr = optim.lr_at(opt.step_count, total_steps, cfg.learning_rate)
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
                save_checkpoint(Checkpoint(model, opt.state_dict(), cfg, done, counts),
                                f"{stem}.epoch{done}{ext}")

    ckpt = Checkpoint(model=model, opt_state=opt.state_dict(), config=cfg,
                      epoch=cfg.epochs, counts=counts)
    if checkpoint_path is not None:
        save_checkpoint(ckpt, checkpoint_path)
    return ckpt


def _keep_log_before(path, epoch: int) -> None:
    """Cut the JSON-lines log at path, if any, to its records of epochs
    before epoch; a file that is not such a log raises ConfigError."""
    kept = []
    if epoch > 0 and os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                kept = [line for line in fh if json.loads(line)["epoch"] < epoch]
            except (ValueError, TypeError, KeyError) as exc:
                raise ConfigError(f"{path}: not a training log: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(kept)


def _blocks_to_jsonable(blocks: dict[str, np.ndarray], what: str) -> dict:
    """Shape plus row-major float list per block; floats round-trip exactly.
    Raises ConfigError naming the first block with a non-finite value."""
    _checked(blocks, {name: arr.shape for name, arr in blocks.items()}, what)
    return {name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in blocks.items()}


def _blocks_from_jsonable(obj) -> dict[str, np.ndarray]:
    if not isinstance(obj, dict):
        raise ConfigError("a block section is not a JSON object")
    return {name: np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
            for name, entry in obj.items()}


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
    at path as it was and removes the temporary file. Adam's moment
    vectors are written as blocks named by named_views. A block or Adam
    moment holding a non-finite value raises ConfigError naming path,
    and nothing is written.
    """
    state = ckpt.opt_state
    try:
        moments = {m: named_views(ckpt.model, state[m]) if m in state else {}
                   for m in ("m", "v")}
        payload = {
            "version": CHECKPOINT_VERSION,
            "epoch": ckpt.epoch,
            "counts": list(ckpt.counts),
            "config": ckpt.config.to_dict(),
            "blocks": _blocks_to_jsonable(ckpt.model.blocks(), "block"),
            "optimizer": {"step_count": state["step_count"],
                          **{m: _blocks_to_jsonable(named, f"Adam moment {m}")
                             for m, named in moments.items()}},
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
    with every field, holds a config TrainConfig accepts and class counts
    ClassCensus accepts, holds exactly the model blocks and denoiser Adam
    moments its config and class counts imply, each in its shape, and
    holds only finite values.
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
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {version!r}")
    config = payload["config"]
    for key, kept in RETIRED_KEYS.items():
        value = config.pop(key, kept) if isinstance(config, dict) else kept
        if value != kept:
            raise ConfigError(f"config key {key!r} must be {kept!r}, got {value!r}")
    cfg = TrainConfig.from_dict(config)
    counts = ClassCensus(tuple(payload["counts"])).counts
    blocks = _blocks_from_jsonable(payload["blocks"])
    moments = {m: _blocks_from_jsonable(payload["optimizer"][m]) for m in ("m", "v")}
    # the feature dimension is stored only as the first prior layer's rows
    w1 = blocks.get("prior.w1")
    if w1 is None or w1.ndim != 2:
        raise ConfigError("block 'prior.w1' is missing or not a matrix")
    shapes = model_shapes(w1.shape[0], len(counts), cfg)
    _checked(blocks, shapes, "block")
    step_count = int(payload["optimizer"]["step_count"])
    moment_shapes = ({name: shape for name, shape in shapes.items()
                      if name.startswith("denoiser.")}
                     if step_count > 0 else {})
    opt_state = {"step_count": step_count}
    for moment, state in moments.items():
        _checked(state, moment_shapes, f"Adam moment {moment}")
        if moment_shapes:
            # the optimizer's form: one vector in denoiser block order
            opt_state[moment] = optim.flatten(state[name] for name in moment_shapes)

    def group(prefix: str) -> dict[str, np.ndarray]:
        return {name[len(prefix) + 1:]: arr for name, arr in blocks.items()
                if name.startswith(prefix + ".")}

    model = ModelParams(**{name: net(**group(name)) for name, (net, _) in
                           _networks(w1.shape[0], len(counts), cfg).items()})
    mask = payload.get("prior_mask_size", model.prior.mask_size)
    if mask != model.prior.mask_size:
        raise ConfigError(f"retired field 'prior_mask_size' must be "
                          f"{model.prior.mask_size}, got {mask!r}")
    return Checkpoint(model=model, opt_state=opt_state, config=cfg,
                      epoch=int(payload["epoch"]), counts=counts)
