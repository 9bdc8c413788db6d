"""Prior-shifted anisotropic forward corruption and the reverse sampler.

The forward kernel (CARD's prior-shifted kernel, Han et al. 2022) is

    y^t = sqrt(gamma_j^t) y0 + sqrt(1 - gamma_j^t) eps + (1 - sqrt(gamma_j^t)) prior,

so a zero prior recovers the plain corruption kernel. forward_kernel is
its one implementation: forward_sample corrupts one label with it, and
trainer.batch_loss corrupts a batch's three branches with one broadcast
call. The reverse chain starts at y^T ~ N(y_f, I) and iterates

    y^{t-1} = ( y^t - (xi - zeta)/xi * y_f - lam*beta^t/sqrt(xi) * eps_hat ) / zeta
              + sigma^t z,

with zeta = sqrt(1 - lam*beta^t), xi = 1 - gamma^t and
sigma^t = sqrt(lam*beta^t (1 - gamma^{t-1}) / (1 - gamma^t)); gamma^0 = 1
makes the final step deterministic. lam = 1 and y_f = 0 reduce the
update to the isotropic chain exactly.

Every noise level is addressed by a class index into the schedule, as
in forward_sample: class j runs at schedule.lam[j] with the gamma row
schedule.gamma[j], and no level is recomputed here. The sampler steps
the chains of n inputs together as one (n, k) matrix: each row keeps its
own class and random stream, and one forward-only denoiser pass per step
serves every row. What depends only on the schedule, the step count and
the time embedding width is memoized as a SamplerPlan (sampler_plan): the
visited steps, a table of the four coefficients c_f = (xi - zeta)/xi,
c_eps = lam*beta^t/sqrt(xi), zeta and sigma for every class at those
steps, and the time embeddings of those steps only. Each call then
projects the plan's time rows, looks each row's class up in the table
once, and computes c_f y_f and sigma z of every step in one array
operation each. Each step copies the states into the label half of an
(n, 2k) input whose prior half is written once, runs the denoiser trunk
on it once, and applies one in-place update

    y <- (y - c_f y_f - c_eps eps_hat) / zeta + sigma z.

reverse_step is the one-step case of the same table and the same
update (_update), so the formula lives in one place. One input is a
1-row batch. An n-row pass runs its matmuls as one BLAS matrix product,
not n single-row ones, so a row's y0 can differ from that of the same
input sampled alone in its last bits (by up to about 2e-12 on the desk
runs); the predicted classes did not change there.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# predict_noise and inference_lambda stay importable from this module,
# beside reverse_step: perfbench/spans.py looks all three up here
from .denoiser import DenoiserParams, predict_noise, time_embed_batch  # noqa: F401
from .errors import ShapeError, UsageError
from .schedule import NoiseSchedule, inference_lambda  # noqa: F401

PLAN_CACHE_SIZE = 32  # distinct (schedule, steps, t_dim) plans sampler_plan keeps


@dataclass(frozen=True)
class ForwardDraw:
    """One corrupted label vector plus the Gaussian draw that made it."""

    t: int
    y_t: np.ndarray
    eps: np.ndarray


@dataclass(frozen=True)
class SampleResult:
    """Output of one reverse chain."""

    y0: np.ndarray
    pred_class: int
    lam: float
    trace: list[tuple[int, np.ndarray]] | None = None


@dataclass(frozen=True, eq=False)
class SampleBatch(Sequence):
    """Outputs of n reverse chains stepped together, kept as arrays.

    Indexing with a row gives that chain's SampleResult, built on access,
    so a batch holds no per-row objects; a slice gives a smaller batch
    that holds copies of its rows.
    """

    y0: np.ndarray                                   # (n, k)
    lam: np.ndarray                                  # (n,)
    trace: list[tuple[int, np.ndarray]] | None = None  # (t, (n, k) states)

    def __len__(self) -> int:
        return self.y0.shape[0]

    def __getitem__(self, r):
        if isinstance(r, slice):
            trace = None if self.trace is None else [(t, ys[r].copy()) for t, ys in self.trace]
            return SampleBatch(y0=self.y0[r].copy(), lam=self.lam[r].copy(), trace=trace)
        trace = None if self.trace is None else [(t, ys[r]) for t, ys in self.trace]
        y0 = self.y0[r]
        return SampleResult(y0=y0, pred_class=int(np.argmax(y0)), lam=float(self.lam[r]),
                            trace=trace)


def forward_sample(schedule: NoiseSchedule, class_j: int, y0, prior, t: int, rng) -> ForwardDraw:
    """Corrupt y0 to step t with class_j's noise level.

    t = 0 is allowed and returns y0 exactly (gamma^0 = 1). The Gaussian
    draw is always consumed and recorded, keeping stream alignment fixed
    across t.
    """
    if not (0 <= t <= schedule.T):
        raise UsageError(f"t must lie in [0, {schedule.T}], got {t}")
    if not (0 <= class_j < schedule.k):
        raise UsageError(f"class {class_j} out of range for k={schedule.k}")
    y0 = np.asarray(y0, dtype=np.float64)
    prior = np.asarray(prior, dtype=np.float64)
    eps = rng.standard_normal(y0.shape)
    y_t = forward_kernel(schedule.gamma[class_j, t], y0, eps, prior)
    return ForwardDraw(t=t, y_t=y_t, eps=eps)


def forward_kernel(gamma, y0, eps, prior) -> np.ndarray:
    """sqrt(gamma) y0 + sqrt(1 - gamma) eps + (1 - sqrt(gamma)) prior,
    elementwise under numpy broadcasting."""
    root = np.sqrt(gamma)
    return root * y0 + np.sqrt(1.0 - gamma) * eps + (1.0 - root) * prior


def reverse_step(schedule: NoiseSchedule, class_j, t: int, y_t, y_f, eps_hat,
                 z) -> np.ndarray:
    """One reverse update from step t to t-1 at class_j's noise level: the
    one-step case of the coefficient table that sample builds.

    class_j is a scalar class for one chain, or one class per row of
    (n, k) states. Each row sees exactly the scalar arithmetic, so a
    batched call is bitwise equal to the scalar calls row by row.
    """
    if not (1 <= t <= schedule.T):
        raise UsageError(f"t must lie in [1, {schedule.T}], got {t}")
    classes = _class_index(schedule, class_j)
    c_f, c_eps, zeta, sigma = _step_table(schedule, np.array([t]))[0][:, classes, None]
    y, y_f, eps, z = (np.array(a, dtype=np.float64) for a in (y_t, y_f, eps_hat, z))
    _update(y, c_f * y_f, c_eps, eps, zeta, sigma * z)
    return y


def _class_index(schedule: NoiseSchedule, classes) -> np.ndarray:
    """classes as an integer array, each entry a class of the schedule."""
    classes = np.asarray(classes)
    if classes.dtype.kind not in "iu" or ((classes < 0) | (classes >= schedule.k)).any():
        raise UsageError(f"classes must be integers in [0, {schedule.k}), got {classes}")
    return classes


def _step_table(schedule: NoiseSchedule, ts: np.ndarray) -> np.ndarray:
    """Reverse-step coefficients of every class of the schedule at the
    visited steps ts, as an (len(ts), 4, k) array whose entry [i, :, j]
    holds ((xi - zeta)/xi, lam*beta^t/sqrt(xi), zeta, sigma) of class j
    at step ts[i], built from schedule.lam and schedule.gamma.

    gamma^t = 1 at a visited step, where the update would divide by zero,
    raises UsageError.
    """
    lam = schedule.lam[None, :]
    beta_t = schedule.beta[ts - 1][:, None]
    xi = 1.0 - schedule.gamma[:, ts].T
    singular = (xi == 0.0).any(axis=1)
    if singular.any():
        raise UsageError(f"reverse step singular at t={ts[np.argmax(singular)]}: gamma^t = 1")
    zeta = np.sqrt(1.0 - lam * beta_t)
    sigma = np.sqrt(lam * beta_t * (1.0 - schedule.gamma[:, ts - 1].T) / xi)
    return np.stack([(xi - zeta) / xi, lam * beta_t / np.sqrt(xi), zeta, sigma], axis=1)


def _update(y, shift, c_eps, eps_hat, zeta, kick) -> None:
    """The reverse update y <- (y - shift - c_eps eps_hat) / zeta + kick,
    in place, with one step's coefficients from _step_table, shift =
    c_f y_f and kick = sigma z. eps_hat is overwritten."""
    y -= shift
    eps_hat *= c_eps
    y -= eps_hat
    y /= zeta
    y += kick


def sample_timesteps(T: int, steps: int) -> np.ndarray:
    """Descending timestep subsequence, endpoints T and 1 included."""
    if not (1 <= steps <= T):
        raise UsageError(f"steps must lie in [1, {T}], got {steps}")
    return np.round(np.linspace(T, 1, steps)).astype(np.int64)


@dataclass(frozen=True)
class SamplerPlan:
    """What a reverse chain needs of its schedule, step count and time
    embedding width, whatever the rows: the visited steps ts, their
    _step_table coefficients (S, 4, k) and their time embeddings
    (S, t_dim), all read-only."""

    ts: np.ndarray
    coef: np.ndarray
    t_rows: np.ndarray


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE, typed=True)
def sampler_plan(schedule: NoiseSchedule, steps: int, t_dim: int) -> SamplerPlan:
    """The plan of steps strided steps on schedule, memoized per
    (schedule, steps, t_dim), each with its type; the cache keeps the
    PLAN_CACHE_SIZE most recent. A bad step count or a singular visited
    step raises UsageError, and nothing is cached."""
    ts = sample_timesteps(schedule.T, steps)
    plan = SamplerPlan(ts=ts, coef=_step_table(schedule, ts),
                       t_rows=time_embed_batch(ts, schedule.T, t_dim))
    for arr in (plan.ts, plan.coef, plan.t_rows):
        arr.flags.writeable = False
    return plan


def sample(schedule: NoiseSchedule, params: DenoiserParams, y_f, classes, rngs,
           steps: int, trace: bool = False) -> SampleBatch:
    """Run the reverse chains of n inputs together and keep their endpoints.

    y_f is the (n, k) matrix of the inputs' fused priors; row r runs at
    the noise level of class classes[r] of the schedule and draws from
    rngs[r]. The chains step together, one denoiser pass per step for all
    rows. The classes, the shapes, the generator count and every visited
    step's gamma^t < 1 are checked before any generator advances. With
    steps < T the chains visit an evenly strided timestep subsequence and
    use the stored gamma values at those indices. Each row draws from its
    own generator in a fixed layout: k values for y^T, then k values of z
    per step, even where sigma = 0. The returned y0 and every trace
    snapshot are arrays of their own.
    """
    y_f = np.asarray(y_f, dtype=np.float64)
    classes = _class_index(schedule, classes)
    rngs = list(rngs)
    if y_f.ndim != 2 or classes.shape != y_f.shape[:1] or len(rngs) != len(y_f):
        raise ShapeError(f"need an (n, k) y_f, one class and one generator per row: y_f has "
                         f"shape {y_f.shape}, {classes.size} classes, {len(rngs)} generators")
    n, k = y_f.shape
    if k != params.k:
        raise ShapeError(f"the denoiser predicts k={params.k} classes, y_f has k={k}")
    plan = sampler_plan(schedule, steps, params.t_emb_dim)
    # the visited time rows projected as an (S, 1, .) stack: one 1-row
    # product per step, the product predict_noise runs (a single (S, .)
    # product would round differently); the blocks may change between
    # calls, so this is not memoized
    tembs = params.project_time(plan.t_rows[:, None, :])
    # noise[0] starts each chain, noise[i] is the z of the i-th step
    noise = np.empty((plan.ts.size + 1, n, k))
    for r, g in enumerate(rngs):
        noise[:, r] = g.standard_normal((plan.ts.size + 1, k))
    # each row's coefficients at every step, (S, n, 1) each, and the two
    # terms of the update that do not depend on the state, (S, n, k) each:
    # shift = c_f y_f, and kick = sigma z written over the z's
    c_f, c_eps, zeta, sigma = np.moveaxis(plan.coef[:, :, classes, None], 1, 0)
    shift = c_f * y_f
    kick = np.multiply(sigma, noise[1:], out=noise[1:])
    # the trunk's input, the labels beside the priors; y stays a
    # contiguous array of its own, since in-place updates of a strided
    # view run row by row
    x = np.empty((n, 2 * k))
    x[:, k:] = y_f
    y = y_f + noise[0]
    snapshots = [(schedule.T, y.copy())] if trace else None
    for i, t in enumerate(plan.ts):
        x[:, :k] = y
        _update(y, shift[i], c_eps[i], params.trunk(x, tembs[i])[-1], zeta[i], kick[i])
        if trace:
            snapshots.append((int(t) - 1, y.copy()))
    return SampleBatch(y0=y, lam=schedule.lam[classes], trace=snapshots)
