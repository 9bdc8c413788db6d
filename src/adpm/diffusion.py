"""Prior-shifted anisotropic forward corruption and the reverse sampler.

Forward draws follow

    y^t = sqrt(gamma_j^t) y0 + sqrt(1 - gamma_j^t) eps + (1 - sqrt(gamma_j^t)) prior,

so a zero prior recovers the plain corruption kernel. The reverse chain
starts at y^T ~ N(y_f, I) and iterates

    y^{t-1} = ( y^t - (xi - zeta)/xi * y_f - lam*beta^t/sqrt(xi) * eps_hat ) / zeta
              + sigma^t z,

with zeta = sqrt(1 - lam*beta^t), xi = 1 - gamma^t and
sigma^t = sqrt(lam*beta^t (1 - gamma^{t-1}) / (1 - gamma^t)); gamma^0 = 1
makes the final step deterministic. lam = 1 and y_f = 0 reduce the
update to the isotropic chain exactly.

The sampler steps the chains of n inputs together as one (n, k) matrix:
each row keeps its own lam, gamma row and random stream, and one
forward-only denoiser pass per step serves every row. One input is the
n = 1 case of the same loop. An n-row pass runs its matmuls as one BLAS
matrix product, not n single-row ones, so a row's y0 can differ from
that of the same input sampled alone in its last bits (by up to about
2e-12 on the desk runs); the predicted classes did not change there.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .denoiser import DenoiserParams, predict_noise
from .errors import ShapeError, UsageError
from .priors import PriorBundle
from .schedule import ClassCensus, NoiseLevelConfig, NoiseSchedule, inference_lambda


@dataclass(frozen=True)
class ForwardDraw:
    """One corrupted label vector plus the Gaussian draw that made it."""

    t: int
    branch: str
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
    so a batch holds no per-row objects; a slice gives a smaller batch.
    """

    y0: np.ndarray                                   # (n, k)
    lam: np.ndarray                                  # (n,)
    trace: list[tuple[int, np.ndarray]] | None = None  # (t, (n, k) states)

    def __len__(self) -> int:
        return self.y0.shape[0]

    def __getitem__(self, r):
        trace = None if self.trace is None else [(t, ys[r]) for t, ys in self.trace]
        if isinstance(r, slice):
            return SampleBatch(y0=self.y0[r], lam=self.lam[r], trace=trace)
        y0 = self.y0[r]
        return SampleResult(y0=y0, pred_class=int(np.argmax(y0)), lam=float(self.lam[r]),
                            trace=trace)


def forward_sample(schedule: NoiseSchedule, class_j: int, y0, prior, t: int,
                   rng, branch: str = "fused") -> ForwardDraw:
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
    gamma = schedule.gamma[class_j, t]
    root = np.sqrt(gamma)
    y_t = root * y0 + np.sqrt(1.0 - gamma) * eps + (1.0 - root) * prior
    return ForwardDraw(t=t, branch=branch, y_t=y_t, eps=eps)


def reverse_step(schedule: NoiseSchedule, lam: float | np.ndarray, t: int, y_t, y_f,
                 eps_hat, z, gamma_row: np.ndarray | None = None) -> np.ndarray:
    """One reverse update from step t to t-1.

    lam is a scalar for one chain, or one noise level per row of (n, k)
    states. gamma_row may carry the precomputed cumulative products for
    lam (as returned by schedule.gamma_for; shape (n, T+1) for per-row
    levels); it is computed otherwise. Each row sees exactly the scalar
    arithmetic, so a batched call is bitwise equal to the scalar calls
    row by row.
    """
    if not (1 <= t <= schedule.T):
        raise UsageError(f"t must lie in [1, {schedule.T}], got {t}")
    lam = np.asarray(lam, dtype=np.float64)
    if gamma_row is None:
        gamma_row = _gamma_rows(schedule, lam)
    y_t = np.asarray(y_t, dtype=np.float64)
    y_f = np.asarray(y_f, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    lam = lam[..., None]
    beta_t = schedule.beta[t - 1]
    xi = 1.0 - gamma_row[..., t, None]
    if (xi == 0.0).any():
        raise UsageError(f"reverse step singular at t={t}: gamma^t = 1")
    zeta = np.sqrt(1.0 - lam * beta_t)
    sigma = np.sqrt(lam * beta_t * (1.0 - gamma_row[..., t - 1, None]) / xi)
    drift = y_t - ((xi - zeta) / xi) * y_f - (lam * beta_t / np.sqrt(xi)) * eps_hat
    return drift / zeta + sigma * z


def _gamma_rows(schedule: NoiseSchedule, lam) -> np.ndarray:
    """schedule.gamma_for of every entry of lam, shape lam.shape + (T+1,).

    Each distinct level is computed once; an infeasible one raises
    ScheduleInfeasibleError.
    """
    lam = np.asarray(lam, dtype=np.float64)
    levels, inverse = np.unique(lam, return_inverse=True)
    rows = np.array([schedule.gamma_for(level) for level in levels]).reshape(
        levels.size, schedule.T + 1)
    return rows[inverse.reshape(lam.shape)]


def sample_timesteps(T: int, steps: int) -> np.ndarray:
    """Descending timestep subsequence, endpoints T and 1 included."""
    if not (1 <= steps <= T):
        raise UsageError(f"steps must lie in [1, {T}], got {steps}")
    if steps == 1:
        return np.array([T], dtype=np.int64)
    return np.round(np.linspace(T, 1, steps)).astype(np.int64)


def sample(schedule: NoiseSchedule, params: DenoiserParams, bundle: PriorBundle,
           lam_logits, census: ClassCensus, cfg: NoiseLevelConfig, rng,
           steps: int, lam=None, trace: bool = False) -> SampleResult | SampleBatch:
    """Run the reverse chains of one or more inputs and classify their endpoints.

    One input passes 1-D lam_logits and bundle.y_f with one Generator
    and gets one SampleResult. n inputs pass (n, k) arrays with a
    sequence of n Generators, one per row, and get a SampleBatch of n
    results; their chains step together, one denoiser pass per step for
    all rows.

    Each row's noise level defaults to that of the class the prior model
    predicts for it; pass lam (a scalar or one value per row) to force a
    level, e.g. 1.0 for the isotropic baseline. Every level is checked for
    feasibility before the loop. With steps < T the chains visit an evenly
    strided timestep subsequence and use the stored gamma values at those
    indices. Each row draws from its own generator in a fixed layout: k
    values for y^T, then k values of z per step, even where sigma = 0.
    """
    single = np.ndim(bundle.y_f) == 1
    y_f = np.atleast_2d(np.asarray(bundle.y_f, dtype=np.float64))
    rngs = [rng] if single else list(rng)
    n, k = y_f.shape
    if len(rngs) != n:
        raise ShapeError(f"need one generator per input: {n} inputs, {len(rngs)} generators")
    if lam is None:
        lam = inference_lambda(np.atleast_2d(lam_logits), census, cfg)
    lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), (n,))
    gammas = _gamma_rows(schedule, lam)  # validates feasibility up front
    ts = sample_timesteps(schedule.T, steps)
    # noise[0] starts each chain, noise[i] is the z of the i-th step
    noise = np.empty((ts.size + 1, n, k))
    for r, g in enumerate(rngs):
        noise[:, r] = g.standard_normal((ts.size + 1, k))
    y = y_f + noise[0]
    snapshots = [(schedule.T, y)]
    for i, t in enumerate(ts, start=1):
        eps_hat = predict_noise(params, y, y_f, int(t), schedule.T)
        y = reverse_step(schedule, lam, int(t), y, y_f, eps_hat, noise[i], gamma_row=gammas)
        snapshots.append((int(t) - 1, y))
    batch = SampleBatch(y0=y, lam=lam, trace=snapshots if trace else None)
    return batch[0] if single else batch
