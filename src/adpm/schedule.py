"""Imbalance statistics and per-class noise schedules.

Class frequencies are turned into noise multipliers by

    lambda_j = c * nu * p_j + 1,   p_j = n_j^-alpha / sum_i n_i^-alpha,

where nu is the exact imbalance ratio max_j n_j / min_j n_j and p_j is
the class share that the generalization bound weighs. Rare
classes get larger lambda and therefore diffuse faster; c = 0 gives
lambda = 1 everywhere, the isotropic chain. The surviving signal fraction
of class j after t steps is the cumulative product

    gamma_j^t = prod_{i<=t} (1 - lambda_j * beta^i),   gamma_j^0 = 1,

which requires lambda_j * beta^t < 1 for every step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, ScheduleInfeasibleError, check_fields


@dataclass(frozen=True)
class ClassCensus:
    """Per-class sample counts n_1..n_k, all positive."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) < 1:
            raise ConfigError("census needs at least one class")
        if any(int(c) != c or c < 1 for c in self.counts):
            raise ConfigError(f"class counts must be positive integers, got {self.counts}")
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))

    @property
    def k(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class NoiseLevelConfig:
    """Knobs of the frequency-to-noise map.

    alpha is the decay exponent of the class shares p_j ∝ n_j^-alpha,
    which both the noise levels and the bound use; c >= 0 controls how
    fast noise grows across classes, and c = 0 gives every class
    lambda = 1. Both must be real numbers (errors.check_fields).
    """

    alpha: float
    c: float

    def __post_init__(self):
        check_fields(self)
        for name in ("alpha", "c"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.c < 0:
            raise ConfigError(f"c must be >= 0, got {self.c}")
        if self.alpha > 1:
            warnings.warn(f"alpha={self.alpha} is outside the usual [0, 1] range")


def imbalance_ratio(census: ClassCensus) -> tuple[Fraction, int]:
    """Exact imbalance ratio max/min and its floor (the tabulated value)."""
    exact = Fraction(max(census.counts), min(census.counts))
    return exact, exact.numerator // exact.denominator


def class_proportions(census: ClassCensus, cfg: NoiseLevelConfig) -> np.ndarray:
    """Class shares p_j = n_j^-alpha / sum_i n_i^-alpha, the weights of
    the generalization bound and the shares lambda_vector scales.

    The normalizer sums addends in sorted order, so permuting the counts
    permutes the result bitwise. A zero sum, from every n_j^-alpha
    underflowing at a large alpha, raises ConfigError.
    """
    weights = np.asarray(census.counts, dtype=np.float64) ** (-cfg.alpha)
    total = float(np.sort(weights).sum())
    if total == 0.0:
        raise ConfigError(f"class proportions are undefined: n_j^-alpha underflows to 0 "
                          f"for every class at alpha={cfg.alpha}")
    return weights / total


def lambda_vector(census: ClassCensus, cfg: NoiseLevelConfig) -> np.ndarray:
    """Per-class noise levels lambda_j = c nu p_j + 1; for c > 0 rare
    classes get strictly larger values, and c = 0 gives lambda = 1
    exactly for every class, the isotropic chain.

    Uses the exact imbalance ratio, not its floored display value, and
    the shares of class_proportions, so the map is
    permutation-equivariant bitwise.
    """
    exact, _ = imbalance_ratio(census)
    nu = exact.numerator / exact.denominator
    return cfg.c * nu * class_proportions(census, cfg) + 1.0


def linear_beta(T: int, beta1: float, betaT: float) -> np.ndarray:
    """Arithmetic progression of step variances, endpoints included."""
    if T < 1:
        raise ConfigError(f"T must be >= 1, got {T}")
    if not (0.0 < beta1 <= betaT < 1.0):
        raise ConfigError(f"need 0 < beta1 <= betaT < 1, got {beta1}, {betaT}")
    return np.linspace(beta1, betaT, T)


def _gamma_row(lam: float, beta: np.ndarray, class_index: int) -> np.ndarray:
    """Cumulative products for one lambda; index 0 holds gamma^0 = 1."""
    if not (np.isfinite(lam) and lam > 0):
        raise ConfigError(f"lambda must be finite and positive, got {lam}")
    factors = 1.0 - lam * beta
    bad = np.nonzero(factors <= 0.0)[0]
    if bad.size:
        t = int(bad[0]) + 1
        raise ScheduleInfeasibleError(class_index, t, float(lam * beta[bad[0]]))
    if beta.size and factors[0] == 1.0:
        # gamma^1 = 1 leaves no noise at t = 1, and the reverse step there
        # divides by 1 - gamma^1
        raise ConfigError(f"lambda*beta^1 = {lam * beta[0]:.6g} is too small for class "
                          f"{class_index}: 1 - lambda*beta^1 rounds to 1")
    out = np.empty(beta.size + 1)
    out[0] = 1.0
    out[1:] = np.cumprod(factors)
    return out


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Immutable bundle of beta, per-class lambda and the gamma table.

    build_schedule makes the three arrays read-only, so one schedule can
    be shared by every caller. Schedules compare and hash by identity,
    which lets the sampler key its memoized plans on them.
    """

    beta: np.ndarray    # (T,)
    lam: np.ndarray     # (k,)
    gamma: np.ndarray   # (k, T+1), gamma[j, t] = gamma_j^t

    @property
    def T(self) -> int:
        return self.beta.size

    @property
    def k(self) -> int:
        return self.lam.size

    def gamma_for(self, lam: float) -> np.ndarray:
        """Gamma sequence (length T+1) for an arbitrary scalar lambda.

        Bitwise identical to the stored row when lam is one of self.lam,
        since both run the same left-to-right product.
        """
        return _gamma_row(float(lam), self.beta, class_index=-1)


def build_schedule(beta: np.ndarray, lam: np.ndarray) -> NoiseSchedule:
    """Validate feasibility and precompute the gamma table; the schedule
    holds read-only copies of beta and lam."""
    beta = np.array(beta, dtype=np.float64)
    lam = np.atleast_1d(np.array(lam, dtype=np.float64))
    gamma = np.empty((lam.size, beta.size + 1))
    for j, lj in enumerate(lam):
        gamma[j] = _gamma_row(float(lj), beta, class_index=j)
    for arr in (beta, lam, gamma):
        arr.flags.writeable = False
    return NoiseSchedule(beta=beta, lam=lam, gamma=gamma)


def inference_lambda(prior_logits, census: ClassCensus,
                     cfg: NoiseLevelConfig) -> float | np.ndarray:
    """Noise level of the class the prior model predicts.

    One logit vector gives a float; an (n, k) matrix gives one level per
    row. Ties in the softmax argmax break toward the lowest class index.
    """
    logits = np.asarray(prior_logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=-1, keepdims=True)
    lam = lambda_vector(census, cfg)[np.argmax(probs, axis=-1)]
    return float(lam) if logits.ndim == 1 else lam
