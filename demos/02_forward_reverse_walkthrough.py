"""Forward corruption and the reverse chain, step by step.

Shows that forward draws have the advertised moments, that the reverse
update collapses to the classic isotropic rule at lambda = 1, and what
one reverse trajectory looks like. Run as
`python demos/02_forward_reverse_walkthrough.py`.
"""

import numpy as np

from adpm import (ClassCensus, DenoiserParams, NoiseLevelConfig, build_schedule,
                  forward_sample, lambda_vector, linear_beta, reverse_step, sample)

census = ClassCensus((80, 30, 10))
cfg = NoiseLevelConfig(alpha=1.0 / 6.0, c=3.0)
lam = lambda_vector(census, cfg)
sched = build_schedule(linear_beta(60, 1e-4, 0.01), lam)
rng = np.random.default_rng(0)

# Forward draws: y^t = sqrt(g) y0 + sqrt(1-g) eps + (1-sqrt(g)) prior.
y0 = np.array([0.0, 0.0, 1.0])     # a tail-class one-hot label
prior = np.array([0.1, 0.2, 0.7])  # what a prior model might say
j, t = 2, 40
draws = np.stack([forward_sample(sched, j, y0, prior, t, rng).y_t
                  for _ in range(20_000)])
g = sched.gamma[j, t]
print(f"forward marginal at t={t} for class {j} (gamma = {g:.4f})")
print("  sample mean:", draws.mean(axis=0).round(4))
print("  expected:   ", (np.sqrt(g) * y0 + (1 - np.sqrt(g)) * prior).round(4))
print("  sample var: ", draws.var(axis=0).round(4), " expected:", round(1 - g, 4))

# The same t corrupts tail classes harder than head classes.
print("\nper-class surviving signal at this t:",
      [round(float(sched.gamma[c, t]), 4) for c in range(3)])

# Reverse update at lambda = 1 with no prior shift is the textbook rule.
# A noise level is addressed by its class in a schedule: class 0 of iso.
iso = build_schedule(sched.beta, np.array([1.0]))
alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - sched.beta)])
y_t = rng.standard_normal(3)
eps_hat = rng.standard_normal(3)
z = rng.standard_normal(3)
ours = reverse_step(iso, 0, t, y_t, np.zeros(3), eps_hat, z)
beta_t = sched.beta[t - 1]
sigma = np.sqrt(beta_t * (1 - alpha_bar[t - 1]) / (1 - alpha_bar[t]))
classic = (y_t - beta_t / np.sqrt(1 - alpha_bar[t]) * eps_hat) \
    / np.sqrt(1 - beta_t) + sigma * z
print("\nisotropic reduction, max |diff| =", float(np.abs(ours - classic).max()))

# One full reverse chain (an untrained denoiser, so the endpoint is
# driven by the prior): a 1-row batch at the level of the class the prior
# ranks first. The trace records every intermediate state.
params = DenoiserParams.init(3, 16, 8, 8, np.random.default_rng(1))
res = sample(sched, params, prior[None, :], [int(np.argmax(prior))],
             [np.random.default_rng(2)], steps=12, trace=True)[0]
print(f"\nreverse chain with {len(res.trace) - 1} strided steps, "
      f"lambda = {res.lam:.2f} (the predicted class's level)")
for t_label, y in res.trace[::3]:
    print(f"  t={t_label:3d}  y = {np.round(y, 3)}")
print("predicted class:", res.pred_class)
