"""The training step's objective composed term by term, as a test oracle.

trainer.batch_loss scores the global and local branches with one stacked
MMD call, projects each batch's time rows once for its three branches
and gathers one-hot labels from a table built once. This module composes
the same objective the way batch_loss did before: the identity built per
call, every branch's time rows projected in one product, and one 2-D
MMD call per branch. Tests pin batch_loss's report and gradient to it
bitwise.
"""

import numpy as np

from adpm.diffusion import forward_kernel
from adpm.losses import LossReport, eps_loss, mmd_loss, total_loss
from adpm.trainer import KERNEL_BANDWIDTH, MMD_WEIGHT


def batch_loss(labels, priors, t_table, model, schedule, draws):
    """batch_loss's report and gradient vector, one loss call per term."""
    n_branches, nb, k = priors.shape
    gamma = schedule.gamma[labels, draws.t][:, None]
    y_t = forward_kernel(gamma, np.eye(k)[labels], draws.eps, priors)
    acts = model.denoiser.forward(y_t.reshape(-1, k), priors.reshape(-1, k),
                                  t_table[np.tile(draws.t, n_branches)])
    eps_hat = acts.out.reshape(n_branches, nb, k)
    l_g, g_g = mmd_loss(draws.eps[0], eps_hat[0], KERNEL_BANDWIDTH, MMD_WEIGHT)
    l_l, g_l = mmd_loss(draws.eps[1], eps_hat[1], KERNEL_BANDWIDTH, MMD_WEIGHT)
    l_eps, g_f = eps_loss(draws.eps[2], eps_hat[2])
    report = LossReport(L_g=l_g, L_l=l_l, L_eps=l_eps,
                        L_total=total_loss(l_g, l_l, l_eps, MMD_WEIGHT))
    return report, model.denoiser.backward(acts, np.concatenate([g_g, g_l, g_f]))
