"""The training objective built on an autodiff tape: the gradient oracle.

trainer.batch_loss computes its gradient with a hand-derived backward
pass. This module builds the same objective from adpm.autodiff's ops, the
way training built it before that pass existed, so tests can pin
batch_loss's report and every gradient block to the tape's bitwise.
"""

import numpy as np

from adpm.autodiff import Tape, Var, scalar
from adpm.denoiser import DenoiserParams, time_embed_batch
from adpm.errors import ConfigError, ShapeError
from adpm.losses import LossReport
from adpm.trainer import BRANCHES, KERNEL_BANDWIDTH, MMD_WEIGHT


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


def mmd_loss_graph(tape: Tape, eps_true: Var, eps_pred: Var, sigma: float) -> Var:
    """V-statistic MMD between true and predicted noise batches at RBF
    bandwidth sigma."""
    k_tt = tape.rbf_mean(eps_true, eps_true, sigma)
    k_tp = tape.rbf_mean(eps_pred, eps_true, sigma)
    k_pp = tape.rbf_mean(eps_pred, eps_pred, sigma)
    return tape.add(tape.sub(k_tt, tape.scale(k_tp, 2.0)), k_pp)


def eps_loss_graph(tape: Tape, eps_true: Var, eps_pred: Var) -> Var:
    """Batch mean of squared row differences."""
    if eps_true.shape != eps_pred.shape:
        raise ShapeError(f"shapes differ: {eps_true.shape} vs {eps_pred.shape}")
    n = eps_true.shape[0]
    return tape.scale(tape.sum_sq(tape.sub(eps_pred, eps_true)), 1.0 / n)


def total_loss_graph(tape: Tape, l_g: Var, l_l: Var, l_eps: Var, w: float) -> Var:
    if w <= 0:
        raise ConfigError(f"loss weight w must be positive, got {w}")
    return tape.add(tape.scale(tape.add(l_g, l_l), w), l_eps)


def tape_batch_loss(labels, priors, model, schedule, cfg, draws):
    """batch_loss's report and gradient blocks, named as in
    model.denoiser_blocks(), from one tape; labels is the batch's (nb,)
    class labels and priors its (3, nb, k) global, local and fused priors.
    The time embeddings are computed per row, not gathered from a table,
    and the corruption is written out per branch."""
    _, nb, k = priors.shape
    tape = Tape()
    den_graph = DenoiserGraph(tape, model.denoiser)

    onehot = np.zeros((nb, k))
    onehot[np.arange(nb), labels] = 1.0
    gamma_t = schedule.gamma[labels, draws.t]
    root = np.sqrt(gamma_t)[:, None]
    noise_scale = np.sqrt(1.0 - gamma_t)[:, None]
    signal = tape.const(np.concatenate([root * onehot + noise_scale * draws.eps[i]
                                        for i in range(len(BRANCHES))]))
    prior_coef = tape.const(np.tile(1.0 - root, (len(BRANCHES), k)))
    prior_rows = tape.const(np.concatenate(list(priors)))
    y_t = tape.add(signal, tape.mul(prior_coef, prior_rows))
    stacked = den_graph.predict(y_t, prior_rows, np.tile(draws.t, len(BRANCHES)), cfg.T)
    eps_hat = {b: tape.rows(stacked, i * nb, (i + 1) * nb) for i, b in enumerate(BRANCHES)}

    sigma = KERNEL_BANDWIDTH
    eps = dict(zip(BRANCHES, draws.eps))
    l_g = mmd_loss_graph(tape, tape.const(eps["global"]), eps_hat["global"], sigma)
    l_l = mmd_loss_graph(tape, tape.const(eps["local"]), eps_hat["local"], sigma)
    l_eps = eps_loss_graph(tape, tape.const(eps["fused"]), eps_hat["fused"])
    l_total = total_loss_graph(tape, l_g, l_l, l_eps, MMD_WEIGHT)

    report = LossReport(L_g=scalar(l_g), L_l=scalar(l_l), L_eps=scalar(l_eps),
                        L_total=scalar(l_total))
    grads_by_var = tape.backward(l_total)
    return report, {f"denoiser.{name}": grads_by_var[var]
                    for name, var in den_graph.vars.items()}
