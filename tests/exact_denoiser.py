"""The noise prediction that minimizes the training loss, in closed form.

Training labels are one-hot, and the denoiser sees an input only through
its prior y_f. So if class j has weight w_j given y_f, and a label of
class j is corrupted at its own level gamma_j^t, the state y_t has the
posterior class probabilities

    pi_j ~ w_j N(y_t; sqrt(gamma_j) e_j + (1 - sqrt(gamma_j)) y_f, (1 - gamma_j) I),

and the best noise prediction is Tweedie's posterior mean of the noise

    eps* = sum_j pi_j (y_t - sqrt(gamma_j) e_j - (1 - sqrt(gamma_j)) y_f) / sqrt(1 - gamma_j).

A reverse chain fed eps* ends at class j with probability w_j when its
update is the posterior of the forward kernel. Tests use it as an oracle
that needs no training.
"""

import numpy as np


def exact_eps(y_t, y_f, w, gamma_t):
    """eps* for (n, k) states y_t and priors y_f, class weights w (k,) and
    the classes' gamma^t (k,)."""
    k = y_t.shape[1]
    root = np.sqrt(gamma_t)[None, :, None]                        # (1, j, 1)
    var = (1.0 - gamma_t)[None, :]                                # (1, j)
    means = root * np.eye(k)[None] + (1.0 - root) * y_f[:, None, :]  # (n, j, k)
    resid = y_t[:, None, :] - means
    logp = np.log(w)[None, :] - 0.5 * (resid ** 2).sum(axis=2) / var \
        - 0.5 * k * np.log(var)
    pi = np.exp(logp - logp.max(axis=1, keepdims=True))
    pi /= pi.sum(axis=1, keepdims=True)
    return np.einsum("nj,njk->nk", pi / np.sqrt(var), resid)
