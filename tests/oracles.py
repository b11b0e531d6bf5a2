"""Closed-form reference formulas that the tests check the program against.

They live here, not in ``marsbid``, because the program itself never calls
them: training uses ``ppo_trainer.loss_and_grads``.
"""

import numpy as np

from marsbid.policy_net import gaussian_log_prob, squash_correction


def ppo_loss(log_prob_new, log_prob_old, advantages_normalized, clip_epsilon: float) -> float:
    """Clipped-surrogate loss: negative mean of min(ratio * A, clipped
    ratio * A)."""
    ratio = np.exp(np.asarray(log_prob_new) - np.asarray(log_prob_old))
    adv = np.asarray(advantages_normalized)
    surr = np.minimum(ratio * adv, np.clip(ratio, 1 - clip_epsilon, 1 + clip_epsilon) * adv)
    return float(-surr.mean())


def log_prob_of_action(mean, log_std, a_raw) -> np.ndarray:
    """Log density of a squashed action value in (-1, 1)."""
    a = np.asarray(a_raw, dtype=np.float64)
    u = np.arctanh(a)
    return gaussian_log_prob(u, mean, log_std) - squash_correction(a)
