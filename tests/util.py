"""Shared test helpers: finite-difference gradient oracle, and each term of
the combined policy loss on its own."""

import numpy as np

from annealed_il.losses import policy_loss
from annealed_il.nets import MLP, get_flat, set_flat

# (alpha, value_coef, entropy_coef) of policy_loss that leave one term alone;
# value and entropy also need zero advantages
TERM_WEIGHTS = {
    "pg": (0.0, 0.0, 0.0),
    "value": (0.0, 1.0, 0.0),
    "entropy": (0.0, 0.0, -1.0),
    "bc": (1.0, 0.0, 0.0),
}


def numerical_grad(f, net: MLP, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of the net params."""
    flat = get_flat(net).copy()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        flat[i] += h
        set_flat(net, flat)
        up = f()
        flat[i] -= 2 * h
        set_flat(net, flat)
        down = f()
        flat[i] += h
        grad[i] = (up - down) / (2 * h)
    set_flat(net, flat)
    return grad


def flatten_grads(grads) -> np.ndarray:
    return np.concatenate([g.ravel() for g in grads])


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def policy_term(term, net, spec, obs, actions, advantages=None, targets=None, old_log_probs=None, ppo_clip=None):
    """(value, grads) of one term of ``policy_loss`` with every other term
    weighted zero: the policy-gradient loss, the value regression against
    ``targets``, the mean entropy, or the cloning loss.

    ``(obs, actions)`` is both the rollout and the expert batch.
    ``advantages`` and ``targets`` default to zeros; nonzero advantages
    would add the policy-gradient term to the value and entropy terms.
    """
    alpha, value_coef, entropy_coef = TERM_WEIGHTS[term]
    zeros = np.zeros(len(obs))
    advantages = zeros if advantages is None else advantages
    targets = zeros if targets is None else targets
    total, grads, _ = policy_loss(
        net, spec, obs, actions, advantages, targets, alpha, obs, actions,
        entropy_coef=entropy_coef, value_coef=value_coef, old_log_probs=old_log_probs, ppo_clip=ppo_clip,
    )
    return total, grads
