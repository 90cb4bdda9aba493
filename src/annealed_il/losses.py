"""Training losses with exact analytic gradients.

Covers the cloning loss (expert-action negative log-likelihood), the
discriminator loss in GAN and WGAN flavors, the discriminator-derived
surrogate reward, the policy-gradient loss, value regression, and the
combined weighted update.  Every function returns (scalar loss, gradient
list aligned with ``net.params()``); all gradients are finite-difference
checked in the test suite.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import dists
from .envs import ActionSpec
from .nets import MLP

SURROGATE_REWARD_MAX = 20.0


@dataclass(frozen=True)
class DiscMode:
    variant: str  # "gan" | "wgan"
    clip: float = 0.01  # wgan weight-clip bound

    def __post_init__(self):
        if self.variant not in ("gan", "wgan"):
            raise ValueError(f"unknown discriminator variant {self.variant!r}")
        if self.variant == "wgan" and self.clip <= 0:
            raise ValueError("wgan clip bound must be positive")


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise FloatingPointError(f"{name} is not finite: {value}")
    return value


def _add_grads(a: List[np.ndarray], b: List[np.ndarray]) -> List[np.ndarray]:
    return [x + y for x, y in zip(a, b)]


# -- policy head terms ---------------------------------------------------------
#
# Each term maps the policy head outputs to its value and a head gradient
# (d_pi, d_log_std); either part may be None.  ``_backward`` sums any
# number of head gradients and turns them into parameter gradients with a
# single backward pass.


def _forward(net: MLP, obs: np.ndarray):
    """Forward pass returning (pi output, values, cache)."""
    outs, cache = net.forward(obs)
    return outs["pi"], outs["v"][:, 0], cache


def _log_std(net: MLP) -> np.ndarray:
    return dists.clamped_log_std(net.extras["log_std"])[0]


def _log_prob(net: MLP, spec: ActionSpec, pi: np.ndarray, actions: np.ndarray) -> np.ndarray:
    if spec.kind == "discrete":
        return dists.categorical_log_prob(pi, actions)
    return dists.gaussian_log_prob(pi, _log_std(net), actions)


def _d_log_prob(net: MLP, spec: ActionSpec, pi: np.ndarray, actions: np.ndarray, weights: np.ndarray):
    """Head gradient of sum_i weights_i * log pi(a_i | s_i)."""
    if spec.kind == "discrete":
        return dists.d_categorical_log_prob(pi, actions, weights), None
    return dists.d_gaussian_log_prob(pi, _log_std(net), actions, weights)


def _pg_weights(
    logp: np.ndarray,
    advantages: np.ndarray,
    old_log_probs: Optional[np.ndarray],
    ppo_clip: Optional[float],
    coef: float,
) -> Tuple[float, np.ndarray]:
    """Policy-gradient loss and the log-prob weights of coef times its gradient.

    Plain: -mean(log pi(a|s) * A).  With ``ppo_clip`` set, the clipped-ratio
    surrogate against ``old_log_probs`` instead.
    """
    n = len(logp)
    if ppo_clip is None:
        return -(logp * advantages).mean(), -coef * advantages / n
    ratio = np.exp(logp - old_log_probs)
    clipped = np.clip(ratio, 1.0 - ppo_clip, 1.0 + ppo_clip)
    loss = -np.minimum(ratio * advantages, clipped * advantages).mean()
    active = (ratio * advantages <= clipped * advantages).astype(np.float64)
    return loss, -coef * active * ratio * advantages / n


def _value(v: np.ndarray, targets: np.ndarray, coef: float) -> Tuple[float, np.ndarray]:
    """0.5 * mean squared error and the value-head gradient of coef times it."""
    err = v - targets
    return 0.5 * (err**2).mean(), (coef * err / len(v)).reshape(-1, 1)


def _entropy(net: MLP, spec: ActionSpec, pi: np.ndarray, coef: float):
    """Mean entropy and the head gradient of coef times it (None if coef is 0)."""
    n = len(pi)
    if spec.kind == "discrete":
        value = dists.categorical_entropy(pi).mean()
        grad = (coef * dists.d_categorical_entropy(pi) / n, None)
    else:
        value = dists.gaussian_entropy(_log_std(net), n).mean()
        grad = (None, coef)  # dH/dlog_std = 1 per dim
    return value, (grad if coef != 0.0 else None)


def _backward(net: MLP, cache: dict, head_grads, d_v: Optional[np.ndarray] = None) -> List[np.ndarray]:
    """Parameter gradients of the summed head gradients, in one backward pass.

    The log-std gradient is zeroed where its clamp is active.
    """
    head_grads = [g for g in head_grads if g is not None]
    d_pi = None
    for g, _ in head_grads:
        if g is not None:
            d_pi = g if d_pi is None else d_pi + g
    grads = net.backward(cache, {"pi": d_pi, "v": d_v})
    for _, d_log_std in head_grads:
        if d_log_std is not None:
            _, mask = dists.clamped_log_std(net.extras["log_std"])
            grads[net.extra_index("log_std")] += d_log_std * mask
    return grads


def action_log_probs(net: MLP, spec: ActionSpec, obs: np.ndarray, actions: np.ndarray) -> np.ndarray:
    pi, _, _ = _forward(net, obs)
    return _log_prob(net, spec, pi, actions)


# -- cloning loss ------------------------------------------------------------


def bc_loss(net: MLP, spec: ActionSpec, obs: np.ndarray, actions: np.ndarray) -> Tuple[float, List[np.ndarray]]:
    """Mean negative log-likelihood of expert actions under the policy."""
    if len(obs) == 0:
        raise ValueError("cloning loss needs a nonempty batch")
    pi, _, cache = _forward(net, obs)
    loss = _check_finite("bc_loss", -_log_prob(net, spec, pi, actions).mean())
    weights = np.full(len(obs), -1.0 / len(obs))
    return loss, _backward(net, cache, [_d_log_prob(net, spec, pi, actions, weights)])


# -- policy gradient -----------------------------------------------------------


def pg_loss(
    net: MLP,
    spec: ActionSpec,
    obs: np.ndarray,
    actions: np.ndarray,
    advantages: np.ndarray,
    old_log_probs: Optional[np.ndarray] = None,
    ppo_clip: Optional[float] = None,
) -> Tuple[float, List[np.ndarray]]:
    """-mean(log pi(a|s) * A), advantages treated as constants.

    With ``ppo_clip`` set, uses the clipped-ratio surrogate against
    ``old_log_probs`` instead.
    """
    pi, _, cache = _forward(net, obs)
    logp = _log_prob(net, spec, pi, actions)
    loss, weights = _pg_weights(logp, advantages, old_log_probs, ppo_clip, 1.0)
    loss = _check_finite("pg_loss", loss)
    return loss, _backward(net, cache, [_d_log_prob(net, spec, pi, actions, weights)])


def value_loss(net: MLP, obs: np.ndarray, targets: np.ndarray) -> Tuple[float, List[np.ndarray]]:
    """0.5 * mean squared error of the value head against regression targets."""
    _, v, cache = _forward(net, obs)
    loss, d_v = _value(v, targets, 1.0)
    return _check_finite("value_loss", loss), _backward(net, cache, [], d_v)


def entropy_term(net: MLP, spec: ActionSpec, obs: np.ndarray) -> Tuple[float, List[np.ndarray]]:
    """Mean policy entropy over the batch and its gradients."""
    pi, _, cache = _forward(net, obs)
    value, grad = _entropy(net, spec, pi, 1.0)
    return _check_finite("entropy", value), _backward(net, cache, [grad])


def policy_loss(
    net: MLP,
    spec: ActionSpec,
    obs: np.ndarray,
    actions: np.ndarray,
    advantages: np.ndarray,
    value_targets: np.ndarray,
    alpha: float,
    expert_obs: Optional[np.ndarray],
    expert_actions: Optional[np.ndarray],
    entropy_coef: float = 0.0,
    value_coef: float = 0.5,
    old_log_probs: Optional[np.ndarray] = None,
    ppo_clip: Optional[float] = None,
) -> Tuple[float, List[np.ndarray], Dict[str, float]]:
    """Combined update: alpha * L_BC + (1 - alpha) * L_PG + value and entropy terms.

    The rollout terms share one forward/backward pass; the cloning term
    runs on its own expert batch.  Returns (total, grads, component values).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    pi, v, cache = _forward(net, obs)
    logp = _log_prob(net, spec, pi, actions)
    pg_value, logp_weights = _pg_weights(logp, advantages, old_log_probs, ppo_clip, 1.0 - alpha)
    value_value, d_v = _value(v, value_targets, value_coef)
    # the entropy bonus is subtracted from the total
    entropy_value, d_entropy = _entropy(net, spec, pi, -entropy_coef)
    pg_grad = _d_log_prob(net, spec, pi, actions, logp_weights)
    grads = _backward(net, cache, [pg_grad, d_entropy], d_v)

    # cloning term on the expert batch
    bc_value = 0.0
    if alpha > 0.0:
        if expert_obs is None or len(expert_obs) == 0:
            raise ValueError("alpha > 0 requires a nonempty expert batch")
        bc_value, bc_grads = bc_loss(net, spec, expert_obs, expert_actions)
        grads = [g + alpha * b for g, b in zip(grads, bc_grads)]

    total = (
        alpha * bc_value
        + (1.0 - alpha) * pg_value
        + value_coef * value_value
        - entropy_coef * entropy_value
    )
    total = _check_finite("policy_loss", total)
    parts = {
        "bc": float(bc_value),
        "pg": float(pg_value),
        "value": float(value_value),
        "entropy": float(entropy_value),
    }
    return total, grads, parts


# -- discriminator ------------------------------------------------------------


def encode_actions(actions: np.ndarray, spec: ActionSpec) -> np.ndarray:
    """Action encoding used for discriminator input: one-hot or raw vector."""
    if spec.kind == "discrete":
        onehot = np.zeros((len(actions), spec.n))
        onehot[np.arange(len(actions)), np.asarray(actions, dtype=np.int64)] = 1.0
        return onehot
    return np.asarray(actions, dtype=np.float64).reshape(len(actions), spec.dim)


def disc_inputs(obs: np.ndarray, actions: np.ndarray, spec: ActionSpec) -> np.ndarray:
    return np.concatenate([np.asarray(obs, dtype=np.float64), encode_actions(actions, spec)], axis=1)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def disc_loss(
    net: MLP,
    expert_inputs: np.ndarray,
    policy_inputs: np.ndarray,
    mode: DiscMode,
) -> Tuple[float, List[np.ndarray]]:
    """GAN cross-entropy or WGAN critic loss over (obs, action) batches.

    GAN:  -E_expert[log D] - E_policy[log(1 - D)], D = sigmoid(f).
    WGAN: E_policy[f] - E_expert[f]; weight clipping is applied by the
    caller after the optimizer step.
    """
    if len(expert_inputs) == 0 or len(policy_inputs) == 0:
        raise ValueError("discriminator loss needs nonempty batches")
    outs_e, cache_e = net.forward(expert_inputs)
    outs_p, cache_p = net.forward(policy_inputs)
    f_e = outs_e["f"][:, 0]
    f_p = outs_p["f"][:, 0]
    n_e, n_p = len(f_e), len(f_p)

    if mode.variant == "gan":
        loss = _softplus(-f_e).mean() + _softplus(f_p).mean()
        d_f_e = ((_sigmoid(f_e) - 1.0) / n_e).reshape(-1, 1)
        d_f_p = (_sigmoid(f_p) / n_p).reshape(-1, 1)
    else:
        loss = f_p.mean() - f_e.mean()
        d_f_e = np.full((n_e, 1), -1.0 / n_e)
        d_f_p = np.full((n_p, 1), 1.0 / n_p)

    loss = _check_finite("disc_loss", loss)
    grads = _add_grads(net.backward(cache_e, {"f": d_f_e}), net.backward(cache_p, {"f": d_f_p}))
    return loss, grads


def surrogate_reward(net: MLP, obs: np.ndarray, actions: np.ndarray, spec: ActionSpec, mode: DiscMode) -> np.ndarray:
    """Per-step reward the policy maximizes, derived from the discriminator.

    GAN: -log(1 - D(s, a)) = softplus(f), clipped for stability (always
    >= 0).  WGAN: the raw critic value, sign-unconstrained.
    """
    outs, _ = net.forward(disc_inputs(obs, actions, spec))
    f = outs["f"][:, 0]
    if mode.variant == "gan":
        return np.minimum(_softplus(f), SURROGATE_REWARD_MAX)
    return f
