"""Categorical and diagonal-Gaussian policy distributions.

Log-probabilities, entropies, samples, and the gradients of those
quantities w.r.t. the distribution parameters (logits, or mean and
log-std).  The Gaussian log-std is a free parameter clamped into
[LOG_STD_MIN, LOG_STD_MAX]; gradients are masked outside the open
interval so the clamp is respected exactly.
"""

from typing import Tuple

import numpy as np

from .nets import LOG_STD_MAX, LOG_STD_MIN

LOG_2PI = np.log(2.0 * np.pi)


# -- categorical -----------------------------------------------------------


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def categorical_log_prob(logits: np.ndarray, actions: np.ndarray) -> np.ndarray:
    actions = np.asarray(actions, dtype=np.int64)
    if actions.min() < 0 or actions.max() >= logits.shape[-1]:
        raise ValueError("action index out of range")
    return log_softmax(logits)[np.arange(len(actions)), actions]


def categorical_entropy(logits: np.ndarray) -> np.ndarray:
    logp = log_softmax(logits)
    return -(np.exp(logp) * logp).sum(axis=-1)


def categorical_sample(logits: np.ndarray, rng: np.random.Generator) -> int:
    p = softmax(logits)
    # the cumsum can round below 1, so a draw above it would index past the end
    return min(int(np.searchsorted(np.cumsum(p), rng.random())), p.shape[-1] - 1)


def d_categorical_log_prob(logits: np.ndarray, actions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """d(sum_i w_i * log p(a_i)) / d logits."""
    p = softmax(logits)
    onehot = np.zeros_like(p)
    onehot[np.arange(len(actions)), np.asarray(actions, dtype=np.int64)] = 1.0
    return (onehot - p) * np.asarray(weights).reshape(-1, 1)


def d_categorical_entropy(logits: np.ndarray) -> np.ndarray:
    """d(sum_i H(p_i)) / d logits."""
    logp = log_softmax(logits)
    p = np.exp(logp)
    h = -(p * logp).sum(axis=-1, keepdims=True)
    return -p * (logp + h)


# -- diagonal gaussian -------------------------------------------------------


def clamped_log_std(raw: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Clamped log-std and the 0/1 mask where the clamp is inactive."""
    clamped = np.clip(raw, LOG_STD_MIN, LOG_STD_MAX)
    mask = ((raw > LOG_STD_MIN) & (raw < LOG_STD_MAX)).astype(np.float64)
    return clamped, mask


def gaussian_log_prob(mean: np.ndarray, log_std: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Log-density of the unclipped diagonal Gaussian at ``actions``.

    Sampled actions are clipped to the action bounds, and this is evaluated
    at the clipped action, not under the censored distribution clipping
    produces; the log-prob is therefore biased for actions near the bounds.
    """
    z = (actions - mean) / np.exp(log_std)
    return (-0.5 * z**2 - log_std - 0.5 * LOG_2PI).sum(axis=-1)


def gaussian_entropy(log_std: np.ndarray, batch: int) -> np.ndarray:
    h = float((log_std + 0.5 * (LOG_2PI + 1.0)).sum())
    return np.full(batch, h)


def gaussian_sample(mean: np.ndarray, log_std: np.ndarray, rng: np.random.Generator, low: float, high: float) -> np.ndarray:
    eps = rng.standard_normal(mean.shape[-1])
    return np.clip(mean + np.exp(log_std) * eps, low, high)


def d_gaussian_log_prob(
    mean: np.ndarray, log_std: np.ndarray, actions: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients of sum_i w_i * log N(a_i | mean_i, std) w.r.t. mean and log-std."""
    w = np.asarray(weights).reshape(-1, 1)
    inv_var = np.exp(-2.0 * log_std)
    diff = actions - mean
    d_mean = w * diff * inv_var
    d_log_std = (w * (diff**2 * inv_var - 1.0)).sum(axis=0)
    return d_mean, d_log_std
