"""On-policy rollout collection and advantage estimation.

A rollout is a fixed number of environment steps, possibly spanning
several (partial) episodes.  Segment ends are marked so that advantage
estimation never mixes episodes: terminal steps bootstrap with 0,
truncated or buffer-cut steps bootstrap with the value of the next
observation.
"""

from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import dists
from .envs import ActionSpec
from .nets import LOG_STD_MAX, LOG_STD_MIN, MLP


@dataclass
class RolloutBuffer:
    obs: np.ndarray  # (N, obs_dim)
    actions: np.ndarray  # (N,) ints or (N, act_dim)
    log_probs: np.ndarray  # (N,) behavior log-probs
    values: np.ndarray  # (N,) V(s_t)
    env_rewards: np.ndarray  # (N,) true task rewards
    rewards: np.ndarray  # (N,) training rewards (filled by the trainer)
    dones: np.ndarray  # (N,) terminal flags
    ends: np.ndarray  # (N,) segment-end flags (terminal, truncated, or cut)
    boot_values: np.ndarray  # (N,) bootstrap V(s_{t+1}) at segment ends, 0 at terminals
    completed_returns: List[float]  # true returns of episodes finished in this rollout

    def __len__(self) -> int:
        return len(self.values)


class EnvRunner:
    """Keeps an environment running across rollout boundaries."""

    def __init__(self, env, seed_rng: np.random.Generator):
        self.env = env
        self.seed_rng = seed_rng
        self.obs = None
        self.episode_return = 0.0

    def _reset(self) -> None:
        self.obs = self.env.reset(int(self.seed_rng.integers(0, 2**63)))
        self.episode_return = 0.0

    def ensure_started(self) -> None:
        if self.obs is None:
            self._reset()


def sample_policy_action(net: MLP, spec: ActionSpec, obs: np.ndarray, rng: np.random.Generator, memo=None):
    """One stochastic action with its log-prob and the state value.

    ``memo`` (discrete specs only) maps an observation's bytes to what
    sampling needs from the net; it holds only while the parameters stay
    fixed.  Without one, nothing is kept.
    """
    if spec.kind == "discrete":
        cdf, logp, value = _discrete_outputs(net, obs, {} if memo is None else memo)
        # the draw is dists.categorical_sample's: the first bin whose cumsum
        # reaches it, clamped where the cumsum rounds below 1
        action = min(bisect_left(cdf, rng.random()), len(cdf) - 1)
        return action, logp[action], value
    outs, _ = net.forward(obs[None, :])
    pi = outs["pi"][0]
    log_std = net.extras["log_std"].clip(LOG_STD_MIN, LOG_STD_MAX)
    action = dists.gaussian_sample(pi, log_std, rng, spec.low, spec.high)
    return action, float(dists.gaussian_log_prob(pi, log_std, action)), float(outs["v"][0, 0])


def _discrete_outputs(net: MLP, obs: np.ndarray, memo: dict) -> Tuple[List[float], List[float], float]:
    """(cumulative probabilities, log-probs, state value) at ``obs``, from
    ``memo`` or from one forward and one log-softmax, then kept in ``memo``."""
    key = obs.tobytes()
    entry = memo.get(key)
    if entry is None:
        outs, _ = net.forward(obs[None, :])
        logp_all = dists.log_softmax(outs["pi"][0])
        entry = memo[key] = (np.cumsum(np.exp(logp_all)).tolist(), logp_all.tolist(), float(outs["v"][0, 0]))
    return entry


def _state_value(net: MLP, obs: np.ndarray, memo) -> float:
    if memo is not None:
        return _discrete_outputs(net, obs, memo)[2]
    outs, _ = net.forward(obs[None, :])
    return float(outs["v"][0, 0])


def collect_rollout(
    runner: EnvRunner,
    net: MLP,
    spec: ActionSpec,
    n_steps: int,
    action_rng: np.random.Generator,
) -> RolloutBuffer:
    runner.ensure_started()
    env = runner.env
    obs_buf = np.empty((n_steps, env.obs_dim))
    if spec.kind == "discrete":
        act_buf = np.empty(n_steps, dtype=np.int64)
    else:
        act_buf = np.empty((n_steps, spec.dim))
    logp_buf = np.empty(n_steps)
    value_buf = np.empty(n_steps)
    env_reward_buf = np.empty(n_steps)
    done_buf = np.zeros(n_steps, dtype=bool)
    end_buf = np.zeros(n_steps, dtype=bool)
    boot_buf = np.zeros(n_steps)
    completed: List[float] = []
    # the parameters are fixed for the whole rollout, and discrete envs
    # revisit observations often (a blocked move leaves it unchanged), so
    # each distinct observation needs one forward per rollout
    memo = {} if spec.kind == "discrete" else None

    for t in range(n_steps):
        obs = runner.obs
        action, logp, value = sample_policy_action(net, spec, obs, action_rng, memo)
        result = env.step(action)
        runner.episode_return += result.reward

        obs_buf[t] = obs
        act_buf[t] = action
        logp_buf[t] = logp
        value_buf[t] = value
        env_reward_buf[t] = result.reward
        done_buf[t] = result.done

        if result.done or result.truncated:
            end_buf[t] = True
            boot_buf[t] = 0.0 if result.done else _state_value(net, result.obs, memo)
            completed.append(runner.episode_return)
            runner._reset()
        else:
            runner.obs = result.obs
            if t == n_steps - 1:  # buffer cut mid-episode
                end_buf[t] = True
                boot_buf[t] = _state_value(net, result.obs, memo)

    return RolloutBuffer(
        obs=obs_buf,
        actions=act_buf,
        log_probs=logp_buf,
        values=value_buf,
        env_rewards=env_reward_buf,
        rewards=np.zeros(n_steps),
        dones=done_buf,
        ends=end_buf,
        boot_values=boot_buf,
        completed_returns=completed,
    )


def compute_advantages(buffer: RolloutBuffer, gamma: float, lam: float) -> Tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and value-regression targets.

    With lam=0 this is the one-step advantage r_t + gamma * V(s_{t+1}) -
    V(s_t), with V(s_{t+1}) = 0 at terminal steps.  Targets are
    advantage + V(s_t).
    """
    n = len(buffer)
    if n == 0:
        raise ValueError("empty rollout buffer")
    if not buffer.ends[-1]:
        raise ValueError("incomplete buffer: last step must close a segment")
    adv = np.empty(n)
    last_adv = 0.0
    for t in range(n - 1, -1, -1):
        if buffer.ends[t]:
            next_value = buffer.boot_values[t]
            last_adv = 0.0  # no advantage flow across segment boundaries
        else:
            next_value = buffer.values[t + 1]
        delta = buffer.rewards[t] + gamma * next_value - buffer.values[t]
        last_adv = delta + gamma * lam * last_adv
        adv[t] = last_adv
    return adv, adv + buffer.values


def discounted_returns(buffer: RolloutBuffer, gamma: float) -> np.ndarray:
    """Monte-Carlo reward-to-go per segment (no bootstrap), for REINFORCE."""
    n = len(buffer)
    returns = np.empty(n)
    running = 0.0
    for t in range(n - 1, -1, -1):
        if buffer.ends[t]:
            running = 0.0
        running = buffer.rewards[t] + gamma * running
        returns[t] = running
    return returns


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    """Shift/scale to mean 0 and std 1; degenerate batches pass through centered."""
    std = adv.std()
    centered = adv - adv.mean()
    if std < 1e-8:
        return centered
    return centered / std
