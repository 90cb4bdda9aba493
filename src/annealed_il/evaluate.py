"""Greedy-policy evaluation over fresh episodes."""

import json
from dataclasses import dataclass
from typing import List

import numpy as np

from .envs import make_env
from .nets import MLP, load_checkpoint


@dataclass
class EvalReport:
    returns: List[float]
    env_steps: int = 0  # training env-steps consumed when this eval ran

    @property
    def n_episodes(self) -> int:
        return len(self.returns)

    @property
    def mean(self) -> float:
        return float(np.mean(self.returns))

    @property
    def std(self) -> float:
        return float(np.std(self.returns))

    def to_dict(self) -> dict:
        return {
            "env_steps": self.env_steps,
            "n_episodes": self.n_episodes,
            "mean": self.mean,
            "std": self.std,
            "returns": [float(r) for r in self.returns],
        }


def evaluate_net(net: MLP, env, n_episodes: int, rng_seed: int, env_steps: int = 0) -> EvalReport:
    """Deterministic evaluation: greedy actions over n fresh episodes, run in lockstep.

    One forward over the live episodes' observations picks every action of a
    step: the argmax logit, or the Gaussian mean clamped into the action box.
    Every episode steps through ``env`` itself, with its state swapped into
    ``env.state``, so ``env.reset`` runs once per episode and ``env.step`` once
    per episode step.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    rng = np.random.default_rng(rng_seed)
    reset_seeds = [int(rng.integers(0, 2**63)) for _ in range(n_episodes)]
    obs = np.empty((n_episodes, env.obs_dim))
    states = []
    for i, seed in enumerate(reset_seeds):
        obs[i] = env.reset(seed)
        states.append(env.state)
    spec = env.action_spec
    returns = [0.0] * n_episodes
    live = list(range(n_episodes))
    while live:
        pi = net.forward(obs[live])[0]["pi"]
        actions = pi.argmax(axis=1).tolist() if spec.kind == "discrete" else np.clip(pi, spec.low, spec.high)
        still_live = []
        for i, action in zip(live, actions):
            env.state = states[i]
            result = env.step(action)
            states[i] = env.state
            returns[i] += result.reward
            obs[i] = result.obs
            if not (result.done or result.truncated):
                still_live.append(i)
        live = still_live
    return EvalReport(returns=returns, env_steps=env_steps)


def evaluate_checkpoint(path, env_id: str, n_episodes: int, rng_seed: int) -> EvalReport:
    net, meta = load_checkpoint(path)
    env = make_env(env_id)
    if meta.get("env_id") not in (None, env_id):
        raise ValueError(f"checkpoint was trained on {meta['env_id']!r}, not {env_id!r}")
    if net.in_dim != env.obs_dim:
        raise ValueError(
            f"checkpoint input dim {net.in_dim} does not match env obs dim {env.obs_dim}"
        )
    return evaluate_net(net, env, n_episodes, rng_seed)


def pool_reports(per_seed: dict) -> dict:
    """Pooled statistics over all episodes of all seeds."""
    all_returns = [r for report in per_seed.values() for r in report.returns]
    return {
        "per_seed": {
            str(seed): report.to_dict() for seed, report in sorted(per_seed.items())
        },
        "pooled_mean": float(np.mean(all_returns)),
        "pooled_std": float(np.std(all_returns)),
        "n_episodes": len(all_returns),
    }


def write_json(path, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
