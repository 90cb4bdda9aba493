"""Desk-scale simulation environments.

Two tasks are bundled:

- ``keydoor``: a two-room gridworld where the agent must pick up a key,
  open the locked door in the dividing wall and reach the goal.  Sparse
  reward (1 on reaching the goal, 0 otherwise).
- ``pointreach``: a continuous 2-D point-mass that must drive to a target
  position.  Dense negative-distance reward.

Both environments are deterministic given a reset seed, so replaying the
same seed and action sequence yields bit-identical trajectories.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ActionSpec:
    """Action-space description shared by environments, datasets and nets."""

    kind: str  # "discrete" | "continuous"
    n: int = 0  # number of actions (discrete)
    dim: int = 0  # action vector length (continuous)
    low: float = -1.0
    high: float = 1.0

    def to_dict(self) -> dict:
        if self.kind == "discrete":
            return {"kind": "discrete", "n": self.n}
        return {"kind": "continuous", "dim": self.dim, "low": self.low, "high": self.high}

    @staticmethod
    def from_dict(d: dict) -> "ActionSpec":
        if d["kind"] == "discrete":
            return ActionSpec(kind="discrete", n=int(d["n"]))
        return ActionSpec(
            kind="continuous", dim=int(d["dim"]), low=float(d["low"]), high=float(d["high"])
        )


@dataclass
class StepResult:
    """Outcome of one environment step.

    ``reward`` is the true task reward; it is used only for evaluation and
    for the sparse-reward policy-gradient baseline, never as a training
    signal for the imitation learners.  ``done`` marks task termination,
    ``truncated`` marks running out of horizon.
    """

    obs: np.ndarray
    reward: float
    done: bool
    truncated: bool


def make_env(env_id: str):
    """Build an environment from its string id (``keydoor8`` .. ``pointreach``)."""
    if env_id.startswith("keydoor"):
        size = int(env_id[len("keydoor"):])
        return KeyDoorEnv(size)
    if env_id == "pointreach":
        return PointReachEnv()
    raise ValueError(f"unknown env id: {env_id!r}")


# imported last: both modules import ActionSpec and StepResult from here
from .keydoor import KeyDoorEnv
from .pointreach import PointReachEnv

__all__ = ["ActionSpec", "StepResult", "make_env", "KeyDoorEnv", "PointReachEnv"]
