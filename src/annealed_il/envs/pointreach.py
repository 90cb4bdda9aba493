"""Continuous 2-D point-reach task.

A point mass with momentum must drive to a random target in [-1, 1]^2.
Acceleration control: vel <- decay * vel + accel_gain * action, position
clamped to the box.  Reward is negative Euclidean distance to the target
minus a small quadratic control cost; the episode ends when the point is
within 0.05 of the target, or is truncated after 200 steps.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import ActionSpec, StepResult

DECAY = 0.9
ACCEL_GAIN = 0.1
V_MAX = 0.2
CTRL_COST = 0.01
GOAL_RADIUS = 0.05
HORIZON = 200
SPAWN_BOUND = 0.8
MIN_SPAWN_DIST = 0.2


@dataclass(frozen=True)
class PointState:
    pos: Tuple[float, float]
    vel: Tuple[float, float]
    target: Tuple[float, float]
    steps_elapsed: int = 0

    def distance(self) -> float:
        return float(np.hypot(self.pos[0] - self.target[0], self.pos[1] - self.target[1]))

    def is_terminal(self) -> bool:
        return self.distance() < GOAL_RADIUS


def point_reset(rng_seed: int) -> PointState:
    rng = np.random.default_rng(rng_seed)
    pos = rng.uniform(-SPAWN_BOUND, SPAWN_BOUND, size=2)
    target = rng.uniform(-SPAWN_BOUND, SPAWN_BOUND, size=2)
    while np.linalg.norm(pos - target) < MIN_SPAWN_DIST:
        target = rng.uniform(-SPAWN_BOUND, SPAWN_BOUND, size=2)
    return PointState(pos=(float(pos[0]), float(pos[1])), vel=(0.0, 0.0), target=(float(target[0]), float(target[1])))


def point_step(
    state: PointState, action: np.ndarray, ctrl_cost: float = CTRL_COST
) -> Tuple[PointState, StepResult]:
    """Advance one step on Python floats; numpy checks and clips the action.

    The control cost stays the BLAS dot ``action @ action`` and the distance
    stays ``np.hypot``: ``a0*a0 + a1*a1`` and ``math.hypot`` round
    differently in the last digit on some inputs, which would change
    rewards and every run trained on them.
    """
    action = np.asarray(action, dtype=np.float64).reshape(2)
    if not np.isfinite(action).all():
        raise ValueError(f"non-finite action: {action}")
    action = action.clip(-1.0, 1.0)
    a0, a1 = action.tolist()

    (px, py), (vx, vy) = state.pos, state.vel
    vx = min(max(DECAY * vx + ACCEL_GAIN * a0, -V_MAX), V_MAX)
    vy = min(max(DECAY * vy + ACCEL_GAIN * a1, -V_MAX), V_MAX)
    px = min(max(px + vx, -1.0), 1.0)
    py = min(max(py + vy, -1.0), 1.0)
    new_state = PointState(pos=(px, py), vel=(vx, vy), target=state.target, steps_elapsed=state.steps_elapsed + 1)
    dist = new_state.distance()
    reward = -dist - ctrl_cost * float(action @ action)
    done = dist < GOAL_RADIUS
    truncated = not done and new_state.steps_elapsed >= HORIZON
    return new_state, StepResult(obs=encode_point_obs(new_state), reward=reward, done=done, truncated=truncated)


def encode_point_obs(state: PointState) -> np.ndarray:
    """(pos, vel, target - pos) concatenated into a 6-vector."""
    (px, py), (vx, vy), (tx, ty) = state.pos, state.vel, state.target
    return np.array([px, py, vx, vy, tx - px, ty - py])


class PointReachEnv:
    """Stateful wrapper over the functional reset/step ops."""

    def __init__(self, ctrl_cost: float = CTRL_COST):
        self.env_id = "pointreach"
        self.obs_dim = 6
        self.action_spec = ActionSpec(kind="continuous", dim=2, low=-1.0, high=1.0)
        self.horizon = HORIZON
        self.ctrl_cost = ctrl_cost
        self.state = None

    def reset(self, seed: int) -> np.ndarray:
        self.state = point_reset(seed)
        return encode_point_obs(self.state)

    def step(self, action: np.ndarray) -> StepResult:
        if self.state is None:
            raise RuntimeError("reset() must be called before step()")
        self.state, result = point_step(self.state, action, self.ctrl_cost)
        return result
