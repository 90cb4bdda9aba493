"""Key-Door gridworld.

The grid is split into two rooms by a full-height wall at a random column
with a single door cell.  Agent and key start in one room, the goal in the
other.  Walking onto the key picks it up; walking onto the door with the
key opens it permanently.  Reaching the goal gives reward 1 and ends the
episode; every other step gives 0.  Wall, key, door, goal and agent are
re-randomized on every reset.

Actions: 0=up, 1=down, 2=left, 3=right.  Moves into walls, the closed
door, or off the grid are no-ops.  Horizon: 4 * size**2 steps.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import ActionSpec, StepResult

SUPPORTED_SIZES = (8, 10, 12)
N_ACTIONS = 4
ACTION_DELTAS = ((-1, 0), (1, 0), (0, -1), (0, 1))  # up, down, left, right

# observation channels, one-hot per cell
CH_EMPTY, CH_WALL, CH_KEY, CH_DOOR, CH_GOAL, CH_AGENT = range(6)
N_CHANNELS = 6


@dataclass(frozen=True)
class GridState:
    """Full simulation state of the Key-Door task.

    ``wall_col=None`` builds a degenerate single-room grid; this never
    occurs from :func:`keydoor_reset` and exists for planner fixtures.
    """

    grid_size: int
    agent_pos: Tuple[int, int]
    key_pos: Tuple[int, int]
    door_pos: Tuple[int, int]
    goal_pos: Tuple[int, int]
    wall_col: Optional[int]
    has_key: bool = False
    door_open: bool = False
    steps_elapsed: int = 0

    @property
    def horizon(self) -> int:
        return 4 * self.grid_size * self.grid_size

    def is_terminal(self) -> bool:
        return self.agent_pos == self.goal_pos


def keydoor_reset(grid_size: int, rng_seed: int) -> GridState:
    """Sample a fresh, solvable-by-construction episode layout."""
    if grid_size not in SUPPORTED_SIZES:
        raise ValueError(f"grid_size must be one of {SUPPORTED_SIZES}, got {grid_size}")
    rng = np.random.default_rng(rng_seed)
    n = grid_size
    wall_col = int(rng.integers(1, n - 1))
    door_pos = (int(rng.integers(0, n)), wall_col)

    # agent + key in one room, goal in the other; which room is random
    left_cols = np.arange(0, wall_col)
    right_cols = np.arange(wall_col + 1, n)
    agent_side, goal_side = (left_cols, right_cols) if rng.random() < 0.5 else (right_cols, left_cols)

    def sample_cell(cols) -> Tuple[int, int]:
        return (int(rng.integers(0, n)), int(rng.choice(cols)))

    agent_pos = sample_cell(agent_side)
    key_pos = sample_cell(agent_side)
    while key_pos == agent_pos:
        key_pos = sample_cell(agent_side)
    goal_pos = sample_cell(goal_side)

    return GridState(
        grid_size=n,
        agent_pos=agent_pos,
        key_pos=key_pos,
        door_pos=door_pos,
        goal_pos=goal_pos,
        wall_col=wall_col,
    )


def _in_bounds(pos: Tuple[int, int], n: int) -> bool:
    return 0 <= pos[0] < n and 0 <= pos[1] < n


def _passable(state: GridState, pos: Tuple[int, int]) -> bool:
    if state.wall_col is None or pos[1] != state.wall_col:
        return True
    if pos == state.door_pos:
        return state.has_key or state.door_open
    return False


def keydoor_step(state: GridState, action: int) -> Tuple[GridState, StepResult]:
    """Advance one step; blocked moves leave the agent in place."""
    a = int(action)
    if a != action or not 0 <= a < N_ACTIONS:
        raise ValueError(f"action must be an integer in 0..3, got {action}")
    if state.is_terminal():
        raise ValueError("cannot step a terminal state")

    dr, dc = ACTION_DELTAS[a]
    target = (state.agent_pos[0] + dr, state.agent_pos[1] + dc)
    new_pos = target if _in_bounds(target, state.grid_size) and _passable(state, target) else state.agent_pos

    has_key = state.has_key or new_pos == state.key_pos
    door_open = state.door_open or (new_pos == state.door_pos and has_key)
    new_state = GridState(
        grid_size=state.grid_size,
        agent_pos=new_pos,
        key_pos=state.key_pos,
        door_pos=state.door_pos,
        goal_pos=state.goal_pos,
        wall_col=state.wall_col,
        has_key=has_key,
        door_open=door_open,
        steps_elapsed=state.steps_elapsed + 1,
    )
    done = new_state.is_terminal()
    reward = 1.0 if done else 0.0
    truncated = not done and new_state.steps_elapsed >= new_state.horizon
    return new_state, StepResult(obs=encode_grid_obs(new_state), reward=reward, done=done, truncated=truncated)


def encode_grid_obs(state: GridState) -> np.ndarray:
    """One-hot cell channels (empty/wall/key/door/goal/agent) plus a has_key flag.

    Layout: cell-major, 6 channels per cell, row-major cells; length
    6 * size**2 + 1.  Exactly one channel is active per cell; the agent
    channel overrides whatever it stands on.
    """
    n = state.grid_size
    end = N_CHANNELS * n * n
    obs = np.zeros(end + 1)
    obs[CH_EMPTY:end:N_CHANNELS] = 1.0
    wall_col = state.wall_col
    if wall_col is not None:
        first = N_CHANNELS * wall_col  # the wall column's top cell; one row down is N_CHANNELS * n further
        obs[first + CH_EMPTY : end : N_CHANNELS * n] = 0.0
        obs[first + CH_WALL : end : N_CHANNELS * n] = 1.0
    # later entries override earlier ones on a shared cell, as the agent overrides all
    features = {state.door_pos: CH_DOOR, state.goal_pos: CH_GOAL}
    if not state.has_key:
        features[state.key_pos] = CH_KEY
    features[state.agent_pos] = CH_AGENT
    for (r, c), channel in features.items():
        cell = N_CHANNELS * (r * n + c)
        obs[cell + (CH_WALL if c == wall_col else CH_EMPTY)] = 0.0
        obs[cell + channel] = 1.0
    obs[end] = 1.0 if state.has_key else 0.0
    return obs


class KeyDoorEnv:
    """Stateful wrapper over the functional reset/step ops."""

    def __init__(self, grid_size: int):
        if grid_size not in SUPPORTED_SIZES:
            raise ValueError(f"grid_size must be one of {SUPPORTED_SIZES}, got {grid_size}")
        self.grid_size = grid_size
        self.env_id = f"keydoor{grid_size}"
        self.obs_dim = N_CHANNELS * grid_size * grid_size + 1
        self.action_spec = ActionSpec(kind="discrete", n=N_ACTIONS)
        self.horizon = 4 * grid_size * grid_size
        self.state: Optional[GridState] = None

    def reset(self, seed: int) -> np.ndarray:
        self.state = keydoor_reset(self.grid_size, seed)
        return encode_grid_obs(self.state)

    def step(self, action: int) -> StepResult:
        if self.state is None:
            raise RuntimeError("reset() must be called before step()")
        self.state, result = keydoor_step(self.state, action)
        return result
