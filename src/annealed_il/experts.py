"""Scripted expert policies and trajectory collection.

The gridworld expert plans with A* in up to three phases (agent -> key ->
door -> goal, skipping those a mid-episode state has done) and replays
the concatenated action sequence.  The point-reach expert is a
proportional-derivative controller.  ``collect`` rolls any
policy for a number of complete episodes and packs the result into a
:class:`~annealed_il.data.Dataset`.
"""

import heapq
from typing import Callable, List, Tuple

import numpy as np

from .data import Dataset, Trajectory, Transition
from .envs import ActionSpec
from .envs.keydoor import ACTION_DELTAS, GridState

Cell = Tuple[int, int]


class PlanningError(RuntimeError):
    """A planning phase had no path; reset construction guarantees one."""


def astar_shortest_path(
    start: Cell, goal: Cell, grid_size: int, passable: Callable[[Cell], bool]
) -> List[int]:
    """Shortest 4-connected action sequence from start to goal.

    Manhattan-distance heuristic; ties broken by expansion order with
    neighbors generated in fixed action order (up, down, left, right), so
    plans are deterministic.
    """
    if start == goal:
        return []

    def h(c: Cell) -> int:
        return abs(c[0] - goal[0]) + abs(c[1] - goal[1])

    frontier: list = [(h(start), 0, start)]
    came_from: dict = {start: (None, None)}
    cost: dict = {start: 0}
    counter = 0
    while frontier:
        _, _, current = heapq.heappop(frontier)
        if current == goal:
            actions: List[int] = []
            node = current
            while came_from[node][0] is not None:
                node, action = came_from[node]
                actions.append(action)
            actions.reverse()
            return actions
        for action, (dr, dc) in enumerate(ACTION_DELTAS):
            nxt = (current[0] + dr, current[1] + dc)
            if not (0 <= nxt[0] < grid_size and 0 <= nxt[1] < grid_size):
                continue
            if not passable(nxt):
                continue
            new_cost = cost[current] + 1
            if nxt not in cost or new_cost < cost[nxt]:
                cost[nxt] = new_cost
                counter += 1
                heapq.heappush(frontier, (new_cost + h(nxt), counter, nxt))
                came_from[nxt] = (current, action)
    raise PlanningError(f"no path from {start} to {goal}")


def _phase_passable(state: GridState, door_passable: bool) -> Callable[[Cell], bool]:
    def passable(cell: Cell) -> bool:
        if cell[1] != state.wall_col:
            return True
        return door_passable and cell == state.door_pos

    return passable


def _past_door(state: GridState, cell: Cell) -> bool:
    """Whether ``cell`` lies in the goal's room, beyond the dividing wall."""
    return (cell[1] - state.wall_col) * (state.goal_pos[1] - state.wall_col) > 0


def astar_plan(state: GridState) -> List[int]:
    """Plan from ``state`` to the goal: to the key unless it is held, on to the
    door unless the agent is already past it, then to the goal.

    The door only becomes passable once the key leg is complete.  From a
    fresh reset this is the full agent -> key -> door -> goal plan.  Raises
    :class:`PlanningError` if any leg is unreachable, which indicates a
    broken state.
    """
    n = state.grid_size
    door_passable = _phase_passable(state, True)
    plan, pos = [], state.agent_pos
    if not state.has_key:
        plan += astar_shortest_path(pos, state.key_pos, n, _phase_passable(state, False))
        pos = state.key_pos
    if not _past_door(state, pos):
        plan += astar_shortest_path(pos, state.door_pos, n, door_passable)
        pos = state.door_pos
    return plan + astar_shortest_path(pos, state.goal_pos, n, door_passable)


PD_KP = 1.0
PD_KD = 0.5


def point_expert(obs: np.ndarray) -> np.ndarray:
    """PD control law on the point-reach observation (pos, vel, target-pos)."""
    obs = np.asarray(obs, dtype=np.float64)
    vel = obs[2:4]
    err = obs[4:6]
    return np.clip(PD_KP * err - PD_KD * vel, -1.0, 1.0)


class AStarExpert:
    """Plans once per episode and replays the action sequence."""

    def start_episode(self, env) -> None:
        self._actions = iter(astar_plan(env.state))

    def act(self, obs: np.ndarray) -> int:
        return next(self._actions)


class PointExpert:
    def start_episode(self, env) -> None:
        pass

    def act(self, obs: np.ndarray) -> np.ndarray:
        return point_expert(obs)


class RandomPolicy:
    def __init__(self, action_spec: ActionSpec, rng: np.random.Generator):
        self.action_spec = action_spec
        self.rng = rng

    def start_episode(self, env) -> None:
        pass

    def act(self, obs: np.ndarray):
        if self.action_spec.kind == "discrete":
            return int(self.rng.integers(self.action_spec.n))
        return self.rng.uniform(self.action_spec.low, self.action_spec.high, size=self.action_spec.dim)


def run_episode(env, policy, reset_seed: int) -> Trajectory:
    """Roll one complete episode (to done or truncation)."""
    obs = env.reset(reset_seed)
    policy.start_episode(env)
    transitions = []
    while True:
        action = policy.act(obs)
        result = env.step(action)
        transitions.append(Transition(obs=obs, action=action, reward=result.reward, done=result.done))
        obs = result.obs
        if result.done or result.truncated:
            return Trajectory(transitions)


def collect(env, policy, n_trajectories: int, rng_seed: int) -> Dataset:
    """Record ``n_trajectories`` complete episodes; episode i uses seed rng_seed + i."""
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be >= 1")
    trajectories = [run_episode(env, policy, rng_seed + i) for i in range(n_trajectories)]
    return Dataset(
        trajectories=trajectories,
        env_id=env.env_id,
        obs_dim=env.obs_dim,
        action_spec=env.action_spec,
    )
