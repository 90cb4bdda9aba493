"""Expert policies: A* optimality against a BFS oracle, PD control law,
collection contracts."""

from collections import deque

import numpy as np
import pytest

from annealed_il.envs import KeyDoorEnv, PointReachEnv, make_env
from annealed_il.envs.keydoor import ACTION_DELTAS, GridState, keydoor_reset, keydoor_step
from annealed_il.experts import (
    AStarExpert,
    PlanningError,
    PointExpert,
    RandomPolicy,
    astar_plan,
    astar_shortest_path,
    collect,
    point_expert,
)


def bfs_shortest_length(start, goal, grid_size, passable):
    """Independent oracle: breadth-first shortest path length."""
    if start == goal:
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        pos, d = queue.popleft()
        for dr, dc in ACTION_DELTAS:
            nxt = (pos[0] + dr, pos[1] + dc)
            if nxt == goal:
                return d + 1
            if 0 <= nxt[0] < grid_size and 0 <= nxt[1] < grid_size and passable(nxt) and nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, d + 1))
    return None


def bfs_plan_length(state: GridState) -> int:
    def side(door_ok):
        def passable(cell):
            if cell[1] != state.wall_col:
                return True
            return door_ok and cell == state.door_pos

        return passable

    legs = [
        bfs_shortest_length(state.agent_pos, state.key_pos, state.grid_size, side(False)),
        bfs_shortest_length(state.key_pos, state.door_pos, state.grid_size, side(True)),
        bfs_shortest_length(state.door_pos, state.goal_pos, state.grid_size, side(True)),
    ]
    assert all(leg is not None for leg in legs)
    return sum(legs)


@pytest.mark.parametrize("size", [8, 10, 12])
def test_astar_matches_bfs_oracle(size):
    for seed in range(50):
        state = keydoor_reset(size, seed)
        assert len(astar_plan(state)) == bfs_plan_length(state)


def test_astar_plan_reaches_goal_with_reward_one():
    for seed in range(20):
        state = keydoor_reset(8, seed)
        total = 0.0
        for action in astar_plan(state):
            state, result = keydoor_step(state, action)
            total += result.reward
        assert result.done and total == 1.0


@pytest.mark.parametrize("size", [8, 10, 12])
def test_astar_replans_from_every_state_of_a_walk(size):
    # once the key is held and the door passed, the plan skips those legs;
    # a replan from each step of an optimal walk is that walk's remainder
    for seed in range(20):
        state = keydoor_reset(size, 500 + seed)
        remaining = len(astar_plan(state))
        while not state.is_terminal():
            plan = astar_plan(state)
            assert len(plan) == remaining
            state, result = keydoor_step(state, plan[0])
            remaining -= 1
        assert remaining == 0 and result.reward == 1.0 and state.door_open


def test_astar_unreachable_fails_loudly():
    with pytest.raises(PlanningError):
        astar_shortest_path((0, 0), (0, 2), 8, lambda cell: cell[1] != 1)


def test_astar_deterministic():
    state = keydoor_reset(10, 42)
    assert astar_plan(state) == astar_plan(state)


def test_point_expert_zero_error_zero_action():
    obs = np.zeros(6)
    assert np.array_equal(point_expert(obs), np.zeros(2))


def test_point_expert_pd_law():
    # pos=(0,0), vel=(0,0), target=(1,0): err=(1,0) -> action (1, 0)
    obs = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    assert np.allclose(point_expert(obs), [1.0, 0.0])
    # the derivative term opposes velocity and the result clamps to [-1, 1]
    obs = np.array([0.0, 0.0, 0.5, 0.0, 1.0, 0.0])
    assert np.allclose(point_expert(obs), [0.75, 0.0])
    obs = np.array([0.0, 0.0, -1.0, 0.0, 1.0, 0.0])
    assert np.allclose(point_expert(obs), [1.0, 0.0])


def test_point_expert_beats_random():
    env = PointReachEnv()
    expert_ds = collect(env, PointExpert(), 20, 0)
    random_ds = collect(env, RandomPolicy(env.action_spec, np.random.default_rng(0)), 20, 0)
    expert_mean = np.mean([t.total_reward for t in expert_ds.trajectories])
    random_mean = np.mean([t.total_reward for t in random_ds.trajectories])
    assert expert_mean > random_mean


def test_collect_counts_and_success():
    env = KeyDoorEnv(8)
    ds = collect(env, AStarExpert(), 25, 0)
    assert len(ds) == 25
    assert ds.env_id == "keydoor8"
    for traj in ds.trajectories:
        assert traj.transitions[-1].done
        assert traj.total_reward == 1.0


def test_collect_single_trajectory():
    env = PointReachEnv()
    ds = collect(env, PointExpert(), 1, 3)
    assert len(ds) == 1
    assert ds.obs_dim == 6


def test_collect_deterministic():
    env = make_env("keydoor8")
    a = collect(env, AStarExpert(), 5, 7)
    b = collect(make_env("keydoor8"), AStarExpert(), 5, 7)
    assert len(a) == len(b)
    for ta, tb in zip(a.trajectories, b.trajectories):
        assert [t.action for t in ta.transitions] == [t.action for t in tb.transitions]


def test_collect_rejects_zero():
    with pytest.raises(ValueError):
        collect(KeyDoorEnv(8), AStarExpert(), 0, 0)
