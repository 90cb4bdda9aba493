"""Key-Door gridworld: reset invariants, step semantics, determinism."""

from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from annealed_il.envs import KeyDoorEnv, StepResult
from annealed_il.envs.keydoor import (
    CH_AGENT,
    CH_DOOR,
    CH_EMPTY,
    CH_GOAL,
    CH_KEY,
    CH_WALL,
    N_CHANNELS,
    GridState,
    encode_grid_obs,
    keydoor_reset,
    keydoor_step,
)
from annealed_il.experts import astar_plan


def test_reset_rejects_unsupported_size():
    with pytest.raises(ValueError):
        keydoor_reset(7, 0)
    with pytest.raises(ValueError):
        keydoor_reset(16, 0)


@pytest.mark.parametrize("size", [8, 10, 12])
def test_reset_invariants(size):
    for seed in range(50):
        s = keydoor_reset(size, seed)
        for pos in (s.agent_pos, s.key_pos, s.door_pos, s.goal_pos):
            assert 0 <= pos[0] < size and 0 <= pos[1] < size
        assert 1 <= s.wall_col < size - 1
        assert s.door_pos[1] == s.wall_col
        # agent and key share a side, goal is on the other side
        agent_side = s.agent_pos[1] < s.wall_col
        assert (s.key_pos[1] < s.wall_col) == agent_side
        assert (s.goal_pos[1] < s.wall_col) != agent_side
        assert s.agent_pos[1] != s.wall_col and s.key_pos[1] != s.wall_col
        assert s.goal_pos[1] != s.wall_col
        assert s.agent_pos != s.key_pos
        assert not s.has_key and not s.door_open and s.steps_elapsed == 0


def test_reset_wall_col_coverage():
    # distributional coverage over many seeds
    cols = {keydoor_reset(8, seed).wall_col for seed in range(1000)}
    assert len(cols) >= 2
    assert cols <= set(range(1, 7))


def test_step_rejects_bad_action():
    s = keydoor_reset(8, 0)
    with pytest.raises(ValueError):
        keydoor_step(s, 4)
    with pytest.raises(ValueError):
        keydoor_step(s, -1)
    # non-integral actions are refused, not truncated to a move
    for action in (1.5, 3.99):
        with pytest.raises(ValueError):
            keydoor_step(s, action)


def test_step_rejects_terminal_state():
    s = keydoor_reset(8, 0)
    terminal = GridState(
        grid_size=8,
        agent_pos=s.goal_pos,
        key_pos=s.key_pos,
        door_pos=s.door_pos,
        goal_pos=s.goal_pos,
        wall_col=s.wall_col,
        has_key=True,
        door_open=True,
    )
    with pytest.raises(ValueError):
        keydoor_step(terminal, 0)


def _fixture_state(**kw):
    defaults = dict(
        grid_size=8,
        agent_pos=(0, 0),
        key_pos=(1, 0),
        door_pos=(4, 3),
        goal_pos=(5, 6),
        wall_col=3,
    )
    defaults.update(kw)
    return GridState(**defaults)


def test_reaching_goal_gives_reward_one_and_done():
    s = _fixture_state(agent_pos=(5, 5), has_key=True, door_open=True)
    s2, result = keydoor_step(s, 3)  # right, onto the goal
    assert result.reward == 1.0
    assert result.done and not result.truncated
    assert s2.agent_pos == (5, 6)


def test_move_into_wall_is_noop_and_reward_zero():
    s = _fixture_state(agent_pos=(0, 2))  # right neighbor is wall (col 3), not door
    s2, result = keydoor_step(s, 3)
    assert s2.agent_pos == (0, 2)
    assert result.reward == 0.0 and not result.done


def test_ordinary_move_gives_zero_reward():
    s = _fixture_state()
    s2, result = keydoor_step(s, 1)  # down
    assert s2.agent_pos == (1, 0)
    assert result.reward == 0.0 and not result.done and not result.truncated


def test_move_off_grid_is_noop():
    s = _fixture_state(agent_pos=(0, 0))
    s2, _ = keydoor_step(s, 0)  # up from the top row
    assert s2.agent_pos == (0, 0)


def test_key_pickup_and_door_opening():
    s = _fixture_state(agent_pos=(0, 0), key_pos=(0, 1), door_pos=(0, 3))
    s, _ = keydoor_step(s, 3)
    assert s.has_key and not s.door_open
    # key cell now renders as agent, and key channel is gone
    obs = encode_grid_obs(s)
    assert obs[-1] == 1.0
    s, _ = keydoor_step(s, 3)  # to (0,2)
    s, _ = keydoor_step(s, 3)  # onto the door
    assert s.door_open and s.agent_pos == (0, 3)


def test_closed_door_blocks_without_key():
    s = _fixture_state(agent_pos=(4, 2))  # door is at (4, 3)
    s2, _ = keydoor_step(s, 3)
    assert s2.agent_pos == (4, 2) and not s2.door_open


def test_truncation_at_horizon():
    env = KeyDoorEnv(8)
    env.reset(3)
    horizon = 4 * 64
    result = None
    for _ in range(horizon):
        result = env.step(0)  # bang against the top wall
        if result.done or result.truncated:
            break
    assert result.truncated and not result.done
    assert env.state.steps_elapsed == horizon


def test_obs_layout_and_length():
    s = keydoor_reset(8, 5)
    obs = encode_grid_obs(s)
    assert obs.shape == (6 * 64 + 1,)
    cells = obs[:-1].reshape(64, 6)
    # exactly one channel active per cell
    assert np.array_equal(cells.sum(axis=1), np.ones(64))
    r, c = s.agent_pos
    assert cells[r * 8 + c, CH_AGENT] == 1.0
    kr, kc = s.key_pos
    assert cells[kr * 8 + kc, CH_KEY] == 1.0
    # an empty off-feature cell has the empty channel set
    special = {s.agent_pos, s.key_pos, s.door_pos, s.goal_pos}
    for r in range(8):
        for c in range(8):
            if (r, c) not in special and c != s.wall_col:
                assert cells[r * 8 + c, CH_EMPTY] == 1.0


def test_replay_determinism():
    rng = np.random.default_rng(0)
    for seed in range(5):
        actions = rng.integers(0, 4, size=200)
        env1, env2 = KeyDoorEnv(8), KeyDoorEnv(8)
        o1, o2 = env1.reset(seed), env2.reset(seed)
        assert np.array_equal(o1, o2)
        for a in actions:
            r1, r2 = env1.step(int(a)), env2.step(int(a))
            assert np.array_equal(r1.obs, r2.obs)
            assert r1.reward == r2.reward and r1.done == r2.done
            if r1.done or r1.truncated:
                break
        assert env1.state == env2.state


def test_goal_unreachable_while_door_closed():
    # exhaustive search: BFS over the no-key dynamics can never reach the goal
    for seed in range(30):
        s = keydoor_reset(8, seed)
        seen = {s.agent_pos}
        queue = deque([s.agent_pos])
        while queue:
            pos = queue.popleft()
            for a in range(4):
                probe = GridState(
                    grid_size=8,
                    agent_pos=pos,
                    key_pos=s.key_pos,
                    door_pos=s.door_pos,
                    goal_pos=s.goal_pos,
                    wall_col=s.wall_col,
                    has_key=False,
                )
                nxt, _ = keydoor_step(probe, a)
                if nxt.agent_pos not in seen:
                    seen.add(nxt.agent_pos)
                    queue.append(nxt.agent_pos)
        assert s.goal_pos not in seen


def test_episode_total_reward_in_zero_one():
    rng = np.random.default_rng(1)
    for seed in range(20):
        env = KeyDoorEnv(8)
        env.reset(seed)
        total = 0.0
        while True:
            result = env.step(int(rng.integers(4)))
            total += result.reward
            if result.done or result.truncated:
                break
        assert total in (0.0, 1.0)


def _reference_encode(state):
    """The full-grid encoder: an index grid, a fancy-indexed one-hot, then the flag."""
    n = state.grid_size
    grid = np.full((n, n), CH_EMPTY, dtype=np.int64)
    if state.wall_col is not None:
        grid[:, state.wall_col] = CH_WALL
    grid[state.door_pos] = CH_DOOR
    grid[state.goal_pos] = CH_GOAL
    if not state.has_key:
        grid[state.key_pos] = CH_KEY
    grid[state.agent_pos] = CH_AGENT
    onehot = np.zeros((n * n, N_CHANNELS))
    onehot[np.arange(n * n), grid.ravel()] = 1.0
    return np.concatenate([onehot.ravel(), [1.0 if state.has_key else 0.0]])


@pytest.mark.parametrize("size", [8, 10, 12])
def test_encoding_matches_reference_byte_for_byte(size):
    # even episodes follow the A* plan, so they pick up the key, open the
    # door, stand on it and reach the goal; odd ones walk at random to the horizon
    rng = np.random.default_rng(size)
    seen = dict(has_key=0, door_open=0, on_key=0, on_door=0, on_goal=0)
    for episode in range(8):
        s = keydoor_reset(size, 1000 * size + episode)
        plan = astar_plan(s) if episode % 2 == 0 else rng.integers(4, size=s.horizon).tolist()
        for action in [None] + plan:
            if action is not None:
                s, _ = keydoor_step(s, action)
            for state in (s, replace(s, wall_col=None)):
                obs = encode_grid_obs(state)
                assert obs.dtype == np.float64
                assert obs.tobytes() == _reference_encode(state).tobytes()
            seen["has_key"] += s.has_key
            seen["door_open"] += s.door_open
            seen["on_key"] += s.agent_pos == s.key_pos
            seen["on_door"] += s.agent_pos == s.door_pos
            seen["on_goal"] += s.agent_pos == s.goal_pos
            if s.is_terminal():
                break
    assert all(seen.values()), seen
