"""Point-reach env: analytic step cases, bounds, determinism."""

from dataclasses import replace

import numpy as np
import pytest

from annealed_il.envs import PointReachEnv, StepResult
from annealed_il.envs.pointreach import (
    ACCEL_GAIN,
    CTRL_COST,
    DECAY,
    GOAL_RADIUS,
    HORIZON,
    V_MAX,
    PointState,
    encode_point_obs,
    point_reset,
    point_step,
)


def test_reset_within_bounds_and_separated():
    for seed in range(100):
        s = point_reset(seed)
        assert all(-1 <= x <= 1 for x in s.pos + s.target)
        assert s.vel == (0.0, 0.0)
        assert s.distance() >= 0.2


def test_zero_distance_zero_action_terminates_with_zero_reward():
    s = PointState(pos=(0.3, -0.2), vel=(0.0, 0.0), target=(0.3, -0.2))
    s2, result = point_step(s, np.zeros(2))
    assert result.reward == 0.0
    assert result.done


def test_analytic_corner_distance_reward():
    s = PointState(pos=(1.0, 1.0), vel=(0.0, 0.0), target=(-1.0, -1.0))
    _, result = point_step(s, np.zeros(2))
    assert result.reward == pytest.approx(-2.0 * np.sqrt(2.0))
    assert not result.done


def test_control_cost_charged_on_action():
    s = PointState(pos=(0.0, 0.0), vel=(0.0, 0.0), target=(0.0, 0.5))
    _, r0 = point_step(s, np.zeros(2))
    _, r1 = point_step(s, np.array([1.0, 0.0]))
    # moving costs the quadratic control term on top of the new distance
    dist1 = -np.hypot(0.1 - 0.0, 0.5)
    assert r1.reward == pytest.approx(dist1 - 0.01)
    assert r0.reward == pytest.approx(-0.5)


def test_velocity_dynamics_and_clamping():
    s = PointState(pos=(0.0, 0.0), vel=(0.1, -0.1), target=(0.9, 0.9))
    s2, _ = point_step(s, np.array([1.0, 0.0]))
    assert s2.vel[0] == pytest.approx(0.9 * 0.1 + 0.1)
    assert s2.vel[1] == pytest.approx(-0.09)
    # velocity saturates at v_max
    s = PointState(pos=(0.0, 0.0), vel=(0.19, 0.0), target=(0.9, 0.9))
    s2, _ = point_step(s, np.array([1.0, 0.0]))
    assert s2.vel[0] == pytest.approx(0.2)


def test_action_clamped_and_nonfinite_rejected():
    s = point_reset(0)
    s_big, _ = point_step(s, np.array([5.0, -5.0]))
    s_one, _ = point_step(s, np.array([1.0, -1.0]))
    assert s_big == s_one
    with pytest.raises(ValueError):
        point_step(s, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        point_step(s, np.array([np.inf, 0.0]))


def test_position_stays_in_box_and_reward_nonpositive():
    env = PointReachEnv()
    rng = np.random.default_rng(0)
    env.reset(7)
    for _ in range(300):
        result = env.step(rng.uniform(-1, 1, 2))
        assert np.all(np.abs(env.state.pos) <= 1.0)
        assert result.reward <= 0.0
        if result.done or result.truncated:
            env.reset(int(rng.integers(1000)))


def test_truncation_at_horizon():
    env = PointReachEnv()
    env.reset(3)
    result = None
    for _ in range(200):
        result = env.step(np.zeros(2))
        if result.done or result.truncated:
            break
    assert result.truncated or result.done
    if result.truncated:
        assert env.state.steps_elapsed == 200


def test_obs_concatenation():
    s = PointState(pos=(0.0, 0.0), vel=(0.0, 0.0), target=(0.5, 0.0))
    assert np.array_equal(encode_point_obs(s), np.array([0, 0, 0, 0, 0.5, 0.0]))


def test_replay_determinism():
    rng = np.random.default_rng(5)
    actions = rng.uniform(-1, 1, size=(100, 2))
    e1, e2 = PointReachEnv(), PointReachEnv()
    o1, o2 = e1.reset(11), e2.reset(11)
    assert np.array_equal(o1, o2)
    for a in actions:
        r1, r2 = e1.step(a), e2.step(a)
        assert np.array_equal(r1.obs, r2.obs) and r1.reward == r2.reward
        if r1.done or r1.truncated:
            break
    assert e1.state == e2.state


def _reference_step(state, action):
    """The all-numpy step: 2-vector clips for the action, velocity and position."""
    action = np.asarray(action, dtype=np.float64).reshape(2)
    action = np.clip(action, -1.0, 1.0)
    vel = np.clip(DECAY * np.asarray(state.vel) + ACCEL_GAIN * action, -V_MAX, V_MAX)
    pos = np.clip(np.asarray(state.pos) + vel, -1.0, 1.0)
    new_state = replace(
        state,
        pos=(float(pos[0]), float(pos[1])),
        vel=(float(vel[0]), float(vel[1])),
        steps_elapsed=state.steps_elapsed + 1,
    )
    target = np.asarray(new_state.target)
    dist = float(np.hypot(pos[0] - target[0], pos[1] - target[1]))
    reward = -dist - CTRL_COST * float(action @ action)
    done = dist < GOAL_RADIUS
    truncated = not done and new_state.steps_elapsed >= HORIZON
    obs = np.concatenate([pos, vel, target - pos])
    return new_state, StepResult(obs=obs, reward=reward, done=done, truncated=truncated)


def test_step_matches_reference_bit_for_bit():
    # half the episodes push steadily in one direction, so the velocity
    # saturates and the point pins against the box; actions reach +-2
    rng = np.random.default_rng(0)
    seen = dict(big_action=0, v_max=0, wall=0, done=0, truncated=0)
    steps, seed = 0, 0
    while steps < 12_000:
        s = ref = point_reset(seed)
        push = rng.uniform(-2.0, 2.0, size=2) if seed % 2 == 0 else np.zeros(2)
        seed += 1
        for _ in range(HORIZON):
            action = push + rng.uniform(-1.5, 1.5, size=2)
            s, result = point_step(s, action)
            ref, expected = _reference_step(ref, action)
            steps += 1
            assert s == ref
            assert result.obs.tobytes() == expected.obs.tobytes()
            assert np.float64(result.reward).tobytes() == np.float64(expected.reward).tobytes()
            assert (result.done, result.truncated) == (expected.done, expected.truncated)
            seen["big_action"] += bool(np.any(np.abs(action) > 1.0))
            seen["v_max"] += V_MAX in np.abs(s.vel)
            seen["wall"] += 1.0 in np.abs(s.pos)
            seen["done"] += result.done
            seen["truncated"] += result.truncated
            if result.done or result.truncated:
                break
    assert all(seen.values()), seen
