"""Advantage estimation against hand-computed and brute-force oracles."""

import numpy as np
import pytest

from annealed_il import dists
from annealed_il.envs import ActionSpec, make_env
from annealed_il.nets import LOG_STD_MAX, LOG_STD_MIN, build_policy_net
from annealed_il.rollout import (
    EnvRunner,
    RolloutBuffer,
    collect_rollout,
    compute_advantages,
    discounted_returns,
    normalize_advantages,
    sample_policy_action,
)


def make_buffer(rewards, values, dones, ends, boots):
    n = len(rewards)
    return RolloutBuffer(
        obs=np.zeros((n, 2)),
        actions=np.zeros(n, dtype=np.int64),
        log_probs=np.zeros(n),
        values=np.array(values, dtype=float),
        env_rewards=np.array(rewards, dtype=float),
        rewards=np.array(rewards, dtype=float),
        dones=np.array(dones, dtype=bool),
        ends=np.array(ends, dtype=bool),
        boot_values=np.array(boots, dtype=float),
        completed_returns=[],
    )


def test_one_step_advantage_formula():
    # r + gamma*V(s') - V(s) with V(s) = V(s') = 0 gives the reward itself
    buf = make_buffer([0.693147], [0.0], [False], [True], [0.0])
    adv, targets = compute_advantages(buf, gamma=0.99, lam=0.0)
    assert adv[0] == pytest.approx(0.693147)
    assert targets[0] == pytest.approx(0.693147)


def test_terminal_step_bootstraps_zero():
    buf = make_buffer([1.0], [0.4], [True], [True], [0.0])
    adv, _ = compute_advantages(buf, gamma=0.99, lam=0.0)
    assert adv[0] == pytest.approx(1.0 - 0.4)


def test_two_step_episode_by_hand():
    gamma = 0.9
    buf = make_buffer([0.5, 1.0], [0.2, 0.3], [False, True], [False, True], [0.0, 0.0])
    adv, targets = compute_advantages(buf, gamma=gamma, lam=0.0)
    assert adv[0] == pytest.approx(0.5 + gamma * 0.3 - 0.2)
    assert adv[1] == pytest.approx(1.0 - 0.3)
    assert np.allclose(targets, adv + buf.values)


def test_gae_matches_direct_summation():
    # brute force: A_t = sum_l (gamma*lam)^l * delta_{t+l} within the segment
    gamma, lam = 0.99, 0.95
    rewards = [0.1, -0.2, 0.4]
    values = [0.3, 0.1, -0.2]
    boot = 0.25  # truncated episode: bootstrap with V of the final state
    buf = make_buffer(rewards, values, [False, False, False], [False, False, True], [0.0, 0.0, boot])
    adv, _ = compute_advantages(buf, gamma, lam)

    next_values = [values[1], values[2], boot]
    deltas = [r + gamma * nv - v for r, nv, v in zip(rewards, next_values, values)]
    for t in range(3):
        expected = sum((gamma * lam) ** (l - t) * deltas[l] for l in range(t, 3))
        assert adv[t] == pytest.approx(expected, abs=1e-12)


def test_gae_resets_across_episode_boundary():
    gamma, lam = 0.99, 0.95
    buf = make_buffer(
        [1.0, 0.5, 0.7],
        [0.2, 0.1, 0.3],
        [True, False, False],
        [True, False, True],
        [0.0, 0.0, 0.4],
    )
    adv, _ = compute_advantages(buf, gamma, lam)
    # first step is a full episode on its own
    assert adv[0] == pytest.approx(1.0 - 0.2)
    delta1 = 0.5 + gamma * 0.3 - 0.1
    delta2 = 0.7 + gamma * 0.4 - 0.3
    assert adv[1] == pytest.approx(delta1 + gamma * lam * delta2)


def test_incomplete_buffer_rejected():
    buf = make_buffer([0.1], [0.0], [False], [False], [0.0])
    with pytest.raises(ValueError):
        compute_advantages(buf, 0.99, 0.0)


def test_discounted_returns_reset_per_segment():
    buf = make_buffer([1.0, 1.0, 1.0], [0, 0, 0], [False, True, False], [False, True, True], [0, 0, 0])
    returns = discounted_returns(buf, gamma=0.5)
    assert returns[2] == pytest.approx(1.0)
    assert returns[1] == pytest.approx(1.0)
    assert returns[0] == pytest.approx(1.0 + 0.5)


def test_normalize_advantages():
    adv = np.array([1.0, 2.0, 3.0, 4.0])
    normed = normalize_advantages(adv)
    assert normed.mean() == pytest.approx(0.0, abs=1e-12)
    assert normed.std() == pytest.approx(1.0)
    # constant batches pass through centered instead of dividing by ~0
    assert np.allclose(normalize_advantages(np.full(4, 2.0)), 0.0)


def test_collect_rollout_shapes_and_segments():
    env = make_env("keydoor8")
    spec = env.action_spec
    net = build_policy_net(env.obs_dim, spec, np.random.default_rng(0))
    runner = EnvRunner(env, np.random.default_rng(1))
    buf = collect_rollout(runner, net, spec, 300, np.random.default_rng(2))
    assert len(buf) == 300
    assert buf.ends[-1]
    # every terminal step is also a segment end, with zero bootstrap
    assert np.all(buf.ends[buf.dones])
    assert np.all(buf.boot_values[buf.dones] == 0.0)
    # keydoor episodes have nonnegative sparse returns
    for r in buf.completed_returns:
        assert r in (0.0, 1.0)


def test_collect_rollout_deterministic():
    def once():
        env = make_env("pointreach")
        net = build_policy_net(env.obs_dim, env.action_spec, np.random.default_rng(3))
        runner = EnvRunner(env, np.random.default_rng(4))
        buf = collect_rollout(runner, net, env.action_spec, 150, np.random.default_rng(5))
        return buf

    a, b = once(), once()
    assert np.array_equal(a.obs, b.obs)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.log_probs, b.log_probs)
    assert a.completed_returns == b.completed_returns


def _reference_sample(net, spec, obs, rng):
    """sample_policy_action composed from the dists functions."""
    outs, _ = net.forward(obs[None, :])
    pi = outs["pi"][0]
    value = float(outs["v"][0, 0])
    if spec.kind == "discrete":
        action = dists.categorical_sample(pi[None, :], rng)
        return action, float(dists.categorical_log_prob(pi[None, :], [action])[0]), value
    log_std, _ = dists.clamped_log_std(net.extras["log_std"])
    action = dists.gaussian_sample(pi, log_std, rng, spec.low, spec.high)
    return action, float(dists.gaussian_log_prob(pi[None, :], log_std, action[None, :])[0]), value


class _FixedHeadNet:
    """A stand-in policy net whose forward returns the given logits and value 0."""

    def __init__(self, logits):
        self.logits = np.asarray(logits, dtype=np.float64)

    def forward(self, x):
        return {"pi": self.logits[None, :], "v": np.zeros((1, 1))}, None


def _assert_same_sample(net, spec, obs, seed):
    got = sample_policy_action(net, spec, obs, np.random.default_rng(seed))
    want = _reference_sample(net, spec, obs, np.random.default_rng(seed))
    assert np.asarray(got[0]).tobytes() == np.asarray(want[0]).tobytes()
    assert type(got[0]) is type(want[0])
    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
    assert got[2] == want[2]


@pytest.mark.parametrize("env_id", ["keydoor8", "pointreach"])
def test_sample_policy_action_matches_dists_composition(env_id):
    env = make_env(env_id)
    spec = env.action_spec
    net = build_policy_net(env.obs_dim, spec, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    # in range, and below and above the clamp on each coordinate
    log_stds = [np.array([-0.5, 0.3]), np.array([LOG_STD_MIN - 2.0, LOG_STD_MAX + 1.0]), np.array([3.0, -9.0])]
    for i in range(300):
        if spec.kind == "continuous":
            net.extras["log_std"] = log_stds[i % 3]
        obs = env.reset(i) if i % 2 else rng.standard_normal(env.obs_dim) * 3.0
        _assert_same_sample(net, spec, obs, seed=i)
    # peaked and flat logits drive the draw into every bin
    spec = ActionSpec(kind="discrete", n=4)
    for i in range(300):
        _assert_same_sample(_FixedHeadNet(rng.standard_normal(4) * rng.uniform(0.1, 40.0)), spec, np.zeros(1), seed=i)


def test_sample_policy_action_stays_in_range_when_cumsum_rounds_below_one():
    class TopDraw:
        def random(self):
            return 1.0 - 2.0**-53  # the largest draw below 1

    net = _FixedHeadNet([-1.37317748, 0.66058537, -3.02885455, -0.62752672])
    spec = ActionSpec(kind="discrete", n=4)
    assert np.cumsum(dists.softmax(net.logits))[-1] < 1.0 - 2.0**-53
    got = sample_policy_action(net, spec, np.zeros(1), TopDraw())
    assert got == _reference_sample(net, spec, np.zeros(1), TopDraw())
    assert got[0] == 3


# -- the per-rollout memo against a loop that forwards at every step -----------


def _value_at(net, obs):
    return float(net.forward(obs[None, :])[0]["v"][0, 0])


def _reference_collect(runner, net, spec, n_steps, rng):
    """collect_rollout without a memo: one forward per step and per bootstrap."""
    fields = {k: [] for k in ("obs", "actions", "log_probs", "values", "env_rewards", "dones", "ends", "boot_values")}
    completed = []
    runner.ensure_started()
    for t in range(n_steps):
        obs = runner.obs
        action, logp, value = _reference_sample(net, spec, obs, rng)
        result = runner.env.step(action)
        runner.episode_return += result.reward
        end, boot = False, 0.0
        if result.done or result.truncated:
            end, boot = True, 0.0 if result.done else _value_at(net, result.obs)
            completed.append(runner.episode_return)
            runner._reset()
        else:
            runner.obs = result.obs
            if t == n_steps - 1:
                end, boot = True, _value_at(net, result.obs)
        for key, value_t in zip(fields, (obs, action, logp, value, result.reward, result.done, end, boot)):
            fields[key].append(value_t)
    return RolloutBuffer(
        obs=np.array(fields["obs"]),
        actions=np.array(fields["actions"], dtype=np.int64 if spec.kind == "discrete" else np.float64),
        log_probs=np.array(fields["log_probs"]),
        values=np.array(fields["values"]),
        env_rewards=np.array(fields["env_rewards"]),
        rewards=np.zeros(n_steps),
        dones=np.array(fields["dones"], dtype=bool),
        ends=np.array(fields["ends"], dtype=bool),
        boot_values=np.array(fields["boot_values"]),
        completed_returns=completed,
    )


class _EndsEarly:
    """An env whose episodes also end on a schedule: every ``done_every``-th
    step of the run is terminal and every ``cut_every``-th is truncated, so
    short rollouts hold both kinds of segment end.  It counts both, and
    keeps the latest step's result."""

    def __init__(self, env, done_every, cut_every):
        self.env, self.done_every, self.cut_every = env, done_every, cut_every
        self.obs_dim, self.action_spec = env.obs_dim, env.action_spec
        self.steps = self.dones = self.truncations = 0
        self.last = None

    def reset(self, seed):
        return self.env.reset(seed)

    def step(self, action):
        result = self.last = self.env.step(action)
        self.steps += 1
        if self.steps % self.done_every == 0:
            result.done, result.truncated = True, False
        elif self.steps % self.cut_every == 0 and not result.done:
            result.truncated = True
        self.dones += result.done
        self.truncations += result.truncated
        return result


def _runner_pair(env_id, net_seed=0):
    """Two identical (runner, net, action rng) triples, one per side."""

    def one():
        env = _EndsEarly(make_env(env_id), done_every=47, cut_every=61)
        net = build_policy_net(env.obs_dim, env.action_spec, np.random.default_rng(net_seed))
        return EnvRunner(env, np.random.default_rng(1)), net, np.random.default_rng(2)

    return one(), one()


def _assert_same_buffer(got, want):
    for name in RolloutBuffer.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if name == "completed_returns":
            assert a == b
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("env_id", ["keydoor8", "pointreach"])
def test_collect_rollout_matches_memo_free_loop(env_id):
    (runner, net, rng), (ref_runner, ref_net, ref_rng) = _runner_pair(env_id)
    spec = runner.env.action_spec
    forward, forwards = net.forward, []
    net.forward = lambda x: forwards.append(len(x)) or forward(x)
    cuts = 0
    for n_steps in (100, 64, 150, 90, 1):  # consecutive rollouts on one runner
        got = collect_rollout(runner, net, spec, n_steps, rng)
        want = _reference_collect(ref_runner, ref_net, spec, n_steps, ref_rng)
        _assert_same_buffer(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert runner.episode_return == ref_runner.episode_return
        assert np.array_equal(runner.obs, ref_runner.obs)
        cuts += not (runner.env.last.done or runner.env.last.truncated)
    # resets after terminal and truncated steps, and rollouts cut mid-episode
    assert runner.env.dones and runner.env.truncations and cuts
    # keydoor revisits observations, so the memo saves forwards there
    assert (len(forwards) < runner.env.steps) == (spec.kind == "discrete")


def test_collect_rollout_memo_lasts_one_rollout():
    (runner, net, rng), (ref_runner, ref_net, ref_rng) = _runner_pair("keydoor8")
    spec = runner.env.action_spec
    for side in ((runner, net, rng), (ref_runner, ref_net, ref_rng)):
        collect_rollout(*side[:2], spec, 120, side[2])
    net.heads["v"][1][0] += 1.0  # the value head's bias: actions stay the same
    got = collect_rollout(runner, net, spec, 120, rng)
    unchanged = collect_rollout(ref_runner, ref_net, spec, 120, ref_rng)
    assert np.array_equal(got.actions, unchanged.actions)
    assert np.all(got.values != unchanged.values)
    assert np.array_equal(got.values, [_value_at(net, row) for row in got.obs])
