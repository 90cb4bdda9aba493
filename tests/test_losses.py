"""Loss values and analytic gradients against closed forms and finite
differences."""

import numpy as np
import pytest

from annealed_il.envs import ActionSpec
from annealed_il.losses import (
    DiscMode,
    bc_loss,
    disc_inputs,
    disc_loss,
    encode_actions,
    entropy_term,
    pg_loss,
    policy_loss,
    surrogate_reward,
    value_loss,
)
from annealed_il.nets import MLP, build_disc_net, build_policy_net

from util import flatten_grads, numerical_grad, relative_error

DISCRETE = ActionSpec(kind="discrete", n=4)
CONTINUOUS = ActionSpec(kind="continuous", dim=2)


def small_policy(spec, seed, obs_dim=7):
    return build_policy_net(obs_dim, spec, np.random.default_rng(seed), hidden=[5, 4])


def random_batch(spec, seed, n=6, obs_dim=7):
    rng = np.random.default_rng(seed + 1000)
    obs = rng.standard_normal((n, obs_dim))
    if spec.kind == "discrete":
        actions = rng.integers(0, spec.n, n)
    else:
        actions = rng.uniform(-1, 1, (n, spec.dim))
    return obs, actions


# -- cloning loss ------------------------------------------------------------


def test_bc_loss_uniform_policy_is_log_k():
    net = MLP(7, [5, 4], {"pi": 4, "v": 1})  # zero weights: uniform policy
    obs, actions = random_batch(DISCRETE, 0)
    loss, _ = bc_loss(net, DISCRETE, obs, actions)
    assert loss == pytest.approx(np.log(4), abs=1e-12)


def test_bc_loss_vanishes_for_confident_correct_policy():
    net = MLP(7, [5, 4], {"pi": 4, "v": 1})
    net.heads["pi"][1][2] = 50.0  # all probability on action 2
    obs, _ = random_batch(DISCRETE, 1)
    loss, _ = bc_loss(net, DISCRETE, obs, np.full(6, 2))
    assert 0.0 <= loss < 1e-6


def test_bc_loss_gradient_matches_finite_differences():
    for seed in range(3):
        for spec in (DISCRETE, CONTINUOUS):
            net = small_policy(spec, seed)
            obs, actions = random_batch(spec, seed)
            _, grads = bc_loss(net, spec, obs, actions)
            numeric = numerical_grad(lambda: bc_loss(net, spec, obs, actions)[0], net)
            assert relative_error(flatten_grads(grads), numeric) < 1e-4


def test_bc_loss_rejects_empty_batch():
    net = small_policy(DISCRETE, 0)
    with pytest.raises(ValueError):
        bc_loss(net, DISCRETE, np.zeros((0, 7)), np.zeros(0, dtype=int))


# -- discriminator ------------------------------------------------------------


def test_gan_loss_at_logit_zero_is_two_log_two():
    net = build_disc_net(7, DISCRETE, None)  # zero net: logit 0 everywhere
    rng = np.random.default_rng(0)
    e = rng.standard_normal((5, 11))
    p = rng.standard_normal((6, 11))
    loss, _ = disc_loss(net, e, p, DiscMode("gan"))
    assert loss == pytest.approx(2 * np.log(2), abs=1e-12)


def test_wgan_loss_constant_critic_cancels():
    net = build_disc_net(7, DISCRETE, None)
    net.heads["f"][1][0] = 3.7  # f == 3.7 on any input
    rng = np.random.default_rng(1)
    loss, _ = disc_loss(net, rng.standard_normal((5, 11)), rng.standard_normal((9, 11)), DiscMode("wgan"))
    assert loss == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("variant", ["gan", "wgan"])
def test_disc_loss_gradient_matches_finite_differences(variant):
    mode = DiscMode(variant)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        net = build_disc_net(6, DISCRETE, rng, hidden=[5, 4])
        e = rng.standard_normal((5, 10))
        p = rng.standard_normal((7, 10))
        _, grads = disc_loss(net, e, p, mode)
        numeric = numerical_grad(lambda: disc_loss(net, e, p, mode)[0], net)
        assert relative_error(flatten_grads(grads), numeric) < 1e-4


def test_disc_loss_rejects_empty():
    net = build_disc_net(6, DISCRETE, np.random.default_rng(0))
    with pytest.raises(ValueError):
        disc_loss(net, np.zeros((0, 10)), np.zeros((3, 10)), DiscMode("gan"))


def test_disc_mode_validation():
    with pytest.raises(ValueError):
        DiscMode("lsgan")
    with pytest.raises(ValueError):
        DiscMode("wgan", clip=0.0)


def test_encode_actions():
    onehot = encode_actions(np.array([0, 3]), DISCRETE)
    assert np.array_equal(onehot, [[1, 0, 0, 0], [0, 0, 0, 1]])
    raw = encode_actions(np.array([[0.5, -0.5]]), CONTINUOUS)
    assert np.array_equal(raw, [[0.5, -0.5]])


# -- surrogate reward ----------------------------------------------------------


def test_gan_reward_at_logit_zero():
    net = build_disc_net(7, DISCRETE, None)
    obs = np.zeros((3, 7))
    r = surrogate_reward(net, obs, np.array([0, 1, 2]), DISCRETE, DiscMode("gan"))
    assert np.allclose(r, -np.log(0.5))


def test_gan_reward_limits_and_clip():
    net = build_disc_net(7, DISCRETE, None)
    # drive the logit strongly negative: reward tends to 0+
    net.heads["f"][1][0] = -40.0
    r = surrogate_reward(net, np.zeros((1, 7)), np.array([0]), DISCRETE, DiscMode("gan"))
    assert 0.0 <= r[0] < 1e-12
    # strongly positive logit: clipped at the stability bound
    net.heads["f"][1][0] = 50.0
    r = surrogate_reward(net, np.zeros((1, 7)), np.array([0]), DISCRETE, DiscMode("gan"))
    assert r[0] == 20.0


def test_gan_reward_nonnegative_property():
    rng = np.random.default_rng(0)
    net = build_disc_net(7, DISCRETE, rng)
    obs = rng.standard_normal((100, 7)) * 3
    actions = rng.integers(0, 4, 100)
    r = surrogate_reward(net, obs, actions, DISCRETE, DiscMode("gan"))
    assert np.all(r >= 0.0)


def test_wgan_reward_is_raw_critic_value():
    net = build_disc_net(7, DISCRETE, None)
    net.heads["f"][1][0] = -1.3
    r = surrogate_reward(net, np.zeros((2, 7)), np.array([0, 1]), DISCRETE, DiscMode("wgan"))
    assert np.allclose(r, -1.3)


# -- value / entropy -----------------------------------------------------------


def test_value_loss_gradient():
    for seed in range(3):
        net = small_policy(DISCRETE, seed)
        obs, _ = random_batch(DISCRETE, seed)
        targets = np.random.default_rng(seed).standard_normal(6)
        _, grads = value_loss(net, obs, targets)
        numeric = numerical_grad(lambda: value_loss(net, obs, targets)[0], net)
        assert relative_error(flatten_grads(grads), numeric) < 1e-4


def test_entropy_gradient():
    for spec in (DISCRETE, CONTINUOUS):
        net = small_policy(spec, 3)
        obs, _ = random_batch(spec, 3)
        _, grads = entropy_term(net, spec, obs)
        numeric = numerical_grad(lambda: entropy_term(net, spec, obs)[0], net)
        assert relative_error(flatten_grads(grads), numeric) < 1e-4


# -- policy gradient and the combined loss --------------------------------------


def test_pg_loss_gradient_plain_and_clipped():
    for spec in (DISCRETE, CONTINUOUS):
        net = small_policy(spec, 5)
        obs, actions = random_batch(spec, 5)
        rng = np.random.default_rng(5)
        adv = rng.standard_normal(6)
        _, grads = pg_loss(net, spec, obs, actions, adv)
        numeric = numerical_grad(lambda: pg_loss(net, spec, obs, actions, adv)[0], net)
        assert relative_error(flatten_grads(grads), numeric) < 1e-4
        # ppo clip against slightly perturbed old log-probs
        from annealed_il.losses import action_log_probs

        old = action_log_probs(net, spec, obs, actions) + rng.standard_normal(6) * 0.3
        _, grads = pg_loss(net, spec, obs, actions, adv, old, 0.2)
        numeric = numerical_grad(lambda: pg_loss(net, spec, obs, actions, adv, old, 0.2)[0], net)
        assert relative_error(flatten_grads(grads), numeric) < 1e-4


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_policy_loss_gradient_matches_finite_differences(alpha):
    for spec in (DISCRETE, CONTINUOUS):
        net = small_policy(spec, 7)
        obs, actions = random_batch(spec, 7)
        eobs, eactions = random_batch(spec, 8, n=5)
        rng = np.random.default_rng(7)
        adv, targets = rng.standard_normal(6), rng.standard_normal(6)

        def f():
            return policy_loss(
                net, spec, obs, actions, adv, targets, alpha, eobs, eactions,
                entropy_coef=0.01, value_coef=0.5,
            )[0]

        _, grads, _ = policy_loss(
            net, spec, obs, actions, adv, targets, alpha, eobs, eactions,
            entropy_coef=0.01, value_coef=0.5,
        )
        assert relative_error(flatten_grads(grads), numerical_grad(f, net)) < 1e-4


def count_passes(net):
    """Wrap net.forward/backward on this instance; returns the live call counts."""
    counts = {"forward": 0, "backward": 0}
    for name in counts:
        method = getattr(net, name)

        def counted(*args, _name=name, _method=method, **kwargs):
            counts[_name] += 1
            return _method(*args, **kwargs)

        setattr(net, name, counted)
    return counts


@pytest.mark.parametrize("alpha, passes", [(0.0, 1), (0.5, 2), (1.0, 2)])
@pytest.mark.parametrize("ppo_clip", [None, 0.2])
def test_policy_loss_one_forward_one_backward_per_batch(alpha, passes, ppo_clip):
    # the rollout terms share one pass; alpha > 0 adds one for the expert batch
    for spec in (DISCRETE, CONTINUOUS):
        net = small_policy(spec, 17)
        obs, actions = random_batch(spec, 17)
        eobs, eactions = random_batch(spec, 18, n=5)
        rng = np.random.default_rng(17)
        adv, targets, old = rng.standard_normal(6), rng.standard_normal(6), rng.standard_normal(6) - 2.0
        counts = count_passes(net)
        policy_loss(
            net, spec, obs, actions, adv, targets, alpha, eobs, eactions,
            entropy_coef=0.01, value_coef=0.5, old_log_probs=old, ppo_clip=ppo_clip,
        )
        assert counts == {"forward": passes, "backward": passes}


def test_policy_loss_composition_identity():
    # combined gradient == alpha*bc + (1-alpha)*pg + value/entropy pieces
    for spec in (DISCRETE, CONTINUOUS):
        net = small_policy(spec, 11)
        obs, actions = random_batch(spec, 11)
        eobs, eactions = random_batch(spec, 12, n=5)
        rng = np.random.default_rng(11)
        adv, targets = rng.standard_normal(6), rng.standard_normal(6)
        alpha, e_coef, v_coef = 0.3, 0.01, 0.5

        _, combined, _ = policy_loss(
            net, spec, obs, actions, adv, targets, alpha, eobs, eactions,
            entropy_coef=e_coef, value_coef=v_coef,
        )
        _, g_bc = bc_loss(net, spec, eobs, eactions)
        _, g_pg = pg_loss(net, spec, obs, actions, adv)
        _, g_v = value_loss(net, obs, targets)
        _, g_h = entropy_term(net, spec, obs)
        manual = [
            alpha * a + (1 - alpha) * b + v_coef * c - e_coef * d
            for a, b, c, d in zip(g_bc, g_pg, g_v, g_h)
        ]
        for got, want in zip(combined, manual):
            assert np.max(np.abs(got - want)) < 1e-10


def test_policy_loss_alpha_one_ignores_advantages():
    # at alpha=1 the policy-gradient term contributes exactly nothing
    net = small_policy(DISCRETE, 13)
    obs, actions = random_batch(DISCRETE, 13)
    eobs, eactions = random_batch(DISCRETE, 14, n=5)
    rng = np.random.default_rng(13)
    targets = rng.standard_normal(6)
    adv_a, adv_b = rng.standard_normal(6), rng.standard_normal(6) * 100

    _, g1, _ = policy_loss(net, DISCRETE, obs, actions, adv_a, targets, 1.0, eobs, eactions,
                           entropy_coef=0.01, value_coef=0.5)
    _, g2, _ = policy_loss(net, DISCRETE, obs, actions, adv_b, targets, 1.0, eobs, eactions,
                           entropy_coef=0.01, value_coef=0.5)
    for a, b in zip(g1, g2):
        assert np.array_equal(a, b)
    # and it equals bc + value + entropy exactly
    _, g_bc = bc_loss(net, DISCRETE, eobs, eactions)
    _, g_v = value_loss(net, obs, targets)
    _, g_h = entropy_term(net, DISCRETE, obs)
    manual = [a + 0.5 * c - 0.01 * d for a, c, d in zip(g_bc, g_v, g_h)]
    for got, want in zip(g1, manual):
        assert np.max(np.abs(got - want)) < 1e-10


def test_policy_loss_zero_advantages_zero_policy_gradient():
    net = small_policy(DISCRETE, 15)
    obs, actions = random_batch(DISCRETE, 15)
    _, grads, _ = policy_loss(
        net, DISCRETE, obs, actions, np.zeros(6), np.zeros(6), 0.0, None, None,
        entropy_coef=0.0, value_coef=0.0,
    )
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)


def test_policy_loss_alpha_zero_needs_no_expert_batch():
    net = small_policy(DISCRETE, 16)
    obs, actions = random_batch(DISCRETE, 16)
    total, _, parts = policy_loss(
        net, DISCRETE, obs, actions, np.ones(6), np.zeros(6), 0.0, None, None,
        entropy_coef=0.0, value_coef=0.5,
    )
    assert parts["bc"] == 0.0
    with pytest.raises(ValueError):
        policy_loss(net, DISCRETE, obs, actions, np.ones(6), np.zeros(6), 0.5, None, None)
