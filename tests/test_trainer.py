"""Training iteration contracts: determinism, the learner table, critic
clipping, the frozen-discriminator ablation, and supervised cloning."""

from dataclasses import replace

import numpy as np
import pytest

from annealed_il.config import LEARNERS, ConfigError, TrainConfig, resolve, validate
from annealed_il.data import save_dataset, split_bc
from annealed_il.envs import make_env
from annealed_il.experts import AStarExpert, PointExpert, collect
from annealed_il.metrics import read_metrics
from annealed_il.nets import build_disc_net, build_policy_net, get_flat
from annealed_il.runner import run
from annealed_il.trainer import build_trainer, spawn_rngs, train_bc_supervised, train_iteration


def point_config(**kw):
    base = dict(
        env="pointreach",
        algorithm="gail",
        seeds=[0],
        dataset="unused",
        out="unused",
        total_steps=2048,
        rollout_steps=128,
    )
    base.update(kw)
    return resolve(TrainConfig(**base))


@pytest.fixture(scope="module")
def point_dataset():
    return collect(make_env("pointreach"), PointExpert(), 5, 0)


@pytest.fixture(scope="module")
def grid_dataset():
    return collect(make_env("keydoor8"), AStarExpert(), 10, 0)


def new_trainer(config, env, dataset, seed=0):
    """build_trainer with the policy the runner would build: the init stream's first draw."""
    rngs = spawn_rngs(seed, 4)
    return build_trainer(config, env, dataset, rngs, build_policy_net(env.obs_dim, env.action_spec, rngs[0]))


def run_iterations(config, dataset, n_iterations, seed=0):
    env = make_env(config.env_id)
    state = new_trainer(config, env, dataset, seed)
    rows = [train_iteration(state, config, env.action_spec) for _ in range(n_iterations)]
    return state, rows


# algorithm: reward source, alpha at iterations 0, 1, 2 (half_life 2, alpha 0.3),
# whether it needs expert data, whether cloning runs first
LEARNER_TABLE = {
    "bc": ("none", [1.0, 1.0, 1.0], True, False),
    "gail": ("disc", [0.0, 0.0, 0.0], True, False),
    "bcgail_annealed": ("disc", [1.0, 0.5**0.5, 0.5], True, False),
    "bcgail_fixed": ("disc", [0.3, 0.3, 0.3], True, False),
    "bc_pretrain_gail": ("disc", [0.0, 0.0, 0.0], True, True),
    "random_reward_ablation": ("frozen_disc", [0.3, 0.3, 0.3], True, False),
    "reinforce": ("task", [0.0, 0.0, 0.0], False, False),
}


@pytest.mark.parametrize("algorithm", sorted(LEARNERS))
def test_learner_wiring(algorithm, point_dataset, tmp_path):
    reward, alphas, needs_dataset, bc_pretrain = LEARNER_TABLE[algorithm]
    learner = LEARNERS[algorithm]
    assert (learner.reward, learner.bc_pretrain) == (reward, bc_pretrain)
    save_dataset(point_dataset, tmp_path / "point.bin")
    config = TrainConfig(
        env="pointreach", algorithm=algorithm, alpha=0.3, half_life=2, seeds=[0],
        dataset=str(tmp_path / "point.bin"), out=str(tmp_path), total_steps=512,
        rollout_steps=128, eval_episodes=1, bc_max_epochs=2, disc_pretrain_updates=2,
    )
    assert [learner.alpha_at(config, t) for t in range(3)] == pytest.approx(alphas, rel=1e-15)
    if needs_dataset:
        with pytest.raises(ConfigError, match="requires a dataset"):
            validate(replace(config, dataset=None))
    else:
        validate(replace(config, dataset=None))

    # the same decisions, seen in a run's outputs
    seed_dir = run(config) / "seed_0"
    rows = read_metrics(seed_dir / "metrics.csv")
    rl = [r for r in rows if r["phase"] == "rl"]
    assert any(r["phase"] == "bc" for r in rows) == (reward == "none" or bc_pretrain)
    assert any(r["phase"] == "disc_pretrain" for r in rows) == bc_pretrain
    assert (seed_dir / "eval_postbc.json").exists() == bc_pretrain
    assert bool(rl) == (reward != "none")
    if rl:
        assert [r["alpha"] for r in rl[:3]] == pytest.approx(alphas, rel=1e-15)
        assert all(np.isfinite(r["disc_loss"]) == (reward == "disc") for r in rl)
        assert all(np.isfinite(r["bc_loss"]) == (reward != "task") for r in rl)


def test_bc_and_bc_pretraining_share_one_cloning_path(point_dataset, tmp_path):
    """For one seed and dataset, cloning pretraining writes what the bc
    learner writes: the same bc rows and, as its post-BC evaluation, bc's
    final evaluation."""
    save_dataset(point_dataset, tmp_path / "point.bin")
    config = TrainConfig(
        env="pointreach", seeds=[0], dataset=str(tmp_path / "point.bin"), out=str(tmp_path),
        total_steps=512, rollout_steps=128, eval_episodes=3, bc_max_epochs=6, disc_pretrain_updates=2,
    )
    bc = run(replace(config, algorithm="bc")) / "seed_0"
    pretrained = run(replace(config, algorithm="bc_pretrain_gail")) / "seed_0"
    bc_lines = (bc / "metrics.csv").read_text().splitlines()
    pretrained_lines = (pretrained / "metrics.csv").read_text().splitlines()
    assert len(bc_lines) == 1 + 6
    assert bc_lines == [line for line in pretrained_lines if line == pretrained_lines[0] or line.startswith("bc,")]
    assert (bc / "eval_final.json").read_bytes() == (pretrained / "eval_postbc.json").read_bytes()


def test_iteration_metrics_and_step_accounting(point_dataset):
    config = point_config(algorithm="bcgail_annealed", half_life=10)
    state, rows = run_iterations(config, point_dataset, 3)
    assert [r.env_steps for r in rows] == [128, 256, 384]
    assert [r.iteration for r in rows] == [0, 1, 2]
    # alpha follows the schedule
    assert rows[0].alpha == 1.0
    assert rows[1].alpha == pytest.approx(0.5 ** (1 / 10))
    assert np.isfinite(rows[0].total_loss)


def test_two_runs_same_seed_identical(point_dataset):
    config = point_config(algorithm="bcgail_annealed", half_life=10)
    state_a, rows_a = run_iterations(config, point_dataset, 3, seed=7)
    state_b, rows_b = run_iterations(config, point_dataset, 3, seed=7)
    assert np.array_equal(get_flat(state_a.policy), get_flat(state_b.policy))
    assert np.array_equal(get_flat(state_a.disc), get_flat(state_b.disc))
    for ra, rb in zip(rows_a, rows_b):
        assert ra == rb


def test_gail_is_fixed_zero_alpha(point_dataset):
    _, rows = run_iterations(point_config(algorithm="gail"), point_dataset, 2)
    assert all(r.alpha == 0.0 for r in rows)


def test_frozen_disc_never_updates(point_dataset):
    config = point_config(algorithm="random_reward_ablation", alpha=0.5)
    env = make_env("pointreach")
    state = new_trainer(config, env, point_dataset)
    disc_before = get_flat(state.disc).copy()
    rows = [train_iteration(state, config, env.action_spec) for _ in range(2)]
    assert np.array_equal(get_flat(state.disc), disc_before)
    assert all(np.isnan(r.disc_loss) for r in rows)
    assert all(r.alpha == 0.5 for r in rows)


def test_wgan_updates_respect_clip(grid_dataset):
    config = point_config(
        env="keydoor",
        algorithm="gail",
        disc_mode="wgan",
        wgan_clip=0.01,
        rollout_steps=64,
        disc_updates=2,
    )
    env = make_env("keydoor8")
    state = new_trainer(config, env, grid_dataset)
    for _ in range(3):
        train_iteration(state, config, env.action_spec)
        assert max(np.abs(p).max() for p in state.disc.params()) <= 0.01 + 1e-15


@pytest.mark.parametrize("algorithm", ["gail", "random_reward_ablation"])
def test_wgan_critic_starts_inside_clip_box(point_dataset, algorithm):
    config = point_config(algorithm=algorithm, alpha=0.5, disc_mode="wgan", wgan_clip=0.05)
    state = new_trainer(config, make_env("pointreach"), point_dataset)
    assert max(np.abs(p).max() for p in state.disc.params()) <= 0.05


def test_gan_discriminator_keeps_its_initialisation(point_dataset):
    config = point_config(disc_mode="gan", wgan_clip=0.05)
    env = make_env("pointreach")
    state = new_trainer(config, env, point_dataset)
    rng_init = spawn_rngs(0, 4)[0]
    build_policy_net(env.obs_dim, env.action_spec, rng_init)
    expected = get_flat(build_disc_net(env.obs_dim, env.action_spec, rng_init))
    assert np.array_equal(get_flat(state.disc), expected)
    assert np.abs(expected).max() > 0.05


def test_reinforce_uses_env_reward(grid_dataset):
    config = point_config(env="keydoor", algorithm="reinforce", rollout_steps=64)
    env = make_env("keydoor8")
    state = new_trainer(config, env, None)
    assert state.disc is None
    row = train_iteration(state, config, env.action_spec)
    # keydoor env rewards are sparse 0/1, so the mean is in [0, 1]
    assert 0.0 <= row.mean_reward <= 1.0
    assert np.isnan(row.disc_loss) and np.isnan(row.bc_loss)


def test_ppo_clip_path_runs(point_dataset):
    config = point_config(algorithm="bcgail_fixed", alpha=0.5, ppo_clip=0.2, ppo_epochs=2)
    _, rows = run_iterations(config, point_dataset, 2)
    assert all(np.isfinite(r.total_loss) for r in rows)


def test_trainer_rejects_missing_dataset():
    config = point_config(algorithm="gail")
    with pytest.raises(ValueError):
        new_trainer(config, make_env("pointreach"), None)


def test_bc_supervised_improves_and_restores_best(grid_dataset):
    env = make_env("keydoor8")
    config = point_config(env="keydoor", algorithm="bc", bc_max_epochs=10, bc_patience=3)
    rngs = spawn_rngs(0, 8)
    policy = build_policy_net(env.obs_dim, env.action_spec, rngs[0])
    train, val = split_bc(grid_dataset, 0.7, rng_seed=0)
    history = []
    train_bc_supervised(
        policy,
        env.action_spec,
        train.pairs(),
        val.pairs(),
        config,
        rngs[4],
        on_epoch=lambda e, t, v: history.append((t, v)),
    )
    assert len(history) >= 3
    assert history[-1][0] < history[0][0]  # train NLL decreased
