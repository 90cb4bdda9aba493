"""Training state and the per-iteration update.

One iteration = collect a fixed-size on-policy rollout, optionally take a
discriminator step, compute surrogate rewards and advantages, and apply
one combined policy/value update whose cloning weight comes from the
annealing schedule.  The pure-adversarial learner is the fixed-alpha=0
special case of the same code path, so the two are bit-identical given
the same seed.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .config import LEARNERS, Learner, TrainConfig
from .data import Dataset
from .losses import DiscMode, disc_inputs, disc_loss, policy_loss, surrogate_reward
from .metrics import NAN, IterationMetrics
from .nets import MLP, Adam, build_disc_net, build_policy_net, clip_params
from .rollout import (
    EnvRunner,
    collect_rollout,
    compute_advantages,
    discounted_returns,
    normalize_advantages,
)
from .schedule import AnnealSchedule, alpha_at


@dataclass
class TrainerState:
    policy: MLP
    opt_policy: Adam
    disc: Optional[MLP]
    opt_disc: Optional[Adam]
    learner: Learner
    schedule: AnnealSchedule
    disc_mode: DiscMode
    runner: EnvRunner
    expert_obs: Optional[np.ndarray]
    expert_actions: Optional[np.ndarray]
    rng_actions: np.random.Generator
    rng_batch: np.random.Generator
    iteration: int = 0
    env_steps: int = 0


def spawn_rngs(seed: int, n: int) -> List[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def build_trainer(
    config: TrainConfig,
    env,
    dataset: Optional[Dataset],
    rngs: List[np.random.Generator],
    policy: Optional[MLP] = None,
) -> TrainerState:
    """Assemble nets, optimizers and rng streams for one seeded run.

    ``rngs`` are the four streams (init, env, actions, batch), e.g.
    ``spawn_rngs(seed, 4)``.  ``policy`` lets a caller hand over a
    pretrained net (cloning pretraining baseline) instead of a fresh one.
    A ``wgan`` critic is clipped into [-wgan_clip, wgan_clip] from
    construction on, so a frozen critic (``random_reward_ablation``) lies
    in the same box as a trained one.
    """
    learner = LEARNERS[config.algorithm]
    if learner.reward == "none":
        raise ValueError(f"algorithm {config.algorithm!r} has no rollout-training loop")
    rng_init, rng_env, rng_actions, rng_batch = rngs
    if policy is None:
        policy = build_policy_net(env.obs_dim, env.action_spec, rng_init)

    disc_mode = DiscMode(variant=config.disc_mode, clip=config.wgan_clip)
    disc = opt_disc = expert_obs = expert_actions = None
    if learner.reward != "task":
        disc = build_disc_net(env.obs_dim, env.action_spec, rng_init)
        if disc_mode.variant == "wgan":
            clip_params(disc, disc_mode.clip)
        opt_disc = Adam(disc.params(), lr=config.disc_lr)
        if dataset is None or len(dataset) == 0:
            raise ValueError("this algorithm needs a nonempty expert dataset")
        expert_obs, expert_actions = dataset.pairs()

    return TrainerState(
        policy=policy,
        opt_policy=Adam(policy.params(), lr=config.lr),
        disc=disc,
        opt_disc=opt_disc,
        learner=learner,
        schedule=learner.schedule(config),
        disc_mode=disc_mode,
        runner=EnvRunner(env, rng_env),
        expert_obs=expert_obs,
        expert_actions=expert_actions,
        rng_actions=rng_actions,
        rng_batch=rng_batch,
    )


def _sample_expert_batch(state: TrainerState, n: int) -> Tuple[np.ndarray, np.ndarray]:
    idx = state.rng_batch.integers(0, len(state.expert_obs), size=n)
    return state.expert_obs[idx], state.expert_actions[idx]


def train_iteration(state: TrainerState, config: TrainConfig, env_spec) -> IterationMetrics:
    """Run one full iteration and advance the trainer state in place."""
    n = config.rollout_steps
    buf = collect_rollout(state.runner, state.policy, env_spec, n, state.rng_actions)
    state.env_steps += n

    disc_loss_value = NAN
    if state.learner.reward == "disc":
        policy_in = disc_inputs(buf.obs, buf.actions, env_spec)
        for _ in range(config.disc_updates):
            e_obs, e_act = _sample_expert_batch(state, n)
            loss, grads = disc_loss(
                state.disc, disc_inputs(e_obs, e_act, env_spec), policy_in, state.disc_mode
            )
            state.opt_disc.step(state.disc.params(), grads)
            if state.disc_mode.variant == "wgan":
                clip_params(state.disc, state.disc_mode.clip)
            disc_loss_value = loss

    imitating = state.learner.reward != "task"
    expert_obs = expert_actions = None
    if imitating:
        buf.rewards = surrogate_reward(state.disc, buf.obs, buf.actions, env_spec, state.disc_mode)
        raw_adv, value_targets = compute_advantages(buf, config.gamma, config.lam)
        value_coef = config.value_coef
        # drawn even at alpha 0 (gail), where the batch does not enter the loss
        expert_obs, expert_actions = _sample_expert_batch(state, n)
    else:  # reward-to-go on the task reward, no value baseline
        buf.rewards = buf.env_rewards.copy()
        raw_adv = discounted_returns(buf, config.gamma)
        value_targets = raw_adv.copy()
        value_coef = 0.0
    advantages = normalize_advantages(raw_adv)
    alpha = alpha_at(state.schedule, state.iteration)

    epochs = config.ppo_epochs if config.ppo_clip is not None else 1
    for _ in range(epochs):
        total, grads, parts = policy_loss(
            state.policy,
            env_spec,
            buf.obs,
            buf.actions,
            advantages,
            value_targets,
            alpha,
            expert_obs,
            expert_actions,
            entropy_coef=config.entropy_coef,
            value_coef=value_coef,
            old_log_probs=buf.log_probs if config.ppo_clip is not None else None,
            ppo_clip=config.ppo_clip,
        )
        state.opt_policy.step(state.policy.params(), grads)

    metrics = IterationMetrics(
        phase="rl",
        iteration=state.iteration,
        env_steps=state.env_steps,
        alpha=alpha,
        total_loss=total,
        bc_loss=parts["bc"] if imitating else NAN,
        pg_loss=parts["pg"],
        value_loss=parts["value"],
        entropy=parts["entropy"],
        disc_loss=disc_loss_value,
        mean_reward=float(buf.rewards.mean()),
        mean_episode_return=float(np.mean(buf.completed_returns)) if buf.completed_returns else NAN,
        episodes=len(buf.completed_returns),
        val_loss=NAN,
    )
    state.iteration += 1
    return metrics


# -- supervised cloning (the "bc" baseline and the pretraining phase) --------


def train_bc_supervised(
    policy: MLP,
    env_spec,
    train_pairs: Tuple[np.ndarray, np.ndarray],
    val_pairs: Tuple[np.ndarray, np.ndarray],
    config: TrainConfig,
    rng: np.random.Generator,
    on_epoch=None,
) -> int:
    """Minibatch NLL training with early stopping on validation NLL.

    Updates ``policy`` in place to the best-validation parameters and
    returns the number of epochs run.  ``on_epoch(epoch, train_nll,
    val_nll)`` is called once per epoch.
    """
    from .losses import action_log_probs, bc_loss

    train_obs, train_actions = train_pairs
    val_obs, val_actions = val_pairs
    opt = Adam(policy.params(), lr=config.lr)
    best_val = np.inf
    best_params = [p.copy() for p in policy.params()]
    patience = 0
    epochs_run = 0

    for epoch in range(config.bc_max_epochs):
        order = rng.permutation(len(train_obs))
        batch_losses = []
        for start in range(0, len(order), config.bc_batch):
            idx = order[start : start + config.bc_batch]
            loss, grads = bc_loss(policy, env_spec, train_obs[idx], train_actions[idx])
            opt.step(policy.params(), grads)
            batch_losses.append(loss)
        val_nll = float(-action_log_probs(policy, env_spec, val_obs, val_actions).mean())
        epochs_run = epoch + 1
        if on_epoch is not None:
            on_epoch(epoch, float(np.mean(batch_losses)), val_nll)
        if val_nll < best_val - 1e-6:
            best_val = val_nll
            best_params = [p.copy() for p in policy.params()]
            patience = 0
        else:
            patience += 1
            if patience >= config.bc_patience:
                break

    for p, best in zip(policy.params(), best_params):
        p[...] = best
    return epochs_run
