"""End-to-end execution of one configured run: train, evaluate, persist.

A run directory holds config.json, report.json (pooled final
evaluation), and one subdirectory per seed with metrics.csv, eval.jsonl,
eval_final.json, and the final checkpoint.  All outputs are plain text or
the package's own binary checkpoint format, and reruns of the same
(config, seed) are byte-identical.
"""

import json
from pathlib import Path
from typing import Optional

from .config import LEARNERS, ConfigError, TrainConfig, validate
from .data import Dataset, load_dataset, split_bc
from .envs import make_env
from .losses import disc_inputs, disc_loss
from .metrics import IterationMetrics, MetricsWriter
from .nets import build_policy_net, clip_params, save_checkpoint
from .rollout import collect_rollout
from .trainer import build_trainer, spawn_rngs, train_bc_supervised, train_iteration
from .evaluate import EvalReport, evaluate_net, pool_reports, write_json

EVAL_SEED_STREAM = 5
BC_SHUFFLE_STREAM = 4


def _load_and_check_dataset(config: TrainConfig) -> Optional[Dataset]:
    if LEARNERS[config.algorithm].reward == "task":
        return None
    dataset = load_dataset(config.dataset)
    if dataset.env_id != config.env_id:
        raise ConfigError(
            f"dataset env {dataset.env_id!r} does not match configured env {config.env_id!r}"
        )
    if len(dataset) == 0:
        raise ConfigError("dataset contains no trajectories")
    return dataset


def run(config: TrainConfig) -> Path:
    """Execute the configured algorithm for every seed; returns the run dir."""
    config = validate(config)
    dataset = _load_and_check_dataset(config)

    run_dir = Path(config.out_root) / config.name
    own = {f"seed_{seed}" for seed in config.seeds}
    stale = sorted(p.name for p in run_dir.glob("seed_*") if p.is_dir() and p.name not in own)
    if stale:
        raise ConfigError(f"{run_dir} holds {', '.join(stale)}, which are not among seeds {config.seeds}")
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "config.json", "w") as f:
        json.dump(config.to_dict(), f, indent=2)
        f.write("\n")

    reports = {}
    for seed in config.seeds:
        seed_dir = run_dir / f"seed_{seed}"
        seed_dir.mkdir(exist_ok=True)
        reports[seed] = _run_seed(config, dataset, seed, seed_dir)
    write_json(run_dir / "report.json", pool_reports(reports))
    return run_dir


class _EvalLog:
    def __init__(self, path, env, eval_episodes: int, eval_seed: int):
        self._file = open(path, "w")
        self.env = env
        self.eval_episodes = eval_episodes
        self.eval_seed = eval_seed

    def record(self, net, env_steps: int, phase: str) -> EvalReport:
        report = evaluate_net(net, self.env, self.eval_episodes, self.eval_seed, env_steps)
        row = {"env_steps": env_steps, "phase": phase, "mean": report.mean, "std": report.std, "returns": report.returns}
        self._file.write(json.dumps(row) + "\n")
        self._file.flush()
        return report

    def close(self):
        self._file.close()


def _run_seed(config: TrainConfig, dataset: Optional[Dataset], seed: int, seed_dir: Path) -> EvalReport:
    env = make_env(config.env_id)
    rngs = spawn_rngs(seed, 8)
    eval_seed = int(rngs[EVAL_SEED_STREAM].integers(0, 2**63))
    metrics = MetricsWriter(seed_dir / "metrics.csv")
    evals = _EvalLog(seed_dir / "eval.jsonl", make_env(config.env_id), config.eval_episodes, eval_seed)

    try:
        if LEARNERS[config.algorithm].reward == "none":
            policy = build_policy_net(env.obs_dim, env.action_spec, rngs[0])
            _bc_phase(policy, env, dataset, config, seed, rngs, metrics)
            final = evals.record(policy, 0, "final")
        else:
            policy, final = _rollout_run(config, env, dataset, seed, rngs, metrics, evals, seed_dir)
        save_checkpoint(
            policy,
            seed_dir / "checkpoint_final.ckpt",
            meta={"env_id": config.env_id, "algorithm": config.algorithm, "seed": seed},
        )
        write_json(seed_dir / "eval_final.json", final.to_dict())
    finally:
        metrics.close()
        evals.close()
    return final


def _bc_phase(policy, env, dataset, config, seed, rngs, metrics) -> None:
    """Supervised cloning with a 70/30 trajectory split and early stopping."""
    train_ds, val_ds = split_bc(dataset, 0.7, rng_seed=seed)

    def on_epoch(epoch, train_nll, val_nll):
        metrics.write(
            IterationMetrics(
                phase="bc",
                iteration=epoch,
                env_steps=0,
                alpha=1.0,
                bc_loss=train_nll,
                val_loss=val_nll,
            )
        )

    train_bc_supervised(
        policy,
        env.action_spec,
        train_ds.pairs(),
        val_ds.pairs(),
        config,
        rngs[BC_SHUFFLE_STREAM],
        on_epoch=on_epoch,
    )


def _disc_pretrain_phase(state, config, env_spec, metrics) -> None:
    """Train the discriminator against rollouts of the pretrained policy."""
    buf = collect_rollout(state.runner, state.policy, env_spec, config.rollout_steps, state.rng_actions)
    state.env_steps += config.rollout_steps
    policy_in = disc_inputs(buf.obs, buf.actions, env_spec)
    batch = min(256, len(policy_in))
    for k in range(config.disc_pretrain_updates):
        idx_e = state.rng_batch.integers(0, len(state.expert_obs), size=batch)
        idx_p = state.rng_batch.integers(0, len(policy_in), size=batch)
        expert_in = disc_inputs(state.expert_obs[idx_e], state.expert_actions[idx_e], env_spec)
        loss, grads = disc_loss(state.disc, expert_in, policy_in[idx_p], state.disc_mode)
        state.opt_disc.step(state.disc.params(), grads)
        if state.disc_mode.variant == "wgan":
            clip_params(state.disc, state.disc_mode.clip)
        metrics.write(
            IterationMetrics(
                phase="disc_pretrain",
                iteration=k,
                env_steps=state.env_steps,
                alpha=0.0,
                disc_loss=loss,
            )
        )


def _rollout_run(config, env, dataset, seed, rngs, metrics, evals, seed_dir):
    bc_pretrain = LEARNERS[config.algorithm].bc_pretrain
    pretrained = None
    if bc_pretrain:
        pretrained = build_policy_net(env.obs_dim, env.action_spec, rngs[0])
        _bc_phase(pretrained, env, dataset, config, seed, rngs, metrics)

    state = build_trainer(config, env, dataset, rngs=rngs[:4], policy=pretrained)

    if bc_pretrain:
        post_bc = evals.record(state.policy, state.env_steps, "post_bc")
        write_json(seed_dir / "eval_postbc.json", post_bc.to_dict())
        _disc_pretrain_phase(state, config, env.action_spec, metrics)

    evals.record(state.policy, state.env_steps, "periodic")
    n_iterations = (config.total_steps - state.env_steps) // config.rollout_steps
    for t in range(n_iterations):
        metrics.write(train_iteration(state, config, env.action_spec))
        if (t + 1) % config.eval_every == 0 and t + 1 < n_iterations:
            evals.record(state.policy, state.env_steps, "periodic")
    final = evals.record(state.policy, state.env_steps, "final")
    return state.policy, final
