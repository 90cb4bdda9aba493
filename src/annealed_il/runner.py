"""End-to-end execution of one configured run: train, evaluate, persist.

A run directory holds config.json, report.json (pooled final
evaluation), and one subdirectory per seed with metrics.csv, eval.jsonl,
eval_final.json, and the final checkpoint.  All outputs are plain text or
the package's own binary checkpoint format, and reruns of the same
(config, seed) are byte-identical.
"""

import json
from contextlib import closing
from pathlib import Path
from typing import Optional

from .config import LEARNERS, ConfigError, TrainConfig, validate
from .data import Dataset, load_dataset, split_bc
from .envs import make_env
from .losses import disc_inputs, disc_loss
from .metrics import IterationMetrics, MetricsWriter
from .nets import build_policy_net, clip_params, save_checkpoint
from .rollout import collect_rollout
from .trainer import build_trainer, sample_expert_batch, spawn_rngs, train_bc_supervised, train_iteration
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
    write_json(run_dir / "config.json", config.to_dict())

    reports = {}
    for seed in config.seeds:
        seed_dir = run_dir / f"seed_{seed}"
        seed_dir.mkdir(exist_ok=True)
        reports[seed] = _run_seed(config, dataset, seed, seed_dir)
    write_json(run_dir / "report.json", pool_reports(reports))
    return run_dir


def _run_seed(config: TrainConfig, dataset: Optional[Dataset], seed: int, seed_dir: Path) -> EvalReport:
    """One seed of any learner: optional cloning, then optional rollout
    training, then the final evaluation, checkpoint and eval_final.json."""
    learner = LEARNERS[config.algorithm]
    env, eval_env = make_env(config.env_id), make_env(config.env_id)
    rngs = spawn_rngs(seed, 8)
    eval_seed = int(rngs[EVAL_SEED_STREAM].integers(0, 2**63))
    with closing(MetricsWriter(seed_dir / "metrics.csv")) as metrics, open(seed_dir / "eval.jsonl", "w") as eval_log:

        def evaluate(net, env_steps: int, phase: str) -> EvalReport:
            """Evaluate on the eval env and append one flushed eval.jsonl row."""
            report = evaluate_net(net, eval_env, config.eval_episodes, eval_seed, env_steps)
            row = {"env_steps": env_steps, "phase": phase, "mean": report.mean, "std": report.std, "returns": report.returns}
            eval_log.write(json.dumps(row) + "\n")
            eval_log.flush()
            return report

        policy = build_policy_net(env.obs_dim, env.action_spec, rngs[0])
        if learner.reward == "none" or learner.bc_pretrain:
            _bc_phase(policy, env, dataset, config, seed, rngs, metrics)
        env_steps = 0
        if learner.reward != "none":
            state = build_trainer(config, env, dataset, rngs[:4], policy)
            if learner.bc_pretrain:
                write_json(seed_dir / "eval_postbc.json", evaluate(policy, 0, "post_bc").to_dict())
                _disc_pretrain_phase(state, config, env.action_spec, metrics)
            evaluate(policy, state.env_steps, "periodic")
            n_iterations = (config.total_steps - state.env_steps) // config.rollout_steps
            for t in range(n_iterations):
                metrics.write(train_iteration(state, config, env.action_spec))
                if (t + 1) % config.eval_every == 0 and t + 1 < n_iterations:
                    evaluate(policy, state.env_steps, "periodic")
            env_steps = state.env_steps
        final = evaluate(policy, env_steps, "final")
    save_checkpoint(
        policy,
        seed_dir / "checkpoint_final.ckpt",
        meta={"env_id": config.env_id, "algorithm": config.algorithm, "seed": seed},
    )
    write_json(seed_dir / "eval_final.json", final.to_dict())
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
        e_obs, e_act = sample_expert_batch(state, batch)
        idx_p = state.rng_batch.integers(0, len(policy_in), size=batch)
        loss, grads = disc_loss(state.disc, disc_inputs(e_obs, e_act, env_spec), policy_in[idx_p], state.disc_mode)
        state.opt_disc.step(state.disc.params(), grads)
        if state.disc_mode == "wgan":
            clip_params(state.disc, config.wgan_clip)
        metrics.write(
            IterationMetrics(
                phase="disc_pretrain",
                iteration=k,
                env_steps=state.env_steps,
                alpha=0.0,
                disc_loss=loss,
            )
        )
