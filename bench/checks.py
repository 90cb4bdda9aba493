"""Correctness checks on the outputs of one seed's training run.

Each check compares the run's files against a computation made here, or
against a property the method must have, and raises :class:`CheckFailed`
with the first discrepancy it finds.
"""

import json
import math
from pathlib import Path

import numpy as np

from annealed_il.data import split_bc
from annealed_il.envs import make_env
from annealed_il.evaluate import evaluate_checkpoint
from annealed_il.losses import action_log_probs
from annealed_il.metrics import read_metrics
from annealed_il.nets import get_flat, load_checkpoint, set_flat

SCHEDULE_RTOL = 1e-12
GRAD_RTOL = 1e-5
GRAD_ATOL = 1e-9
GRAD_STEP = 1e-5
VAL_RTOL = 1e-9
# pointreach: reward is -(distance + ctrl cost); distance <= 2*sqrt(2), |action|^2 <= 2
POINTREACH_RETURN_MIN = -200 * (2 * math.sqrt(2) + 0.02)


class CheckFailed(AssertionError):
    pass


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def read_json(path):
    with open(path) as f:
        return json.load(f)


def check_schedule(rows, half_life):
    """Every rl row's alpha equals 0.5**(iteration / H)."""
    for row in rows:
        if row["phase"] != "rl":
            continue
        expected = 0.5 ** (row["iteration"] / half_life)
        _require(
            abs(row["alpha"] - expected) <= SCHEDULE_RTOL * expected,
            f"iteration {row['iteration']}: alpha {row['alpha']!r}, schedule gives {expected!r}",
        )


def check_step_accounting(rows, counted_steps, total_steps, rollout_steps):
    """Counted rollout steps = reported env_steps = budget in whole rollouts."""
    rl = [row for row in rows if row["phase"] == "rl"]
    _require(rl, "no rl rows in metrics.csv")
    reported = rl[-1]["env_steps"]
    budget = total_steps // rollout_steps * rollout_steps
    _require(
        counted_steps == reported == budget,
        f"rollout steps counted {counted_steps}, reported {reported}, budget {budget}",
    )


def check_eval_bounds(eval_rows, env_id, n_episodes):
    """Each evaluation has n_episodes returns inside the task's range."""
    _require(eval_rows, "no evaluations")
    for row in eval_rows:
        returns = row["returns"]
        _require(len(returns) == n_episodes, f"{len(returns)} returns, expected {n_episodes}")
        for r in returns:
            if env_id.startswith("keydoor"):
                _require(r in (0.0, 1.0), f"keydoor return {r!r} is neither 0 nor 1")
            else:
                _require(POINTREACH_RETURN_MIN <= r <= 0.0, f"pointreach return {r!r} out of range")


def check_checkpoint_params(path, policy):
    """The checkpoint holds the trained policy's parameters bit for bit."""
    net, _ = load_checkpoint(path)
    _require(
        get_flat(net).tobytes() == get_flat(policy).tobytes(),
        f"{path} parameters differ from the trained policy's",
    )


def check_checkpoint_eval(seed_dir, env_id, n_episodes, eval_seed):
    """The final checkpoint, re-evaluated, reproduces eval_final.json exactly."""
    seed_dir = Path(seed_dir)
    recorded = read_json(seed_dir / "eval_final.json")
    replay = evaluate_checkpoint(seed_dir / "checkpoint_final.ckpt", env_id, n_episodes, eval_seed)
    _require(
        replay.returns == recorded["returns"],
        f"checkpoint returns {replay.returns} differ from eval_final.json {recorded['returns']}",
    )
    _require(
        (replay.mean, replay.std) == (recorded["mean"], recorded["std"]),
        "checkpoint mean/std differ from eval_final.json",
    )


def check_expert_replay(dataset, first_reset_seed):
    """Trajectory i, replayed from reset seed first_reset_seed + i, matches bit for bit."""
    env = make_env(dataset.env_id)
    for i, traj in enumerate(dataset.trajectories):
        obs = env.reset(first_reset_seed + i)
        result = None
        for j, transition in enumerate(traj.transitions):
            _require(
                obs.tobytes() == np.asarray(transition.obs, dtype=np.float64).tobytes(),
                f"trajectory {i} step {j}: observation differs from the replay",
            )
            result = env.step(transition.action)
            obs = result.obs
        _require(result is not None and result.done, f"trajectory {i}: replay does not end in done")


def check_gradient(loss_and_grads, net, rng):
    """Central-difference directional derivatives agree with the analytic gradient.

    ``loss_and_grads()`` returns (loss, grads) at the net's current
    parameters.  Two directions are probed: a random one and the analytic
    gradient's own.
    """
    theta = get_flat(net).copy()
    _, grads = loss_and_grads()
    g = np.concatenate([np.ravel(x) for x in grads])
    random_dir = rng.standard_normal(theta.size)
    directions = [random_dir / np.linalg.norm(random_dir)]
    if np.linalg.norm(g) > 0:
        directions.append(g / np.linalg.norm(g))
    try:
        for u in directions:
            set_flat(net, theta + GRAD_STEP * u)
            up = loss_and_grads()[0]
            set_flat(net, theta - GRAD_STEP * u)
            down = loss_and_grads()[0]
            numeric = (up - down) / (2 * GRAD_STEP)
            analytic = float(g @ u)
            _require(
                abs(numeric - analytic) <= GRAD_ATOL + GRAD_RTOL * max(abs(numeric), abs(analytic)),
                f"directional derivative: finite difference {numeric!r}, analytic {analytic!r}",
            )
    finally:
        set_flat(net, theta)


def check_best_validation(rows, net, dataset, seed):
    """Validation NLL of the saved policy equals the smallest val_loss logged."""
    logged = [row["val_loss"] for row in rows if row["phase"] == "bc"]
    _require(logged, "no bc rows in metrics.csv")
    _, val = split_bc(dataset, 0.7, rng_seed=seed)
    obs, actions = val.pairs()
    nll = float(-action_log_probs(net, dataset.action_spec, obs, actions).mean())
    best = min(logged)
    _require(
        abs(nll - best) <= VAL_RTOL * abs(best),
        f"validation NLL of the saved policy {nll!r}, smallest logged {best!r}",
    )


def check_same_files(dir_a, dir_b, names):
    """The named files of two runs of the same seed are byte-identical."""
    for name in names:
        a = (Path(dir_a) / name).read_bytes()
        b = (Path(dir_b) / name).read_bytes()
        _require(a == b, f"{name} differs between {dir_a} and {dir_b}")


def load_rows(seed_dir):
    return read_metrics(Path(seed_dir) / "metrics.csv")
