"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line.  Training-based
criteria (5-8) execute real runs through the public harness at the
default desk-scale budgets; the gridworld bundle is shared between
criteria 5 and 6, and its runs take the bulk of the suite's wall time.

Budgets can be scaled through ANNEALED_IL_ACCEPT_STEPS (gridworld) and
ANNEALED_IL_ACCEPT_POINT_STEPS (point-reach); defaults are the package
defaults.
"""

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from annealed_il.compare import compare
from annealed_il.config import TrainConfig
from annealed_il.data import save_dataset
from annealed_il.envs import ActionSpec, make_env
from annealed_il.envs.keydoor import keydoor_reset, keydoor_step
from annealed_il.experts import AStarExpert, PointExpert, astar_plan, collect
from annealed_il import dists
from annealed_il.losses import (
    DiscMode,
    bc_loss,
    disc_loss,
    entropy_term,
    policy_loss,
    value_loss,
)
from annealed_il.metrics import read_metrics
from annealed_il.nets import build_disc_net, build_policy_net
from annealed_il.runner import run
from annealed_il.schedule import AnnealSchedule, alpha_at

from util import flatten_grads, numerical_grad, relative_error

from test_experts import bfs_plan_length


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] criterion {criterion}: {status} {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Gradient oracle
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_oracle():
    start = time.time()
    rng = np.random.default_rng(0)
    specs = [ActionSpec(kind="discrete", n=4), ActionSpec(kind="continuous", dim=2)]
    worst = 0.0
    checks = 0

    def batch(spec, obs_dim, n):
        obs = rng.standard_normal((n, obs_dim))
        if spec.kind == "discrete":
            actions = rng.integers(0, spec.n, n)
        else:
            actions = rng.uniform(-1, 1, (n, spec.dim))
        return obs, actions

    for i in range(20):
        spec = specs[i % 2]
        obs_dim = int(rng.integers(3, 11))
        n = int(rng.integers(2, 9))
        net = build_policy_net(obs_dim, spec, rng, hidden=[4, 3])
        obs, actions = batch(spec, obs_dim, n)
        eobs, eactions = batch(spec, obs_dim, max(2, n - 1))
        adv = rng.standard_normal(n)
        targets = rng.standard_normal(n)

        # cloning loss
        _, g = bc_loss(net, spec, obs, actions)
        worst = max(worst, relative_error(flatten_grads(g), numerical_grad(lambda: bc_loss(net, spec, obs, actions)[0], net)))
        checks += 1

        # value-regression term
        _, g = value_loss(net, obs, targets)
        worst = max(worst, relative_error(flatten_grads(g), numerical_grad(lambda: value_loss(net, obs, targets)[0], net)))
        checks += 1

        # combined update at the three canonical weights
        for alpha in (0.0, 0.5, 1.0):
            def f():
                return policy_loss(net, spec, obs, actions, adv, targets, alpha,
                                   eobs, eactions, entropy_coef=0.01, value_coef=0.5)[0]

            _, g, _ = policy_loss(net, spec, obs, actions, adv, targets, alpha,
                                  eobs, eactions, entropy_coef=0.01, value_coef=0.5)
            worst = max(worst, relative_error(flatten_grads(g), numerical_grad(f, net)))
            checks += 1

        # discriminator, both flavors
        dnet = build_disc_net(obs_dim, spec, rng, hidden=[4, 3])
        e_in = rng.standard_normal((n, dnet.in_dim))
        p_in = rng.standard_normal((n + 1, dnet.in_dim))
        for mode in (DiscMode("gan"), DiscMode("wgan")):
            _, g = disc_loss(dnet, e_in, p_in, mode)
            worst = max(worst, relative_error(flatten_grads(g), numerical_grad(lambda: disc_loss(dnet, e_in, p_in, mode)[0], dnet)))
            checks += 1

    elapsed = time.time() - start
    report(
        "1 (gradient oracle)",
        worst < 1e-4 and elapsed < 60.0,
        f"{checks} checks, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Schedule exactness
# ---------------------------------------------------------------------------


def test_criterion_2_schedule_exactness():
    errs = [abs(alpha_at(AnnealSchedule.annealed(h), h) - 0.5) for h in (1, 5, 10, 100)]
    first_step = alpha_at(AnnealSchedule.annealed(10), 1)
    ok = max(errs) < 1e-12 and abs(first_step - 0.933033) < 1e-3
    report("2 (schedule exactness)", ok, f"max half-life err {max(errs):.2e}, alpha_1 {first_step:.6f}")


# ---------------------------------------------------------------------------
# 3. Importance-sampling rewrite on a one-state bandit
# ---------------------------------------------------------------------------


def test_criterion_3_importance_sampling_rewrite():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        k = 4
        theta = rng.standard_normal(k)  # tabular softmax policy
        expert_actions = np.array([0, 2, 2, 1])  # fixed expert action multiset

        # gradient of the cloning loss: -mean_D log pi(a)
        pi = dists.softmax(theta[None, :])[0]
        onehot = np.zeros((len(expert_actions), k))
        onehot[np.arange(len(expert_actions)), expert_actions] = 1.0
        grad_bc = (pi[None, :] - onehot).mean(axis=0)

        # delta-form: -E_{a~pi}[ w(a) log pi(a) ], w = rho_E(a)/pi(a) frozen,
        # differentiated policy-gradient style (through log pi only)
        rho_e = np.bincount(expert_actions, minlength=k) / len(expert_actions)
        w = rho_e / pi  # frozen importance weights
        grad_delta = np.zeros(k)
        for a in range(k):
            d_log_pi = np.eye(k)[a] - pi
            grad_delta -= pi[a] * w[a] * d_log_pi

        worst = max(worst, float(np.max(np.abs(grad_bc - grad_delta))))
    report("3 (importance-sampling rewrite)", worst < 1e-10, f"worst elementwise diff {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. Expert optimality
# ---------------------------------------------------------------------------


def test_criterion_4_expert_optimality():
    mismatches = 0
    for size in (8, 10, 12):
        for seed in range(200):
            state = keydoor_reset(size, seed)
            if len(astar_plan(state)) != bfs_plan_length(state):
                mismatches += 1
    # every expert episode achieves the sparse reward
    failures = 0
    for seed in range(50):
        state = keydoor_reset(8, 1000 + seed)
        total = 0.0
        for action in astar_plan(state):
            state, result = keydoor_step(state, action)
            total += result.reward
        if total != 1.0 or not result.done:
            failures += 1
    report(
        "4 (expert optimality)",
        mismatches == 0 and failures == 0,
        f"600 planner/oracle comparisons, {mismatches} mismatches; 50 executions, {failures} failures",
    )


# ---------------------------------------------------------------------------
# 5-8. Directional reproductions through the real harness
# ---------------------------------------------------------------------------

GRID_STEPS = int(os.environ.get("ANNEALED_IL_ACCEPT_STEPS", "400000"))
POINT_STEPS = int(os.environ.get("ANNEALED_IL_ACCEPT_POINT_STEPS", "300000"))
SEEDS = [0, 1, 2]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread():
    """Set the BLAS thread count to 1 for processes started inside the block."""
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _run_all(configs) -> list:
    """``run`` each config, two at a time in fresh processes; returns the run dirs.

    The runs are independent and deterministic, so their outputs are the same
    as run one after another; each worker gets one BLAS thread so the two
    share the cores instead of spinning against each other.
    """
    with _one_blas_thread(), ProcessPoolExecutor(
        max_workers=2, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        return list(pool.map(run, configs))


def _final(run_dir) -> tuple:
    report = json.loads((Path(run_dir) / "report.json").read_text())
    return report["pooled_mean"], report["pooled_std"]


@pytest.fixture(scope="module")
def grid_bundle(tmp_path_factory):
    """Baseline ladder on keydoor8 with 200 expert trajectories (criteria 5, 6)."""
    out = tmp_path_factory.mktemp("grid_bundle")
    data = out / "keydoor8.jsonl"
    save_dataset(collect(make_env("keydoor8"), AStarExpert(), 200, 990000), data)
    base = TrainConfig(
        env="keydoor", grid_size=8, seeds=SEEDS, dataset=str(data), out=str(out),
        total_steps=GRID_STEPS,
    )
    algorithms = ("bc", "gail", "bcgail_annealed", "bc_pretrain_gail", "reinforce")
    return dict(zip(algorithms, _run_all([replace(base, algorithm=a) for a in algorithms])))


@pytest.mark.slow
def test_criterion_5_gridworld_directional(grid_bundle):
    summaries = {s.name: s for s in compare(list(grid_bundle.values()), threshold=0.9)}
    anneal = summaries["bcgail_annealed"]
    gail = summaries["gail"]
    reinforce = summaries["reinforce"]
    bc_final, _ = _final(grid_bundle["bc"])
    anneal_final, _ = _final(grid_bundle["bcgail_annealed"])

    a = anneal.steps_to_threshold is not None
    if gail.steps_to_threshold is None:
        b = a
    else:
        b = a and anneal.steps_to_threshold <= 0.7 * gail.steps_to_threshold
    c = bc_final < anneal_final
    if reinforce.steps_to_threshold is None:
        d = True
    else:
        d = a and reinforce.steps_to_threshold > anneal.steps_to_threshold
    detail = (
        f"(a) annealed reached 0.9: {a} (steps={anneal.steps_to_threshold}); "
        f"(b) vs gail (steps={gail.steps_to_threshold}): {b}; "
        f"(c) bc final {bc_final:.3f} < annealed final {anneal_final:.3f}: {c}; "
        f"(d) reinforce (steps={reinforce.steps_to_threshold}): {d}; budget={GRID_STEPS}"
    )
    report("5 (gridworld directional reproduction)", a and b and c and d, detail)


@pytest.mark.slow
def test_criterion_6_pretraining_degradation(grid_bundle):
    pretrain_dir = Path(grid_bundle["bc_pretrain_gail"])
    anneal_final, _ = _final(grid_bundle["bcgail_annealed"])
    pretrain_final, _ = _final(pretrain_dir)

    early_below_postbc = []
    for seed in SEEDS:
        seed_dir = pretrain_dir / f"seed_{seed}"
        post_bc = json.loads((seed_dir / "eval_postbc.json").read_text())["mean"]
        rows = [r for r in read_metrics(seed_dir / "metrics.csv") if r["phase"] == "rl"]
        budget = rows[-1]["env_steps"] - rows[0]["env_steps"]
        cutoff = rows[0]["env_steps"] + max(1, int(0.1 * budget))
        early = [r["mean_episode_return"] for r in rows if r["env_steps"] <= cutoff and r["episodes"] > 0]
        early_mean = float(np.mean(early)) if early else float("nan")
        early_below_postbc.append(early_mean < post_bc)
    first_clause = all(early_below_postbc)
    second_clause = pretrain_final <= anneal_final
    report(
        "6 (pretraining degradation)",
        first_clause and second_clause,
        f"early-training return below post-cloning eval per seed: {early_below_postbc}; "
        f"final {pretrain_final:.3f} <= annealed final {anneal_final:.3f}: {second_clause}",
    )


@pytest.mark.slow
def test_criterion_7_random_reward_ablation(tmp_path_factory):
    out = tmp_path_factory.mktemp("random_reward")
    data = out / "point5.jsonl"
    save_dataset(collect(make_env("pointreach"), PointExpert(), 5, 990000), data)
    base = TrainConfig(env="pointreach", seeds=SEEDS, dataset=str(data), out=str(out),
                       total_steps=POINT_STEPS)
    rr_dir, bc_dir = _run_all([replace(base, algorithm="random_reward_ablation"), replace(base, algorithm="bc")])
    rr_final, _ = _final(rr_dir)
    bc_final, _ = _final(bc_dir)
    report(
        "7 (random-reward ablation)",
        rr_final >= bc_final,
        f"frozen-disc final {rr_final:.1f} >= bc final {bc_final:.1f}",
    )


@pytest.mark.slow
def test_criterion_8_annealing_vs_fixed(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    data = out / "point1.jsonl"
    save_dataset(collect(make_env("pointreach"), PointExpert(), 1, 990000), data)
    base = TrainConfig(env="pointreach", seeds=SEEDS, dataset=str(data), out=str(out),
                       total_steps=POINT_STEPS)
    configs = [replace(base, algorithm="bcgail_fixed", alpha=alpha) for alpha in (0.25, 0.5, 0.75)]
    configs.append(replace(base, algorithm="bcgail_annealed"))
    dirs = dict(zip((0.25, 0.5, 0.75, "annealed"), _run_all(configs)))

    from annealed_il.reproduce import POINT_THRESHOLD

    summaries = {s.name: s for s in compare(list(dirs.values()), threshold=POINT_THRESHOLD)}
    finals = {name: _final(d) for name, d in dirs.items()}
    best_fixed_name = max((a for a in (0.25, 0.5, 0.75)), key=lambda a: finals[a][0])
    best_fixed_mean, best_fixed_std = finals[best_fixed_name]
    annealed_mean, _ = _final(dirs["annealed"])

    first = annealed_mean >= best_fixed_mean - best_fixed_std
    s_annealed = summaries["bcgail_annealed"].steps_to_threshold
    s_fixed25 = summaries["bcgail_fixed0.25"].steps_to_threshold
    if s_fixed25 is None:
        second = s_annealed is not None
    else:
        second = s_annealed is not None and s_annealed <= s_fixed25
    report(
        "8 (annealing vs fixed sweep)",
        first and second,
        f"annealed final {annealed_mean:.1f} >= best fixed ({best_fixed_name}) "
        f"{best_fixed_mean:.1f} - std {best_fixed_std:.1f}: {first}; "
        f"steps-to-threshold annealed={s_annealed} vs alpha0.25={s_fixed25}: {second}",
    )


# ---------------------------------------------------------------------------
# 9. Determinism of the full pipeline
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_9_determinism(tmp_path):
    data = tmp_path / "point.jsonl"
    save_dataset(collect(make_env("pointreach"), PointExpert(), 3, 0), data)
    config = TrainConfig(
        env="pointreach",
        algorithm="bcgail_annealed",
        seeds=[0],
        dataset=str(data),
        total_steps=2048,
        rollout_steps=256,
        eval_every=4,
        eval_episodes=3,
    )
    d1 = run(replace(config, out=str(tmp_path / "a")))
    d2 = run(replace(config, out=str(tmp_path / "b")))
    same_metrics = (d1 / "seed_0" / "metrics.csv").read_bytes() == (d2 / "seed_0" / "metrics.csv").read_bytes()
    same_evals = (d1 / "seed_0" / "eval.jsonl").read_bytes() == (d2 / "seed_0" / "eval.jsonl").read_bytes()
    report("9 (determinism)", same_metrics and same_evals, "rerun produced byte-identical metrics and evals")


# ---------------------------------------------------------------------------
# 10. Boundary equivalences
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_10_boundary_equivalence(tmp_path):
    data = tmp_path / "point.jsonl"
    save_dataset(collect(make_env("pointreach"), PointExpert(), 3, 0), data)
    base = TrainConfig(
        env="pointreach",
        seeds=[0],
        dataset=str(data),
        total_steps=2048,
        rollout_steps=256,
        eval_every=4,
        eval_episodes=3,
    )
    d_gail = run(replace(base, algorithm="gail", out=str(tmp_path / "g")))
    d_fixed0 = run(replace(base, algorithm="bcgail_fixed", alpha=0.0, out=str(tmp_path / "f")))
    identical = (d_gail / "seed_0" / "metrics.csv").read_bytes() == (d_fixed0 / "seed_0" / "metrics.csv").read_bytes()

    # alpha = 1: the policy-gradient term contributes exactly zero gradient
    rng = np.random.default_rng(0)
    spec = ActionSpec(kind="discrete", n=4)
    net = build_policy_net(5, spec, rng, hidden=[4, 3])
    obs = rng.standard_normal((6, 5))
    actions = rng.integers(0, 4, 6)
    eobs = rng.standard_normal((4, 5))
    eactions = rng.integers(0, 4, 4)
    targets = rng.standard_normal(6)
    _, g_combined, _ = policy_loss(net, spec, obs, actions, rng.standard_normal(6) * 100, targets,
                                   1.0, eobs, eactions, entropy_coef=0.01, value_coef=0.5)
    _, g_bc = bc_loss(net, spec, eobs, eactions)
    _, g_v = value_loss(net, obs, targets)
    _, g_h = entropy_term(net, spec, obs)
    manual = [b + 0.5 * v - 0.01 * h for b, v, h in zip(g_bc, g_v, g_h)]
    pg_contribution = max(np.max(np.abs(a - b)) for a, b in zip(g_combined, manual))

    report(
        "10 (boundary equivalence)",
        identical and pg_contribution < 1e-10,
        f"fixed(0) metrics identical to the adversarial run: {identical}; "
        f"alpha=1 policy-gradient contribution {pg_contribution:.2e}",
    )
