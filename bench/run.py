"""Benchmark: train one workload through the package's Python API and report it.

    python3 bench/run.py --workload keydoor8-annealed --seed 0 --seconds 30 --trace 0

The process collects its workload's expert dataset, then runs whole rounds
of training operations (one ``run()`` call per training seed, as
``annealed-il train --seed S`` makes) until about ``--seconds`` have been
spent, checks every output, and prints one JSON object as the last line of
standard output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps the package's layers in spans and reports per-layer
metrics instead.  See README.md for the workloads and metric definitions.
"""

import time

PROCESS_START = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

from spans import Patches, Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RUNS_DIR = BENCH_DIR / ".runs"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

DATASET_SEED = 990_000  # the experiment bundles' dataset seed; trajectory i resets with +i
DATASET_SEED_STRIDE = 1_000  # per --seed step; larger than any dataset's trajectory count
OUTPUT_FILES = ("metrics.csv", "eval.jsonl", "eval_final.json", "checkpoint_final.ckpt")
CHECK_BATCH = 64


@dataclass(frozen=True)
class Workload:
    env: str
    grid_size: int
    algorithm: str
    n_trajectories: int
    seeds_per_round: int
    budget: dict  # TrainConfig fields that bound one seed's work

    @property
    def env_id(self) -> str:
        return f"keydoor{self.grid_size}" if self.env == "keydoor" else "pointreach"


WORKLOADS = {
    "keydoor8-annealed": Workload("keydoor", 8, "bcgail_annealed", 200, 2, {"total_steps": 10_240}),
    "pointreach-annealed": Workload("pointreach", 8, "bcgail_annealed", 1, 2, {"total_steps": 10_240}),
    "keydoor12-bc": Workload("keydoor", 12, "bc", 500, 3, {"bc_max_epochs": 10}),
}


@dataclass
class Op:
    """One seed's training run and what the probes saw of it."""

    seed: int
    round: int
    out: Path
    seed_dir: Optional[Path] = None
    end: float = 0.0
    first_update: Optional[float] = None
    eval_before: float = 0.0  # evaluation time before the first update
    eval_after: float = 0.0
    eval_steps: int = 0
    eval_seed: Optional[int] = None  # rng seed of the latest evaluation
    rollout_steps: int = 0
    samples: int = 0  # samples through a gradient update
    bc_epochs: int = 0
    policy: object = None  # the nets as trained, for the checkpoint and gradient checks
    disc: object = None
    disc_mode: object = None
    error: Optional[str] = None


class Probe:
    """Hooks every run needs, traced or not: when training updates start,
    evaluation time and steps, rollout lengths, and the nets each seed trains."""

    def __init__(self, runner, trainer):
        self.op: Optional[Op] = None
        self.patches = Patches()
        self.patches.replace(runner, "train_iteration", self._train_iteration)
        self.patches.replace(runner, "train_bc_supervised", self._train_bc)
        self.patches.replace(runner, "evaluate_net", self._evaluate)
        self.patches.replace(runner, "build_trainer", self._build_trainer)
        self.patches.replace(trainer, "collect_rollout", self._collect)

    def _mark_update(self):
        if self.op.first_update is None:
            self.op.first_update = time.perf_counter()

    def _train_iteration(self, fn):
        def wrapper(*args, **kwargs):
            self._mark_update()
            return fn(*args, **kwargs)

        return wrapper

    def _train_bc(self, fn):
        def wrapper(policy, env_spec, train_pairs, *args, **kwargs):
            self._mark_update()
            self.op.policy = policy
            epochs = fn(policy, env_spec, train_pairs, *args, **kwargs)
            self.op.bc_epochs += epochs
            self.op.samples += epochs * len(train_pairs[0])
            return epochs

        return wrapper

    def _evaluate(self, fn):
        def wrapper(net, env, n_episodes, rng_seed, *args, **kwargs):
            step = env.step
            steps = 0

            def counted(action):  # the env boundary, seen from outside
                nonlocal steps
                steps += 1
                return step(action)

            env.step = counted
            start = time.perf_counter()
            try:
                return fn(net, env, n_episodes, rng_seed, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                del env.step
                op = self.op
                op.eval_steps += steps
                op.eval_seed = rng_seed
                if op.first_update is None:
                    op.eval_before += elapsed
                else:
                    op.eval_after += elapsed

        return wrapper

    def _build_trainer(self, fn):
        def wrapper(*args, **kwargs):
            state = fn(*args, **kwargs)
            self.op.policy, self.op.disc, self.op.disc_mode = state.policy, state.disc, state.disc_mode
            return state

        return wrapper

    def _collect(self, fn):
        def wrapper(*args, **kwargs):
            buf = fn(*args, **kwargs)
            self.op.rollout_steps += len(buf)
            self.op.samples += len(buf)
            return buf

        return wrapper


def trace_layers(tracer, m) -> None:
    """Span every layer boundary the per-layer metrics name."""
    for env_cls in (m.KeyDoorEnv, m.PointReachEnv):
        tracer.patch(env_cls, "step", "envs.step")
        tracer.patch(env_cls, "reset", "envs.reset")
    tracer.patch(m.MLP, "forward", lambda net, x: "nets.forward1" if len(x) == 1 else "nets.forward_batch")
    tracer.patch(m.MLP, "backward", "nets.backward")
    tracer.patch(m.Adam, "step", "nets.adam_step")
    tracer.patch(m.Dataset, "pairs", "data.pairs")
    tracer.patch(m.MetricsWriter, "write", "metrics.write")
    tracer.patch(m.rollout, "sample_policy_action", "rollout.sample_action")
    tracer.patch(m.trainer, "collect_rollout", "rollout.collect")
    tracer.patch(m.trainer, "compute_advantages", "rollout.advantages")
    tracer.patch(m.trainer, "disc_loss", "losses.disc_loss")
    tracer.patch(m.runner, "disc_loss", "losses.disc_loss")
    tracer.patch(m.trainer, "surrogate_reward", "losses.surrogate_reward")
    tracer.patch(m.trainer, "policy_loss", "losses.policy_loss")
    tracer.patch(m.losses, "bc_loss", "losses.bc_loss")
    tracer.patch(m.runner, "train_iteration", "trainer.iteration")
    tracer.patch(m.runner, "train_bc_supervised", "trainer.bc")
    tracer.patch(m.runner, "evaluate_net", "evaluate")
    tracer.patch(m.runner, "save_checkpoint", "nets.checkpoint")
    tracer.patch(m.runner, "load_dataset", "data.load")


# (metric, span, statistic, scale).  per_call: self time per call over the
# whole process; calls_per_round and self_per_round: over the operations only.
LAYER_METRICS = (
    ("envs.step_us", "envs.step", "per_call", 1e6),
    ("envs.step_calls", "envs.step", "calls_per_round", 1),
    ("envs.reset_us", "envs.reset", "per_call", 1e6),
    ("nets.forward1_us", "nets.forward1", "per_call", 1e6),
    ("nets.forward1_calls", "nets.forward1", "calls_per_round", 1),
    ("nets.forward_batch_us", "nets.forward_batch", "per_call", 1e6),
    ("nets.backward_us", "nets.backward", "per_call", 1e6),
    ("nets.adam_step_us", "nets.adam_step", "per_call", 1e6),
    ("nets.adam_calls", "nets.adam_step", "calls_per_round", 1),
    ("rollout.collect_self_ms", "rollout.collect", "per_call", 1e3),
    ("rollout.sample_action_us", "rollout.sample_action", "per_call", 1e6),
    ("rollout.advantages_ms", "rollout.advantages", "per_call", 1e3),
    ("losses.disc_loss_ms", "losses.disc_loss", "per_call", 1e3),
    ("losses.surrogate_reward_ms", "losses.surrogate_reward", "per_call", 1e3),
    ("losses.policy_loss_ms", "losses.policy_loss", "per_call", 1e3),
    ("losses.bc_loss_ms", "losses.bc_loss", "per_call", 1e3),
    ("trainer.iteration_self_ms", "trainer.iteration", "per_call", 1e3),
    ("metrics.write_us", "metrics.write", "per_call", 1e6),
    ("nets.checkpoint_s", "nets.checkpoint", "per_call", 1),
    ("runner.self_s", "runner", "self_per_round", 1),
    ("evaluate.self_s", "evaluate", "self_per_round", 1),
    ("experts.collect_s", "experts.collect", "per_call", 1),
    ("data.save_s", "data.save", "per_call", 1),
    ("data.load_s", "data.load", "per_call", 1),
    ("data.pairs_s", "data.pairs", "per_call", 1),
    ("data.pairs_calls", "data.pairs", "calls_per_round", 1),
)
UNITS = {1e6: "us", 1e3: "ms"}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, ops_phase, ops, rounds):
    metrics = {}
    for name, span, statistic, scale in LAYER_METRICS:
        calls, _, self_time = tracer.stats.get(span, (0, 0.0, 0.0))
        op_calls, _, op_self = ops_phase.get(span, (0, 0.0, 0.0))
        if statistic == "per_call":
            value, unit = _ratio(self_time, calls) * scale, UNITS.get(scale, "s")
        elif statistic == "calls_per_round":
            value, unit = op_calls / rounds, "count"
        else:
            value, unit = op_self / rounds, "s"
        metrics[name] = (value, unit)
    epochs = sum(op.bc_epochs for op in ops)
    metrics["trainer.bc_epoch_ms"] = (_ratio(ops_phase.get("trainer.bc", (0, 0.0))[1], epochs) * 1e3, "ms")
    metrics["trainer.bc_epochs"] = (epochs / rounds, "count")
    metrics["evaluate.steps"] = (sum(op.eval_steps for op in ops) / rounds, "count")
    return metrics


def end_to_end_metrics(ops, peak_rss_mb):
    """Rates are medians over operations, which damps bursts of machine noise."""
    first = ops[0]
    if first.first_update is None:
        setup_s = first.end - PROCESS_START
    else:
        setup_s = first.first_update - first.eval_before - PROCESS_START
    trained = [op for op in ops if op.first_update is not None]
    train_rates = [_ratio(op.samples, op.end - op.first_update - op.eval_after) for op in trained]
    eval_rates = [_ratio(op.eval_steps, op.eval_before + op.eval_after) for op in ops]
    return {
        "setup_s": (setup_s, "s"),
        "train_samples_per_s": (statistics.median(train_rates) if train_rates else 0.0, "samples/s"),
        "eval_steps_per_s": (statistics.median(eval_rates), "steps/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def check_op(op, workload, dataset, m, checks):
    """Every check of one round-0 operation; raises CheckFailed."""
    import numpy as np

    seed_dir = op.seed_dir
    config = checks.read_json(seed_dir.parent / "config.json")
    rows = checks.load_rows(seed_dir)
    episodes = config["eval_episodes"]
    evals = checks.read_jsonl(seed_dir / "eval.jsonl") + [checks.read_json(seed_dir / "eval_final.json")]
    checks.check_eval_bounds(evals, workload.env_id, episodes)
    checks.check_checkpoint_params(seed_dir / "checkpoint_final.ckpt", op.policy)
    if workload.env == "keydoor":  # pointreach re-evaluation differs in the last digit: see README
        checks.check_checkpoint_eval(seed_dir, workload.env_id, episodes, op.eval_seed)

    net, _ = m.load_checkpoint(seed_dir / "checkpoint_final.ckpt")
    spec = dataset.action_spec
    rng = np.random.default_rng(op.seed)
    obs, actions = dataset.pairs()

    def batch():
        idx = rng.integers(0, len(obs), CHECK_BATCH)
        return obs[idx], actions[idx]

    if workload.algorithm == "bc":
        b_obs, b_act = batch()
        checks.check_gradient(lambda: m.bc_loss(net, spec, b_obs, b_act), net, rng)
        checks.check_best_validation(rows, net, dataset, op.seed)
        return

    checks.check_schedule(rows, config["half_life"])
    checks.check_step_accounting(rows, op.rollout_steps, config["total_steps"], config["rollout_steps"])
    (r_obs, r_act), (e_obs, e_act) = batch(), batch()
    advantages, targets = rng.standard_normal(CHECK_BATCH), rng.standard_normal(CHECK_BATCH)
    alpha = [row for row in rows if row["phase"] == "rl"][-1]["alpha"]

    def policy_objective():
        total, grads, _ = m.policy_loss(
            net, spec, r_obs, r_act, advantages, targets, alpha, e_obs, e_act,
            entropy_coef=config["entropy_coef"], value_coef=config["value_coef"],
        )
        return total, grads

    checks.check_gradient(policy_objective, net, rng)
    expert_in = m.disc_inputs(e_obs, e_act, spec)
    policy_in = m.disc_inputs(r_obs, rng.permutation(r_act), spec)
    checks.check_gradient(lambda: m.disc_loss(op.disc, expert_in, policy_in, op.disc_mode), op.disc, rng)


def run_checks(ops, workload, dataset_path, dataset_seed, m, checks):
    """Marks failed operations; returns run-level problems."""
    dataset = m.load_dataset(dataset_path)
    problems = []
    try:
        checks.check_expert_replay(dataset, dataset_seed)
    except checks.CheckFailed as e:
        problems.append(f"expert replay: {e}")
    first = {}
    for op in ops:
        if op.round == 0:
            first[op.seed] = op
        if op.error is not None:
            continue
        try:
            if op.round == 0:
                check_op(op, workload, dataset, m, checks)
            elif first[op.seed].error is not None:
                op.error = f"round 0 of seed {op.seed} failed"
            else:
                checks.check_same_files(first[op.seed].seed_dir, op.seed_dir, OUTPUT_FILES)
        except checks.CheckFailed as e:
            op.error = f"check failed: {e}"
    return problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """The package objects the benchmark calls and wraps, imported from SRC."""
    import annealed_il
    from annealed_il import losses, rollout, runner, trainer
    from annealed_il.config import TrainConfig
    from annealed_il.data import Dataset, load_dataset, save_dataset
    from annealed_il.envs import KeyDoorEnv, PointReachEnv, make_env
    from annealed_il.experts import AStarExpert, PointExpert, collect
    from annealed_il.losses import bc_loss, disc_inputs, disc_loss, policy_loss
    from annealed_il.metrics import MetricsWriter
    from annealed_il.nets import MLP, Adam, load_checkpoint

    if Path(annealed_il.__file__).resolve().parent != (SRC / "annealed_il").resolve():
        raise ImportError(f"annealed_il was imported from {annealed_il.__file__}, not {SRC}")
    return SimpleNamespace(**locals())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "annealed_il" / "__init__.py").is_file():
        print(f"error: no annealed_il package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("ANNEALED_IL_OUT", None)  # it would redirect every run's output
    sys.path.insert(0, str(SRC))

    import checks  # imports numpy, so only after the BLAS variables are set

    m = import_package()
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        trace_layers(tracer, m)
    probe = Probe(m.runner, m.trainer)

    def spanned(name, fn):
        return tracer.wrap(name, fn) if tracer else fn

    RUNS_DIR.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
    try:
        # set-up: what `annealed-il collect-expert` does
        dataset_seed = DATASET_SEED + DATASET_SEED_STRIDE * args.seed
        expert = m.AStarExpert() if workload.env == "keydoor" else m.PointExpert()
        dataset = spanned("experts.collect", m.collect)(
            m.make_env(workload.env_id), expert, workload.n_trajectories, dataset_seed
        )
        dataset_path = out / "dataset.jsonl"
        spanned("data.save", m.save_dataset)(dataset, dataset_path)
        del dataset

        # whole rounds of operations, each what `annealed-il train --seed S` does
        run = spanned("runner", m.runner.run)
        seeds = [workload.seeds_per_round * args.seed + k for k in range(workload.seeds_per_round)]
        ops_start = tracer.snapshot() if tracer else None
        ops, rounds, measure_start = [], 0, time.perf_counter()
        while True:
            for seed in seeds:
                op = Op(seed=seed, round=rounds, out=out / f"r{rounds}-s{seed}")
                probe.op = op
                config = m.TrainConfig(
                    env=workload.env,
                    grid_size=workload.grid_size,
                    algorithm=workload.algorithm,
                    seeds=[seed],
                    dataset=str(dataset_path),
                    out=str(op.out),
                    **workload.budget,
                )
                try:
                    op.seed_dir = run(config) / f"seed_{seed}"
                except Exception as e:  # a seed that raises is a failed operation
                    traceback.print_exc()
                    op.error = f"{type(e).__name__}: {e}"
                op.end = time.perf_counter()
                ops.append(op)
            rounds += 1
            if rounds == 1:  # later rounds repeat the same work
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            elapsed = time.perf_counter() - measure_start
            if elapsed + 0.5 * elapsed / rounds >= args.seconds:  # nearest whole round
                break
        print(
            f"{args.workload}: {len(ops)} operations in {rounds} rounds, {elapsed:.2f} s"
            f" ({elapsed / len(ops):.3f} s per operation)",
            file=sys.stderr,
        )
        ops_phase = tracer.since(ops_start) if tracer else None
        probe.patches.restore()
        if tracer:
            tracer.patches.restore()

        problems = run_checks(ops, workload, dataset_path, dataset_seed, m, checks)
        if tracer:
            env_steps = ops_phase.get("envs.step", (0,))[0]
            expected = sum(op.rollout_steps + op.eval_steps for op in ops)
            if env_steps != expected:
                problems.append(f"env.step calls {env_steps} != rollout + evaluation steps {expected}")
            metrics = layer_metrics(tracer, ops_phase, ops, rounds)
        else:
            metrics = end_to_end_metrics(ops, peak_rss_mb)
    except BaseException:
        print(f"benchmark output kept in {out}", file=sys.stderr)
        raise

    failed = [op for op in ops if op.error is not None]
    for op in failed:
        print(f"seed {op.seed} round {op.round} failed: {op.error}", file=sys.stderr)
    for problem in problems:
        print(f"run check failed: {problem}", file=sys.stderr)
    if failed or problems:
        print(f"benchmark output kept in {out}", file=sys.stderr)
    else:
        shutil.rmtree(out)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(ops),
                "failed": len(failed),
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
