"""Tests of the benchmark's span accounting and of its correctness checks.

Each check must pass on a real run's outputs and fail once one of them is
corrupted.  Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import copy
import json

import numpy as np
import pytest

import checks
import run as bench
from annealed_il import runner as runner_module
from annealed_il import trainer as trainer_module
from annealed_il.config import TrainConfig
from annealed_il.data import load_dataset, save_dataset
from annealed_il.envs import make_env
from annealed_il.experts import AStarExpert, collect
from annealed_il.losses import bc_loss
from annealed_il.nets import load_checkpoint
from spans import Tracer

DATASET_SEED = 5
SEED = 3


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_on_a_nested_call_tree():
    clock = FakeClock()
    tracer = Tracer(clock)

    def work(seconds):
        clock.t += seconds

    leaf = tracer.wrap("leaf", lambda: work(3))

    def mid_body():
        work(1)
        leaf()
        work(2)

    mid = tracer.wrap("mid", mid_body)

    def root_body():
        work(5)
        mid()
        mid()
        leaf()

    tracer.wrap("root", root_body)()
    # [calls, total, self]: each mid lasts 1 + 3 + 2 = 6 s, of which leaf covers 3
    assert tracer.stats == {"leaf": [3, 9.0, 9.0], "mid": [2, 12.0, 6.0], "root": [1, 20.0, 5.0]}


def test_span_names_from_arguments_and_restore():
    class Net:
        def forward(self, x):
            if x == "bad":
                raise ValueError(x)
            return x

    original = Net.__dict__["forward"]
    tracer = Tracer(FakeClock())
    tracer.patch(Net, "forward", lambda net, x: f"forward.{x}")
    net = Net()
    assert net.forward("a") == "a"
    with pytest.raises(ValueError):
        net.forward("bad")
    before = tracer.snapshot()
    net.forward("a")
    assert tracer.since(before)["forward.a"][0] == 1
    assert {name: stat[0] for name, stat in tracer.stats.items()} == {"forward.a": 2, "forward.bad": 1}
    tracer.patches.restore()
    assert Net.__dict__["forward"] is original


# -- a real run's outputs ------------------------------------------------------


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A tiny keydoor8 dataset, and one annealed and one cloning run on it
    made under the benchmark's probes."""
    root = tmp_path_factory.mktemp("bench_outputs")
    dataset_path = root / "dataset.jsonl"
    save_dataset(collect(make_env("keydoor8"), AStarExpert(), 10, DATASET_SEED), dataset_path)
    base = dict(env="keydoor", grid_size=8, seeds=[SEED], dataset=str(dataset_path), eval_episodes=2)
    ops = {}
    probe = bench.Probe(runner_module, trainer_module)
    try:
        for algorithm, budget in (("bcgail_annealed", {"total_steps": 512}), ("bc", {"bc_max_epochs": 4})):
            op = probe.op = bench.Op(seed=SEED, round=0, out=root / algorithm)
            config = TrainConfig(algorithm=algorithm, out=str(op.out), **base, **budget)
            op.seed_dir = runner_module.run(config) / f"seed_{SEED}"
            ops[algorithm] = op
    finally:
        probe.patches.restore()
    return {"dataset": load_dataset(dataset_path), "annealed": ops["bcgail_annealed"], "bc": ops["bc"]}


def test_check_op_passes_on_real_outputs(outputs):
    m = bench.import_package()
    for key, workload in (
        ("annealed", bench.Workload("keydoor", 8, "bcgail_annealed", 10, 1, {"total_steps": 512})),
        ("bc", bench.Workload("keydoor", 8, "bc", 10, 1, {"bc_max_epochs": 4})),
    ):
        bench.check_op(outputs[key], workload, outputs["dataset"], m, checks)
    assert outputs["annealed"].rollout_steps == outputs["annealed"].samples == 512
    assert outputs["annealed"].eval_steps > 0 and outputs["bc"].bc_epochs == 4


def test_schedule_check(outputs):
    rows = checks.load_rows(outputs["annealed"].seed_dir)
    checks.check_schedule(rows, 300)
    bad = copy.deepcopy(rows)
    bad[-1]["alpha"] *= 1 + 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.check_schedule(bad, 300)


def test_step_accounting_check(outputs):
    rows = checks.load_rows(outputs["annealed"].seed_dir)
    checks.check_step_accounting(rows, 512, 512, 256)
    checks.check_step_accounting(rows, 512, 700, 256)  # budget rounds down to whole rollouts
    with pytest.raises(checks.CheckFailed):
        checks.check_step_accounting(rows, 256, 512, 256)
    with pytest.raises(checks.CheckFailed):
        checks.check_step_accounting(rows, 512, 768, 256)


def test_eval_bounds_check(outputs):
    rows = checks.read_jsonl(outputs["annealed"].seed_dir / "eval.jsonl")
    checks.check_eval_bounds(rows, "keydoor8", 2)
    bad = copy.deepcopy(rows)
    bad[0]["returns"][0] = 0.5
    with pytest.raises(checks.CheckFailed):
        checks.check_eval_bounds(bad, "keydoor8", 2)
    with pytest.raises(checks.CheckFailed):
        checks.check_eval_bounds(rows, "keydoor8", 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_eval_bounds([{"returns": [-1.0, 0.5]}], "pointreach", 2)


def test_checkpoint_checks(outputs, tmp_path):
    op = outputs["annealed"]
    seed_dir = op.seed_dir
    checks.check_checkpoint_params(seed_dir / "checkpoint_final.ckpt", op.policy)
    checks.check_checkpoint_eval(seed_dir, "keydoor8", 2, op.eval_seed)

    flipped = tmp_path / "flipped.ckpt"
    blob = (seed_dir / "checkpoint_final.ckpt").read_bytes()
    header_end = blob.index(b"\n") + 1
    flat = np.frombuffer(blob[header_end:], dtype="<f8").copy()
    flat[7] = -flat[7] if flat[7] != 0 else 1.0
    flipped.write_bytes(blob[:header_end] + flat.tobytes())
    with pytest.raises(checks.CheckFailed):
        checks.check_checkpoint_params(flipped, op.policy)

    wrong = tmp_path / "seed"
    wrong.mkdir()
    (wrong / "checkpoint_final.ckpt").write_bytes(blob)
    final = checks.read_json(seed_dir / "eval_final.json")
    final["returns"][0] = 1.0 - final["returns"][0]
    (wrong / "eval_final.json").write_text(json.dumps(final))
    with pytest.raises(checks.CheckFailed):
        checks.check_checkpoint_eval(wrong, "keydoor8", 2, op.eval_seed)


def test_expert_replay_check(outputs):
    dataset = outputs["dataset"]
    checks.check_expert_replay(dataset, DATASET_SEED)
    with pytest.raises(checks.CheckFailed):
        checks.check_expert_replay(dataset, DATASET_SEED + 1)
    bad = copy.deepcopy(dataset)
    bad.trajectories[2].transitions[1].obs[0] += 1e-12
    with pytest.raises(checks.CheckFailed):
        checks.check_expert_replay(bad, DATASET_SEED)
    cut = copy.deepcopy(dataset)
    cut.trajectories[0].transitions.pop()
    with pytest.raises(checks.CheckFailed):
        checks.check_expert_replay(cut, DATASET_SEED)


def test_gradient_check(outputs):
    dataset = outputs["dataset"]
    net, _ = load_checkpoint(outputs["bc"].seed_dir / "checkpoint_final.ckpt")
    obs, actions = dataset.pairs()
    spec = dataset.action_spec

    def loss():
        return bc_loss(net, spec, obs[:32], actions[:32])

    def wrong():
        value, grads = loss()
        grads[0] = grads[0] * 1.01
        return value, grads

    checks.check_gradient(loss, net, np.random.default_rng(0))
    with pytest.raises(checks.CheckFailed):
        checks.check_gradient(wrong, net, np.random.default_rng(0))


def test_best_validation_check(outputs):
    dataset = outputs["dataset"]
    rows = checks.load_rows(outputs["bc"].seed_dir)
    net, _ = load_checkpoint(outputs["bc"].seed_dir / "checkpoint_final.ckpt")
    checks.check_best_validation(rows, net, dataset, SEED)
    bad = copy.deepcopy(rows)
    bad[-1]["val_loss"] = min(r["val_loss"] for r in rows) - 1e-3
    with pytest.raises(checks.CheckFailed):
        checks.check_best_validation(bad, net, dataset, SEED)


def test_same_files_check(outputs, tmp_path):
    names = ("metrics.csv",)
    bc_dir = outputs["bc"].seed_dir
    checks.check_same_files(bc_dir, bc_dir, names)
    copy_dir = tmp_path / "copy"
    copy_dir.mkdir()
    text = (bc_dir / "metrics.csv").read_text()
    (copy_dir / "metrics.csv").write_text(text.replace("bc,0,", "bc,9,", 1))
    with pytest.raises(checks.CheckFailed):
        checks.check_same_files(bc_dir, copy_dir, names)
