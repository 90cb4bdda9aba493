"""Harness: config validation, run orchestration, evaluation, comparison,
and the CLI surface."""

import json
import os
import shutil

import numpy as np
import pytest

from annealed_il.cli import build_parser, main
from annealed_il.compare import compare, pooled_curve, smooth, steps_to_threshold
from annealed_il.config import ConfigError, TrainConfig, resolve, validate
from annealed_il.data import save_dataset
from annealed_il.envs import make_env
from annealed_il.evaluate import evaluate_checkpoint, evaluate_net, pool_reports
from annealed_il.experts import AStarExpert, PointExpert, collect
from annealed_il.metrics import read_metrics
from annealed_il.nets import build_policy_net, save_checkpoint
from annealed_il.runner import run


@pytest.fixture(scope="module")
def point_dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "point.jsonl"
    save_dataset(collect(make_env("pointreach"), PointExpert(), 5, 0), path)
    return str(path)


@pytest.fixture(scope="module")
def grid_dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "grid.jsonl"
    save_dataset(collect(make_env("keydoor8"), AStarExpert(), 6, 0), path)
    return str(path)


def tiny_config(dataset_path, out, **kw):
    base = dict(
        env="pointreach",
        algorithm="gail",
        seeds=[0],
        dataset=dataset_path,
        out=out,
        total_steps=512,
        rollout_steps=128,
        eval_every=2,
        eval_episodes=3,
        bc_max_epochs=4,
        bc_patience=2,
        disc_pretrain_updates=3,
    )
    base.update(kw)
    return TrainConfig(**base)


# -- config ------------------------------------------------------------------


def test_env_defaults_resolve():
    c = resolve(TrainConfig(env="keydoor", algorithm="reinforce"))
    assert c.disc_mode is not None and c.rollout_steps > 0 and c.entropy_coef is not None


def test_validate_catches_bad_configs(point_dataset_path):
    with pytest.raises(ConfigError, match="algorithm"):
        validate(TrainConfig(algorithm="dqn", dataset=point_dataset_path))
    with pytest.raises(ConfigError, match="seeds"):
        validate(tiny_config(point_dataset_path, "x", seeds=[]))
    with pytest.raises(ConfigError, match="alpha"):
        validate(tiny_config(point_dataset_path, "x", algorithm="bcgail_fixed"))
    with pytest.raises(ConfigError, match="dataset"):
        validate(tiny_config(None, "x", algorithm="bc", dataset=None))
    with pytest.raises(ConfigError, match="not found"):
        validate(tiny_config("/nonexistent/data.jsonl", "x"))
    with pytest.raises(ConfigError, match="grid_size"):
        validate(TrainConfig(env="keydoor", grid_size=9, algorithm="reinforce"))
    with pytest.raises(ConfigError, match="eval_every"):
        validate(tiny_config(point_dataset_path, "x", eval_every=0))
    with pytest.raises(ConfigError, match="eval_episodes"):
        validate(tiny_config(point_dataset_path, "x", eval_episodes=0))
    # reinforce needs no dataset
    validate(TrainConfig(env="keydoor", algorithm="reinforce"))


def test_config_file_round_trip(tmp_path, point_dataset_path):
    config = tiny_config(point_dataset_path, str(tmp_path))
    path = tmp_path / "config.json"
    with open(path, "w") as f:
        json.dump(config.to_dict(), f)
    loaded = TrainConfig.from_file(path)
    assert loaded == config
    with pytest.raises(ConfigError, match="unknown config keys"):
        TrainConfig.from_dict({"bogus_key": 1})


def test_env_id_and_name():
    assert TrainConfig(env="keydoor", grid_size=10).env_id == "keydoor10"
    assert TrainConfig(env="pointreach").env_id == "pointreach"
    assert TrainConfig(algorithm="bcgail_fixed", alpha=0.25).name == "bcgail_fixed0.25"


def test_out_root_env_var_override(tmp_path, point_dataset_path, monkeypatch):
    monkeypatch.setenv("ANNEALED_IL_OUT", str(tmp_path / "redirected"))
    config = tiny_config(point_dataset_path, str(tmp_path / "ignored"))
    run_dir = run(config)
    assert str(run_dir).startswith(str(tmp_path / "redirected"))


# -- runner -------------------------------------------------------------------


def test_run_writes_expected_files(tmp_path, point_dataset_path):
    run_dir = run(tiny_config(point_dataset_path, str(tmp_path), seeds=[0, 1]))
    assert (run_dir / "config.json").exists()
    assert (run_dir / "report.json").exists()
    for seed in (0, 1):
        seed_dir = run_dir / f"seed_{seed}"
        assert (seed_dir / "metrics.csv").exists()
        assert (seed_dir / "eval.jsonl").exists()
        assert (seed_dir / "eval_final.json").exists()
        assert (seed_dir / "checkpoint_final.ckpt").exists()
    report = json.loads((run_dir / "report.json").read_text())
    assert report["n_episodes"] == 6  # 3 episodes x 2 seeds


def test_rerun_byte_identical(tmp_path, point_dataset_path):
    d1 = run(tiny_config(point_dataset_path, str(tmp_path / "a"), algorithm="bcgail_annealed"))
    d2 = run(tiny_config(point_dataset_path, str(tmp_path / "b"), algorithm="bcgail_annealed"))
    m1 = (d1 / "seed_0" / "metrics.csv").read_bytes()
    m2 = (d2 / "seed_0" / "metrics.csv").read_bytes()
    assert m1 == m2
    e1 = (d1 / "seed_0" / "eval.jsonl").read_bytes()
    e2 = (d2 / "seed_0" / "eval.jsonl").read_bytes()
    assert e1 == e2


def test_env_step_accounting_in_metrics(tmp_path, point_dataset_path):
    run_dir = run(tiny_config(point_dataset_path, str(tmp_path)))
    rows = read_metrics(run_dir / "seed_0" / "metrics.csv")
    rl = [r for r in rows if r["phase"] == "rl"]
    steps = [r["env_steps"] for r in rl]
    assert steps == [128 * (i + 1) for i in range(len(rl))]


def test_bc_run_metrics_have_validation_column(tmp_path, point_dataset_path):
    run_dir = run(tiny_config(point_dataset_path, str(tmp_path), algorithm="bc"))
    rows = read_metrics(run_dir / "seed_0" / "metrics.csv")
    assert rows and all(r["phase"] == "bc" for r in rows)
    assert all(np.isfinite(r["val_loss"]) for r in rows)
    assert all(r["env_steps"] == 0 for r in rows)


def test_bc_pretrain_gail_phases(tmp_path, point_dataset_path):
    run_dir = run(tiny_config(point_dataset_path, str(tmp_path), algorithm="bc_pretrain_gail"))
    rows = read_metrics(run_dir / "seed_0" / "metrics.csv")
    phases = [r["phase"] for r in rows]
    assert "bc" in phases and "disc_pretrain" in phases and "rl" in phases
    assert (run_dir / "seed_0" / "eval_postbc.json").exists()
    # pretraining rollout counts toward the env-step budget
    rl = [r for r in rows if r["phase"] == "rl"]
    assert rl[0]["env_steps"] == 256
    assert rl[-1]["env_steps"] <= 512


def test_run_refuses_a_directory_holding_other_seeds(tmp_path, point_dataset_path):
    run_dir = run(tiny_config(point_dataset_path, str(tmp_path), seeds=[0, 1]))
    config_before = (run_dir / "config.json").read_bytes()
    with pytest.raises(ConfigError, match="seed_0, seed_1"):
        run(tiny_config(point_dataset_path, str(tmp_path), seeds=[5]))
    assert (run_dir / "config.json").read_bytes() == config_before
    assert sorted(p.name for p in run_dir.iterdir()) == ["config.json", "report.json", "seed_0", "seed_1"]
    # a rerun whose seeds cover every seed directory is allowed
    run(tiny_config(point_dataset_path, str(tmp_path), seeds=[1, 0, 2]))


def test_run_rejects_env_mismatch(tmp_path, grid_dataset_path):
    config = tiny_config(grid_dataset_path, str(tmp_path))  # pointreach env, grid data
    with pytest.raises(ConfigError, match="does not match"):
        run(config)


# -- evaluation ----------------------------------------------------------------


def test_evaluate_counts_and_stat_consistency():
    env = make_env("keydoor8")
    net = build_policy_net(env.obs_dim, env.action_spec, np.random.default_rng(0))
    report = evaluate_net(net, env, 20, rng_seed=5)
    assert report.n_episodes == 20
    assert abs(report.mean - np.mean(report.returns)) < 1e-12
    assert abs(report.std - np.std(report.returns)) < 1e-12


def test_random_policy_near_zero_on_grid():
    env = make_env("keydoor8")
    net = build_policy_net(env.obs_dim, env.action_spec, np.random.default_rng(1))
    report = evaluate_net(net, env, 100, rng_seed=3)
    assert report.mean < 0.05


def test_evaluate_deterministic():
    env = make_env("pointreach")
    net = build_policy_net(env.obs_dim, env.action_spec, np.random.default_rng(2))
    r1 = evaluate_net(net, env, 5, rng_seed=9)
    r2 = evaluate_net(net, make_env("pointreach"), 5, rng_seed=9)
    assert r1.returns == r2.returns


def test_evaluate_checkpoint_mismatch(tmp_path):
    env = make_env("pointreach")
    net = build_policy_net(env.obs_dim, env.action_spec, np.random.default_rng(0))
    path = tmp_path / "p.ckpt"
    save_checkpoint(net, path, meta={"env_id": "pointreach"})
    with pytest.raises(ValueError):
        evaluate_checkpoint(path, "keydoor8", 2, 0)
    report = evaluate_checkpoint(path, "pointreach", 2, 0)
    assert report.n_episodes == 2


def test_pool_reports_recompute():
    env = make_env("pointreach")
    net = build_policy_net(env.obs_dim, env.action_spec, np.random.default_rng(0))
    per_seed = {s: evaluate_net(net, env, 4, rng_seed=s) for s in (0, 1, 2)}
    pooled = pool_reports(per_seed)
    all_returns = [r for rep in per_seed.values() for r in rep.returns]
    assert abs(pooled["pooled_mean"] - np.mean(all_returns)) < 1e-12
    assert abs(pooled["pooled_std"] - np.std(all_returns)) < 1e-12
    assert pooled["n_episodes"] == 12


# -- compare -------------------------------------------------------------------


def test_compare_single_run_and_idempotent_pair(tmp_path, point_dataset_path):
    d1 = run(tiny_config(point_dataset_path, str(tmp_path / "r1"), run_name="m1"))
    d2 = run(tiny_config(point_dataset_path, str(tmp_path / "r2"), run_name="m2"))
    out = tmp_path / "cmp"
    summaries = compare([d1, d2], threshold=-10.0, out_dir=out)
    assert len(summaries) == 2
    # identical configs -> identical pooled statistics
    assert summaries[0].final_mean == summaries[1].final_mean
    assert (out / "comparison.csv").exists()
    assert (out / "m1_curve.csv").exists()
    table = (out / "comparison.csv").read_text().splitlines()
    assert table[0] == "method,env_id,final_mean,final_std,steps_to_threshold"
    # curve env_steps are monotone
    curve = summaries[0].curve
    assert all(a[0] <= b[0] for a, b in zip(curve, curve[1:]))


def test_compare_reads_only_the_configured_seeds(tmp_path, point_dataset_path):
    # seed directories of another run, planted next to this run's own
    other_dir = run(tiny_config(point_dataset_path, str(tmp_path / "other"), seeds=[0, 1]))
    run_dir = run(tiny_config(point_dataset_path, str(tmp_path), seeds=[5]))
    for seed in (0, 1):
        shutil.copytree(other_dir / f"seed_{seed}", run_dir / f"seed_{seed}")
    assert sorted(p.name for p in run_dir.glob("seed_*")) == ["seed_0", "seed_1", "seed_5"]
    rows = [json.loads(line) for line in (run_dir / "seed_5" / "eval.jsonl").read_text().splitlines()]
    (summary,) = compare([run_dir], threshold=0.0)
    assert summary.curve == [(row["env_steps"], row["mean"], 0.0) for row in rows]


def test_steps_to_threshold_not_reached(tmp_path, point_dataset_path):
    d1 = run(tiny_config(point_dataset_path, str(tmp_path / "r")))
    summaries = compare([d1], threshold=1e9)
    assert summaries[0].steps_to_threshold is None


def test_smoothing_window():
    assert smooth([0.0, 1.0, 2.0], window=2) == [0.0, 0.5, 1.5]
    curve = [(0, 0.0, 0.0), (10, 1.0, 0.0), (20, 1.0, 0.0)]
    assert steps_to_threshold(curve, 0.75, window=2) == 20
    assert steps_to_threshold(curve, 2.0, window=2) is None


def test_compare_rejects_mixed_envs(tmp_path, point_dataset_path, grid_dataset_path):
    d1 = run(tiny_config(point_dataset_path, str(tmp_path / "p")))
    d2 = run(
        tiny_config(
            grid_dataset_path,
            str(tmp_path / "g"),
            env="keydoor",
            algorithm="reinforce",
            dataset=None,
            rollout_steps=64,
            total_steps=128,
        )
    )
    with pytest.raises(ValueError, match="different environments"):
        compare([d1, d2], threshold=0.0)


# -- cli -----------------------------------------------------------------------


def test_cli_collect_train_evaluate_compare(tmp_path, capsys):
    data = tmp_path / "exp.jsonl"
    assert main(["collect-expert", "--env", "pointreach", "--n", "3", "--seed", "1", "--out", str(data)]) == 0
    assert main([
        "train", "--env", "pointreach", "--algorithm", "bcgail_fixed", "--alpha", "0.25",
        "--dataset", str(data), "--out", str(tmp_path / "runs"), "--steps", "256",
        "--rollout-steps", "128", "--eval-every", "2", "--seed", "0",
    ]) == 0
    run_dir = tmp_path / "runs" / "bcgail_fixed0.25"
    assert run_dir.exists()
    config = json.loads((run_dir / "config.json").read_text())
    assert config["alpha"] == 0.25 and config["algorithm"] == "bcgail_fixed"
    assert main([
        "evaluate", "--checkpoint", str(run_dir / "seed_0" / "checkpoint_final.ckpt"),
        "--env", "pointreach", "--episodes", "2", "--seed", "0",
    ]) == 0
    assert main(["compare", str(run_dir), "--threshold", "-5", "--out", str(tmp_path / "cmp")]) == 0
    out = capsys.readouterr().out
    assert "bcgail_fixed0.25" in out


def test_cli_train_flags_land_in_config(tmp_path, point_dataset_path):
    file_config = tmp_path / "base.json"
    file_config.write_text(json.dumps({"eval_episodes": 2, "value_coef": 0.25, "lr": 0.5}))
    flags = {
        "--env": ("env", "pointreach"),
        "--size": ("grid_size", 10),
        "--algorithm": ("algorithm", "bcgail_annealed"),
        "--alpha": ("alpha", 0.3),
        "--half-life": ("half_life", 7),
        "--disc-mode": ("disc_mode", "gan"),
        "--steps": ("total_steps", 256),
        "--rollout-steps": ("rollout_steps", 128),
        "--eval-every": ("eval_every", 3),
        "--lr": ("lr", 0.001),
        "--seed": ("seeds", [4, 5]),
        "--dataset": ("dataset", point_dataset_path),
        "--out": ("out", str(tmp_path / "runs")),
        "--name": ("run_name", "flags"),
    }
    train_parser = build_parser()._subparsers._group_actions[0].choices["train"]
    options = {o for a in train_parser._actions for o in a.option_strings} - {"-h", "--help", "--config"}
    assert options == set(flags), "every train flag is covered here"
    argv = ["train", "--config", str(file_config)]
    for flag, (_, value) in flags.items():
        argv += [flag, ",".join(map(str, value)) if isinstance(value, list) else str(value)]
    assert main(argv) == 0
    config = json.loads((tmp_path / "runs" / "flags" / "config.json").read_text())
    assert {key: config[key] for key, _ in flags.values()} == dict(flags.values())
    assert (config["eval_episodes"], config["value_coef"]) == (2, 0.25)  # from the file, not overridden


def test_cli_missing_dataset_fails_before_compute(tmp_path, capsys):
    rc = main([
        "train", "--env", "pointreach", "--algorithm", "gail",
        "--dataset", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path), "--steps", "128",
    ])
    assert rc != 0
    assert "error" in capsys.readouterr().err


def test_cli_rejects_zero_eval_every_before_writing(tmp_path, capsys):
    rc = main([
        "train", "--env", "pointreach", "--algorithm", "reinforce", "--steps", "512",
        "--eval-every", "0", "--out", str(tmp_path / "runs"),
    ])
    assert rc == 2
    assert "eval_every" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_cli_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0


def test_cli_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--bogus-flag", "1"])
    assert exc.value.code != 0
