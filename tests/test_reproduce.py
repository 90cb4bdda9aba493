"""Reproduction bundles wired end-to-end at micro budgets."""

import os

import pytest

from annealed_il.cli import main
from annealed_il.reproduce import ensure_dataset, reproduce


def test_ensure_dataset_caches(tmp_path):
    path = tmp_path / "d" / "point.bin"
    p1 = ensure_dataset("pointreach", 2, path)
    stamp = os.path.getmtime(p1)
    p2 = ensure_dataset("pointreach", 2, path)
    assert p1 == p2 and os.path.getmtime(p2) == stamp


def test_random_reward_bundle_micro(tmp_path):
    table = reproduce("random-reward", seeds=[0], out=str(tmp_path), total_steps=512)
    assert "random_reward_ablation" in table and "bc" in table
    assert (tmp_path / "comparison" / "comparison.csv").exists()
    assert (tmp_path / "random_reward_ablation" / "report.json").exists()


def test_annealing_sweep_bundle_micro(tmp_path):
    table = reproduce("annealing-sweep", seeds=[0], out=str(tmp_path), total_steps=512)
    for name in ("bcgail_fixed0.25", "bcgail_fixed0.5", "bcgail_fixed0.75", "bcgail_annealed"):
        assert name in table
        assert (tmp_path / "comparison" / f"{name}_curve.csv").exists()


@pytest.mark.slow
def test_gridworld_bundle_micro(tmp_path):
    # dataset collection (200 A* episodes) dominates the runtime here
    table = reproduce("gridworld", size=8, seeds=[0], out=str(tmp_path), total_steps=512)
    for name in ("bc", "gail", "bcgail_annealed", "bc_pretrain_gail", "reinforce"):
        assert name in table


def test_cli_reproduce_micro(tmp_path, capsys):
    rc = main([
        "reproduce", "random-reward", "--seed", "0", "--steps", "512",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    assert "final return" in capsys.readouterr().out
