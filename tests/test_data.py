"""Dataset serialization round-trips, error reporting, and the train/val split."""

import json

import numpy as np
import pytest

from annealed_il.data import (
    Dataset,
    DatasetError,
    Trajectory,
    Transition,
    datasets_equal,
    load_dataset,
    save_dataset,
    split_bc,
)
from annealed_il.envs import ActionSpec, KeyDoorEnv, PointReachEnv
from annealed_il.experts import AStarExpert, PointExpert, collect


@pytest.fixture(scope="module")
def grid_dataset():
    return collect(KeyDoorEnv(8), AStarExpert(), 10, 0)


@pytest.fixture(scope="module")
def point_dataset():
    return collect(PointReachEnv(), PointExpert(), 10, 0)


def test_round_trip_discrete(grid_dataset, tmp_path):
    path = tmp_path / "grid.jsonl"
    save_dataset(grid_dataset, path)
    loaded = load_dataset(path)
    assert datasets_equal(grid_dataset, loaded)


def test_round_trip_continuous(point_dataset, tmp_path):
    path = tmp_path / "point.jsonl"
    save_dataset(point_dataset, path)
    loaded = load_dataset(path)
    assert datasets_equal(point_dataset, loaded)


def test_round_trip_preserves_full_float_precision(point_dataset, tmp_path):
    path = tmp_path / "point.jsonl"
    save_dataset(point_dataset, path)
    loaded = load_dataset(path)
    a = point_dataset.trajectories[0].transitions[0]
    b = loaded.trajectories[0].transitions[0]
    assert a.obs.tolist() == b.obs.tolist()
    assert a.reward == b.reward


def test_truncated_file_errors_without_partial_result(grid_dataset, tmp_path):
    path = tmp_path / "grid.jsonl"
    save_dataset(grid_dataset, path)
    text = path.read_text()
    (tmp_path / "cut.jsonl").write_text(text[: int(len(text) * 0.6)])
    with pytest.raises(DatasetError, match="record"):
        load_dataset(tmp_path / "cut.jsonl")


def test_missing_trajectories_vs_header_count(grid_dataset, tmp_path):
    path = tmp_path / "grid.jsonl"
    save_dataset(grid_dataset, path)
    lines = path.read_text().splitlines()
    (tmp_path / "short.jsonl").write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(DatasetError, match="header declares"):
        load_dataset(tmp_path / "short.jsonl")


def test_garbage_record_names_index(grid_dataset, tmp_path):
    path = tmp_path / "grid.jsonl"
    save_dataset(grid_dataset, path)
    lines = path.read_text().splitlines()
    lines[3] = "{not json"
    (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match="record 3"):
        load_dataset(tmp_path / "bad.jsonl")


def test_empty_trajectory_list_loads(tmp_path):
    empty = Dataset(trajectories=[], env_id="keydoor8", obs_dim=385, action_spec=ActionSpec(kind="discrete", n=4))
    path = tmp_path / "empty.jsonl"
    save_dataset(empty, path)
    loaded = load_dataset(path)
    assert len(loaded) == 0


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "h.jsonl"
    path.write_text(json.dumps({"format": "something-else"}) + "\n")
    with pytest.raises(DatasetError):
        load_dataset(path)
    path.write_text("")
    with pytest.raises(DatasetError, match="empty"):
        load_dataset(path)


def test_out_of_range_action_rejected(grid_dataset, tmp_path):
    path = tmp_path / "grid.jsonl"
    save_dataset(grid_dataset, path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record["actions"][0] = 7
    lines[1] = json.dumps(record)
    (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match="record 1"):
        load_dataset(tmp_path / "bad.jsonl")


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "kind, column, value",
    [
        ("grid", "actions", 1.5),
        ("grid", "actions", 3.99),
        ("grid", "actions", True),
        ("grid", "actions", "2"),
        ("grid", "obs", NAN),
        ("point", "obs", INF),
        ("point", "obs", -INF),
        ("point", "actions", [NAN, 5.0]),
        ("point", "actions", [NAN, 0.0]),
        ("point", "actions", [0.0, 5.0]),
        ("point", "actions", [-1.5, 0.0]),
    ],
    ids=[
        "action-1.5", "action-3.99", "action-true", "action-string", "obs-nan", "obs-inf", "obs-minus-inf",
        "action-nan-and-5", "action-nan", "action-above-high", "action-below-low",
    ],
)
def test_malformed_step_rejected_with_record_and_step(kind, column, value, grid_dataset, point_dataset, tmp_path):
    path = tmp_path / "data.jsonl"
    save_dataset(grid_dataset if kind == "grid" else point_dataset, path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    if column == "obs":
        record["obs"][3][1] = value  # one entry of the observation vector
    else:
        record["actions"][3] = value
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=r"record 2: .* at step 3"):
        load_dataset(path)


def test_split_seventy_thirty(grid_dataset):
    train, val = split_bc(grid_dataset, 0.7, rng_seed=0)
    assert len(train) == 7 and len(val) == 3


def test_split_two_hundred():
    # split sizes depend only on the trajectory count
    traj = Trajectory([Transition(obs=np.zeros(3), action=0, reward=0.0, done=True)])
    ds = Dataset([traj] * 200, "keydoor8", 3, ActionSpec(kind="discrete", n=4))
    train, val = split_bc(ds, 0.7, rng_seed=1)
    assert len(train) == 140 and len(val) == 60


def test_split_deterministic_and_disjoint(grid_dataset):
    t1, v1 = split_bc(grid_dataset, 0.7, rng_seed=5)
    t2, v2 = split_bc(grid_dataset, 0.7, rng_seed=5)
    ids1 = [id(t) for t in t1.trajectories]
    ids2 = [id(t) for t in t2.trajectories]
    assert ids1 == ids2
    all_ids = {id(t) for t in t1.trajectories} | {id(t) for t in v1.trajectories}
    assert len(all_ids) == len(grid_dataset)


def test_split_rejects_tiny_dataset(grid_dataset):
    one = Dataset(grid_dataset.trajectories[:1], grid_dataset.env_id, grid_dataset.obs_dim, grid_dataset.action_spec)
    with pytest.raises(ValueError):
        split_bc(one, 0.7, rng_seed=0)


def test_pairs_flattening(grid_dataset):
    obs, actions = grid_dataset.pairs()
    assert len(obs) == grid_dataset.n_transitions
    assert obs.shape[1] == grid_dataset.obs_dim
    assert actions.dtype == np.int64
