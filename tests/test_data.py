"""Dataset serialization round-trips, error reporting, and the train/val split.

The rejection tests corrupt the bytes of a saved file the way a damaged
disk, a cut copy or a foreign writer would, and check that loading names
the header field or the trajectory and step at fault.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def _split_file(path):
    """(header dict, header bytes including the newline, data bytes)."""
    raw = path.read_bytes()
    cut = raw.index(b"\n") + 1
    return json.loads(raw[:cut]), raw[:cut], raw[cut:]


MISSING = object()


def _with_header(path, **fields):
    """Rewrite the header with ``fields`` changed; a MISSING value drops its key."""
    header, _, data = _split_file(path)
    header = {k: v for k, v in {**header, **fields}.items() if v is not MISSING}
    path.write_bytes(json.dumps(header).encode() + b"\n" + data)


def _poke(path, column, traj, step, data, within=0):
    """Overwrite bytes of one step's entry in a column block, ``within``
    bytes into that step's row."""
    header, head, body = _split_file(path)
    lengths, obs_dim = header["lengths"], header["obs_dim"]
    width = 1 if header["action_spec"]["kind"] == "discrete" else header["action_spec"]["dim"]
    n = sum(lengths)
    row_bytes = {"obs": 8 * obs_dim, "actions": 8 * width, "rewards": 8, "dones": 1}
    start, order = 0, ["obs", "actions", "rewards", "dones"]
    for name in order[: order.index(column)]:
        start += n * row_bytes[name]
    offset = start + (sum(lengths[:traj]) + step) * row_bytes[column] + within
    body = bytearray(body)
    assert offset + len(data) <= start + n * row_bytes[column]
    body[offset : offset + len(data)] = data
    path.write_bytes(head + bytes(body))


def _step_bits(dataset):
    """Every stored value as raw bytes (``done`` as its repr, so a bool), independent of datasets_equal."""
    bits = []
    for traj in dataset.trajectories:
        for t in traj.transitions:
            action = struct.pack("<q", t.action) if type(t.action) is int else t.action.astype("<f8").tobytes()
            bits.append((t.obs.astype("<f8").tobytes(), action, struct.pack("<d", t.reward), repr(t.done)))
    return bits


def test_round_trip_discrete(grid_dataset, tmp_path):
    path = tmp_path / "grid.bin"
    save_dataset(grid_dataset, path)
    loaded = load_dataset(path)
    assert datasets_equal(grid_dataset, loaded)
    assert _step_bits(loaded) == _step_bits(grid_dataset)
    assert {type(t.action) for traj in loaded.trajectories for t in traj.transitions} == {int}


def test_round_trip_continuous(point_dataset, tmp_path):
    path = tmp_path / "point.bin"
    save_dataset(point_dataset, path)
    loaded = load_dataset(path)
    assert datasets_equal(point_dataset, loaded)
    assert _step_bits(loaded) == _step_bits(point_dataset)


def test_round_trip_preserves_full_float_precision(point_dataset, tmp_path):
    path = tmp_path / "point.bin"
    save_dataset(point_dataset, path)
    loaded = load_dataset(path)
    a = point_dataset.trajectories[0].transitions[0]
    b = loaded.trajectories[0].transitions[0]
    assert a.obs.tolist() == b.obs.tolist()
    assert a.reward == b.reward


def test_save_writes_exactly_the_given_path_and_loads_writable_obs(grid_dataset, tmp_path):
    path = tmp_path / "x.jsonl"  # any name: no suffix is added or required
    save_dataset(grid_dataset, path)
    assert sorted(tmp_path.iterdir()) == [path]
    loaded = load_dataset(path)
    obs = loaded.trajectories[1].transitions[2].obs
    assert obs.flags.writeable
    obs[0] += 1.0
    assert not datasets_equal(grid_dataset, loaded)


def test_interrupted_save_keeps_the_previous_file(grid_dataset, tmp_path):
    path = tmp_path / "grid.bin"
    save_dataset(grid_dataset, path)
    before = path.read_bytes()
    ragged = Trajectory([Transition(np.zeros(385), 0, 0.0, False), Transition(np.zeros(2), 0, 0.0, True)])
    broken = Dataset(grid_dataset.trajectories[:3] + [ragged], "keydoor8", 385, grid_dataset.action_spec)
    with pytest.raises(ValueError):  # fails after the header and three trajectories are written
        save_dataset(broken, path)
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]


TINY, HUGE = 5e-324, 1.7976931348623157e308  # the smallest subnormal and the largest finite double
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, HUGE, -HUGE]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def datasets(draw):
    if draw(st.booleans()):
        spec = ActionSpec(kind="discrete", n=draw(st.integers(1, 5)))
        action = st.integers(0, spec.n - 1)
    else:
        low = draw(st.floats(-10, 0, allow_nan=False))
        spec = ActionSpec(kind="continuous", dim=draw(st.integers(1, 3)), low=low, high=low + draw(st.floats(0, 10)))
        bound = st.one_of(st.sampled_from([spec.low, spec.high]), st.floats(spec.low, spec.high))
        action = st.lists(bound, min_size=spec.dim, max_size=spec.dim).map(np.array)
    obs_dim = draw(st.integers(1, 4))
    step = st.builds(
        Transition, st.lists(FLOATS, min_size=obs_dim, max_size=obs_dim).map(np.array), action, FLOATS, st.booleans()
    )
    trajectories = draw(st.lists(st.lists(step, min_size=1, max_size=4).map(Trajectory), max_size=4))
    return Dataset(trajectories, "keydoor8", obs_dim, spec)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dataset=datasets())
def test_round_trip_is_bit_exact(dataset, tmp_path):
    # -0.0, subnormals, the largest magnitudes, actions exactly at the bounds,
    # empty datasets and one-step trajectories
    path = tmp_path / "d.bin"
    save_dataset(dataset, path)
    loaded = load_dataset(path)
    assert (loaded.env_id, loaded.obs_dim, loaded.action_spec) == (dataset.env_id, dataset.obs_dim, dataset.action_spec)
    assert [len(t) for t in loaded.trajectories] == [len(t) for t in dataset.trajectories]
    assert _step_bits(loaded) == _step_bits(dataset)
    assert datasets_equal(dataset, loaded)


@pytest.fixture(scope="module")
def small_grid_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "grid.bin"
    save_dataset(collect(KeyDoorEnv(8), AStarExpert(), 2, 0), path)
    return path.read_bytes()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupt_bytes_load_or_raise_dataset_error(small_grid_file, data, tmp_path):
    raw = bytearray(small_grid_file)
    header_end = raw.index(b"\n")
    where = data.draw(st.one_of(st.integers(0, header_end), st.integers(0, len(raw) - 1)))
    if data.draw(st.booleans()):
        raw[where] = data.draw(st.integers(0, 255))
    else:
        raw = raw[:where]
    path = tmp_path / "c.bin"
    path.write_bytes(bytes(raw))
    try:
        load_dataset(path)
    except DatasetError:
        pass


def test_truncated_file_errors_without_partial_result(grid_dataset, tmp_path):
    path = tmp_path / "grid.bin"
    save_dataset(grid_dataset, path)
    raw = path.read_bytes()
    (tmp_path / "cut.bin").write_bytes(raw[: int(len(raw) * 0.6)])
    with pytest.raises(DatasetError, match=r"need \d+ bytes; the file has \d+"):
        load_dataset(tmp_path / "cut.bin")
    (tmp_path / "long.bin").write_bytes(raw + b"\0")
    with pytest.raises(DatasetError, match=r"need \d+ bytes; the file has \d+"):
        load_dataset(tmp_path / "long.bin")


def test_missing_trajectories_vs_header_count(grid_dataset, tmp_path):
    path = tmp_path / "grid.bin"
    save_dataset(grid_dataset, path)
    lengths = [len(t) for t in grid_dataset.trajectories]
    _with_header(path, lengths=lengths[:-2])  # the data holds two trajectories more
    with pytest.raises(DatasetError, match="header lengths"):
        load_dataset(path)
    _with_header(path, lengths=lengths + [4, 4])  # the data holds two trajectories fewer
    with pytest.raises(DatasetError, match="header lengths"):
        load_dataset(path)


def test_garbage_record_names_index(grid_dataset, tmp_path):
    path = tmp_path / "grid.bin"
    save_dataset(grid_dataset, path)
    _poke(path, "dones", 3, 2, b"\x07")
    with pytest.raises(DatasetError, match="trajectory 3 step 2: done byte 7"):
        load_dataset(path)


def test_empty_trajectory_list_loads(tmp_path):
    empty = Dataset(trajectories=[], env_id="keydoor8", obs_dim=385, action_spec=ActionSpec(kind="discrete", n=4))
    path = tmp_path / "empty.bin"
    save_dataset(empty, path)
    loaded = load_dataset(path)
    assert len(loaded) == 0


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "h.bin"
    path.write_text(json.dumps({"format": "something-else"}) + "\n")
    with pytest.raises(DatasetError):
        load_dataset(path)
    path.write_text("")
    with pytest.raises(DatasetError, match="empty"):
        load_dataset(path)
    path.write_bytes(b"\x93NUMPY\x01\x00garbage\n\x00\x00")
    with pytest.raises(DatasetError, match="header: not a JSON line"):
        load_dataset(path)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"version": MISSING}, "version None is not 2"),
        ({"version": "2"}, "version '2' is not 2"),
        ({"env_id": MISSING}, "missing field 'env_id'"),
        ({"env_id": 8}, "env_id must be a string"),
        ({"obs_dim": MISSING}, "missing field 'obs_dim'"),
        ({"obs_dim": "385"}, "obs_dim is '385'"),
        ({"obs_dim": 385.0}, "obs_dim is 385.0"),
        ({"obs_dim": -1}, "obs_dim is -1"),
        ({"obs_dim": 10**30}, "obs_dim is 1000"),
        ({"lengths": MISSING}, "missing field 'lengths'"),
        ({"lengths": 10}, "lengths a list"),
        ({"lengths": [1.5]}, r"lengths\[0\] is 1.5"),
        ({"lengths": [True]}, r"lengths\[0\] is True"),
        ({"action_spec": {"kind": "discrete"}}, "malformed action_spec"),
        ({"action_spec": {"kind": "discrete", "n": "4"}}, "malformed action_spec"),
        ({"action_spec": {"kind": "discreet", "n": 4}}, "malformed action_spec"),
        ({"action_spec": [4]}, "malformed action_spec"),
        ({"action_spec": MISSING}, "missing field 'action_spec'"),
    ],
)
def test_malformed_header_field_rejected(fields, message, grid_dataset, tmp_path):
    path = tmp_path / "grid.bin"
    save_dataset(grid_dataset, path)
    _with_header(path, **fields)
    with pytest.raises(DatasetError, match=f"header: .*{message}"):
        load_dataset(path)


def test_legacy_jsonl_dataset_refused(tmp_path):
    path = tmp_path / "keydoor8.jsonl"
    header = {
        "format": "annealed-il/trajectories", "version": 1, "env_id": "keydoor8", "obs_dim": 2,
        "action_spec": {"kind": "discrete", "n": 4}, "n_trajectories": 1,
    }
    record = {"obs": [[0.0, 1.0]], "actions": [2], "rewards": [1.0], "dones": [True]}
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(DatasetError, match="version 1 is not 2; re-run collect-expert"):
        load_dataset(path)


def test_out_of_range_action_rejected(grid_dataset, tmp_path):
    path = tmp_path / "grid.bin"
    save_dataset(grid_dataset, path)
    _poke(path, "actions", 0, 0, struct.pack("<q", 7))
    with pytest.raises(DatasetError, match="trajectory 0 step 0: action 7"):
        load_dataset(path)


NAN, INF = float("nan"), float("inf")


def _f8(*values):
    return struct.pack(f"<{len(values)}d", *values)


# Every 8 bytes of the int64 actions column read as some integer, so an
# action of another type arrives as another writer's bytes in its slot:
# float64 bytes, or JSON text.  Each reads as an integer far outside 0..3.
@pytest.mark.parametrize(
    "kind, column, data",
    [
        ("grid", "actions", _f8(1.5)),
        ("grid", "actions", _f8(3.99)),
        ("grid", "actions", json.dumps(True).encode().ljust(8, b"\0")),
        ("grid", "actions", json.dumps("2").encode().ljust(8, b"\0")),
        ("grid", "obs", _f8(NAN)),
        ("point", "obs", _f8(INF)),
        ("point", "obs", _f8(-INF)),
        ("point", "actions", _f8(NAN, 5.0)),
        ("point", "actions", _f8(NAN, 0.0)),
        ("point", "actions", _f8(0.0, 5.0)),
        ("point", "actions", _f8(-1.5, 0.0)),
        ("point", "rewards", _f8(NAN)),
        ("point", "rewards", _f8(-INF)),
        ("grid", "dones", b"\x02"),
        ("point", "dones", b"\xff"),
    ],
    ids=[
        "action-1.5", "action-3.99", "action-true", "action-string", "obs-nan", "obs-inf", "obs-minus-inf",
        "action-nan-and-5", "action-nan", "action-above-high", "action-below-low",
        "reward-nan", "reward-minus-inf", "done-2", "done-255",
    ],
)
def test_malformed_step_rejected_with_record_and_step(kind, column, data, grid_dataset, point_dataset, tmp_path):
    path = tmp_path / "data.bin"
    save_dataset(grid_dataset if kind == "grid" else point_dataset, path)
    _poke(path, column, 1, 3, data, within=8 if column == "obs" else 0)  # obs: its second entry
    with pytest.raises(DatasetError, match=r"trajectory 1 step 3: "):
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
