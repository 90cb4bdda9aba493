"""Trajectory dataset types and their binary columnar file format.

Built like a checkpoint (``nets.save_checkpoint``): one JSON header line
{"format": "annealed-il/trajectories", "version": 2, "env_id", "obs_dim",
"action_spec", "lengths"} (each trajectory's step count, N in all), then
the raw little-endian column blocks, steps in trajectory order:
``obs`` <f8 N x obs_dim; ``actions`` <i8 N (discrete) or <f8 N x dim
(continuous); ``rewards`` <f8 N; ``dones`` u1 N, each 0 or 1.

Values are stored as their bytes, so save/load is bit-exact.  Version 1
files (line-delimited JSON) are refused: re-run ``collect-expert``.
"""

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

import numpy as np

from .envs import ActionSpec

FORMAT_NAME = "annealed-il/trajectories"
FORMAT_VERSION = 2


class DatasetError(ValueError):
    """Raised on malformed dataset files; names the offending header field or step."""


@dataclass
class Transition:
    obs: np.ndarray
    action: object  # int for discrete, np.ndarray for continuous
    reward: float
    done: bool


@dataclass
class Trajectory:
    transitions: List[Transition]

    def __len__(self) -> int:
        return len(self.transitions)

    @property
    def total_reward(self) -> float:
        return float(sum(t.reward for t in self.transitions))


@dataclass
class Dataset:
    trajectories: List[Trajectory]
    env_id: str
    obs_dim: int
    action_spec: ActionSpec

    def __len__(self) -> int:
        return len(self.trajectories)

    @property
    def n_transitions(self) -> int:
        return sum(len(t) for t in self.trajectories)

    def _steps(self) -> List[Transition]:
        return [t for traj in self.trajectories for t in traj.transitions]

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """All (obs, action) pairs flattened across trajectories."""
        steps = self._steps()
        dtype = np.int64 if self.action_spec.kind == "discrete" else None
        return np.array([t.obs for t in steps]), np.array([t.action for t in steps], dtype=dtype)


def _action_dtype(spec: ActionSpec) -> Tuple[str, int]:
    """Column dtype and values per step of the actions block."""
    return ("<i8", 1) if spec.kind == "discrete" else ("<f8", spec.dim)


def _header(dataset: Dataset) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "env_id": dataset.env_id,
        "obs_dim": dataset.obs_dim,
        "action_spec": dataset.action_spec.to_dict(),
        "lengths": [len(traj) for traj in dataset.trajectories],
    }


def _blocks(dataset: Dataset):
    """The column blocks in file order and dtypes; obs one trajectory at a
    time, so that no second copy of every observation is made at once."""
    for traj in dataset.trajectories:
        yield np.array([t.obs for t in traj.transitions], dtype="<f8")
    steps = dataset._steps()
    yield np.array([t.action for t in steps], dtype=_action_dtype(dataset.action_spec)[0])
    yield np.array([t.reward for t in steps], dtype="<f8")
    yield np.array([t.done for t in steps], dtype="u1")


def save_dataset(dataset: Dataset, path) -> None:
    """Write to exactly ``path``: a temporary file in the same directory
    replaces it once complete, so an interrupted save leaves no partial file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(json.dumps(_header(dataset)).encode() + b"\n")
            for block in _blocks(dataset):
                block.tofile(f)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _parse_header(line: bytes) -> Tuple[dict, ActionSpec]:
    if not line:
        raise DatasetError("header: empty file")
    try:
        header = json.loads(line)
    except ValueError as e:
        raise DatasetError(f"header: not a JSON line ({e})") from e
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise DatasetError("header: not an annealed-il trajectory dataset")
    if header.get("version") != FORMAT_VERSION:  # version 1 was line-delimited JSON
        raise DatasetError(f"header: version {header.get('version')!r} is not {FORMAT_VERSION}; re-run collect-expert")
    for key in ("env_id", "obs_dim", "action_spec", "lengths"):
        if key not in header:
            raise DatasetError(f"header: missing field {key!r}")
    if not isinstance(header["env_id"], str) or not isinstance(header["lengths"], list):
        raise DatasetError("header: env_id must be a string and lengths a list")
    try:  # the spec must survive a round trip unchanged: no coerced strings, floats or extra keys
        spec = ActionSpec.from_dict(header["action_spec"])
        valid = spec.to_dict() == header["action_spec"]
    except (KeyError, TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise DatasetError(f"header: malformed action_spec {header['action_spec']!r}")
    sizes = [("obs_dim", header["obs_dim"]), ("action_spec.n", spec.n), ("action_spec.dim", spec.dim)]
    for where, value in sizes + [(f"lengths[{i}]", k) for i, k in enumerate(header["lengths"])]:
        if type(value) is not int or not 0 <= value < 2**31:  # far beyond any real dataset; numpy can size it
            raise DatasetError(f"header: {where} is {value!r}, expected an integer in [0, 2**31)")
    return header, spec


def _reject_first(bad: np.ndarray, ends: np.ndarray, describe) -> None:
    """Raise naming the trajectory and step of the first True row of ``bad``."""
    rows = np.flatnonzero(bad)
    if rows.size:
        row = int(rows[0])
        i = int(np.searchsorted(ends, row, side="right"))
        step = row - (int(ends[i - 1]) if i else 0)
        raise DatasetError(f"trajectory {i} step {step}: {describe(row)}")


def load_dataset(path) -> Dataset:
    with open(path, "rb") as f:
        header, spec = _parse_header(f.readline())
        obs_dim, lengths = header["obs_dim"], header["lengths"]
        n = sum(lengths)
        a_dtype, a_width = _action_dtype(spec)
        need = n * (8 * obs_dim + 8 * a_width + 8 + 1)
        have = os.fstat(f.fileno()).st_size - f.tell()
        if have != need:
            raise DatasetError(f"header lengths sum to {n} steps, which need {need} bytes; the file has {have}")
        obs = np.fromfile(f, dtype="<f8", count=n * obs_dim).reshape(n, obs_dim)
        actions = np.fromfile(f, dtype=a_dtype, count=n * a_width)
        rewards = np.fromfile(f, dtype="<f8", count=n)
        dones = np.fromfile(f, dtype="u1", count=n)

    ends = np.cumsum(lengths, dtype=np.int64)
    if spec.kind == "discrete":
        bad_action = (actions < 0) | (actions >= spec.n)
    else:
        actions = actions.reshape(n, a_width)
        bad_action = ~((actions >= spec.low) & (actions <= spec.high)).all(axis=1)  # NaN fails both
    _reject_first(~np.isfinite(obs).all(axis=1), ends, lambda r: "non-finite observation")
    _reject_first(bad_action, ends, lambda r: f"action {actions[r].tolist()} outside {spec.to_dict()}")
    _reject_first(~np.isfinite(rewards), ends, lambda r: f"non-finite reward {rewards[r]}")
    _reject_first(dones > 1, ends, lambda r: f"done byte {dones[r]} is not 0 or 1")
    if spec.kind == "discrete":
        actions = actions.tolist()  # Python ints, as the environments and experts use

    steps = [Transition(*step) for step in zip(obs, actions, rewards.tolist(), (dones == 1).tolist())]
    trajectories = [Trajectory(steps[end - k : end]) for k, end in zip(lengths, ends.tolist())]
    return Dataset(trajectories=trajectories, env_id=header["env_id"], obs_dim=obs_dim, action_spec=spec)


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Bit-for-bit equality of what save_dataset would write for each."""
    if _header(a) != _header(b):
        return False
    return all(x.tobytes() == y.tobytes() for x, y in zip(_blocks(a), _blocks(b)))


def split_bc(dataset: Dataset, fraction: float = 0.7, rng_seed: int = 0) -> Tuple[Dataset, Dataset]:
    """Seeded whole-trajectory split; train gets round(fraction * n) trajectories."""
    n = len(dataset.trajectories)
    if n < 2:
        raise ValueError(f"need at least 2 trajectories to split, got {n}")
    rng = np.random.default_rng(rng_seed)
    order = rng.permutation(n)
    n_train = int(round(fraction * n))
    train_idx, val_idx = order[:n_train], order[n_train:]

    def subset(idx) -> Dataset:
        return Dataset(
            trajectories=[dataset.trajectories[i] for i in idx],
            env_id=dataset.env_id,
            obs_dim=dataset.obs_dim,
            action_spec=dataset.action_spec,
        )

    return subset(train_idx), subset(val_idx)
