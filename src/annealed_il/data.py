"""Trajectory dataset types and line-delimited JSON persistence.

File format (one JSON object per line):

    line 1:   header {"format": "annealed-il/trajectories", "version": 1,
              "env_id", "obs_dim", "action_spec", "n_trajectories"}
    line 2+:  one trajectory per line, columnar:
              {"obs": [[...], ...], "actions": [...], "rewards": [...],
               "dones": [...]}

Floats are serialized with full round-trip precision, so save/load is
lossless.
"""

import json
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .envs import ActionSpec

FORMAT_NAME = "annealed-il/trajectories"
FORMAT_VERSION = 1


class DatasetError(ValueError):
    """Raised on malformed dataset files; names the offending record."""


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

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """All (obs, action) pairs flattened across trajectories."""
        obs = np.array([t.obs for traj in self.trajectories for t in traj.transitions])
        if self.action_spec.kind == "discrete":
            actions = np.array(
                [t.action for traj in self.trajectories for t in traj.transitions], dtype=np.int64
            )
        else:
            actions = np.array([t.action for traj in self.trajectories for t in traj.transitions])
        return obs, actions


def _traj_record(traj: Trajectory, action_spec: ActionSpec) -> dict:
    if action_spec.kind == "discrete":
        actions = [int(t.action) for t in traj.transitions]
    else:
        actions = [np.asarray(t.action, dtype=float).tolist() for t in traj.transitions]
    return {
        "obs": [np.asarray(t.obs, dtype=float).tolist() for t in traj.transitions],
        "actions": actions,
        "rewards": [float(t.reward) for t in traj.transitions],
        "dones": [bool(t.done) for t in traj.transitions],
    }


def save_dataset(dataset: Dataset, path) -> None:
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "env_id": dataset.env_id,
        "obs_dim": dataset.obs_dim,
        "action_spec": dataset.action_spec.to_dict(),
        "n_trajectories": len(dataset.trajectories),
    }
    with open(path, "w") as f:
        f.write(json.dumps(header) + "\n")
        for traj in dataset.trajectories:
            f.write(json.dumps(_traj_record(traj, dataset.action_spec)) + "\n")


def _parse_record(line: str, index: int) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as e:
        raise DatasetError(f"record {index}: invalid JSON ({e})") from e
    if not isinstance(record, dict):
        raise DatasetError(f"record {index}: expected an object")
    return record


def load_dataset(path) -> Dataset:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise DatasetError("record 0: empty file, missing header")

    header = _parse_record(lines[0], 0)
    for key in ("format", "version", "env_id", "obs_dim", "action_spec", "n_trajectories"):
        if key not in header:
            raise DatasetError(f"record 0: header missing field {key!r}")
    if header["format"] != FORMAT_NAME:
        raise DatasetError(f"record 0: unknown format {header['format']!r}")
    if int(header["version"]) > FORMAT_VERSION:
        raise DatasetError(f"record 0: unsupported version {header['version']}")
    action_spec = ActionSpec.from_dict(header["action_spec"])
    obs_dim = int(header["obs_dim"])

    n_expected = int(header["n_trajectories"])
    body = lines[1:]
    if len(body) != n_expected:
        raise DatasetError(
            f"record {len(body)}: header declares {n_expected} trajectories, file has {len(body)}"
        )

    trajectories = []
    for i, line in enumerate(body, start=1):
        record = _parse_record(line, i)
        for key in ("obs", "actions", "rewards", "dones"):
            if key not in record:
                raise DatasetError(f"record {i}: missing field {key!r}")
        n = len(record["obs"])
        if any(len(record[k]) != n for k in ("actions", "rewards", "dones")):
            raise DatasetError(f"record {i}: column lengths disagree")
        transitions = []
        for j in range(n):
            obs = np.asarray(record["obs"][j], dtype=np.float64)
            if obs.shape != (obs_dim,):
                raise DatasetError(f"record {i}: obs {j} has dim {obs.shape}, expected ({obs_dim},)")
            if not np.isfinite(obs).all():
                raise DatasetError(f"record {i}: non-finite obs at step {j}")
            reward = float(record["rewards"][j])
            if not np.isfinite(reward):
                raise DatasetError(f"record {i}: non-finite reward at step {j}")
            action = record["actions"][j]
            if action_spec.kind == "discrete":
                if type(action) is not int or not 0 <= action < action_spec.n:
                    raise DatasetError(
                        f"record {i}: action {action!r} is not an integer in 0..{action_spec.n - 1} at step {j}"
                    )
            else:
                action = np.asarray(action, dtype=np.float64)
                if action.shape != (action_spec.dim,):
                    raise DatasetError(f"record {i}: action {j} has shape {action.shape}")
                # NaN fails both comparisons
                if not ((action >= action_spec.low) & (action <= action_spec.high)).all():
                    raise DatasetError(
                        f"record {i}: action {action.tolist()} outside [{action_spec.low}, {action_spec.high}] at step {j}"
                    )
            transitions.append(Transition(obs=obs, action=action, reward=reward, done=bool(record["dones"][j])))
        trajectories.append(Trajectory(transitions))

    return Dataset(
        trajectories=trajectories, env_id=header["env_id"], obs_dim=obs_dim, action_spec=action_spec
    )


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Field-by-field equality, used by round-trip tests."""
    if (a.env_id, a.obs_dim, a.action_spec) != (b.env_id, b.obs_dim, b.action_spec):
        return False
    if len(a) != len(b):
        return False
    for ta, tb in zip(a.trajectories, b.trajectories):
        if len(ta) != len(tb):
            return False
        for x, y in zip(ta.transitions, tb.transitions):
            if not np.array_equal(x.obs, y.obs):
                return False
            if not np.array_equal(np.asarray(x.action), np.asarray(y.action)):
                return False
            if x.reward != y.reward or x.done != y.done:
                return False
    return True


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
