"""Append-only delimited metrics files.

One row per training step (RL iteration or cloning epoch).  Floats are
written with full round-trip precision so reruns of the same (config,
seed) produce byte-identical files.
"""

from dataclasses import dataclass, fields
from typing import List

METRICS_COLUMNS = (
    "phase",
    "iteration",
    "env_steps",
    "alpha",
    "total_loss",
    "bc_loss",
    "pg_loss",
    "value_loss",
    "entropy",
    "disc_loss",
    "mean_reward",
    "mean_episode_return",
    "episodes",
    "val_loss",
)

NAN = float("nan")


@dataclass
class IterationMetrics:
    phase: str
    iteration: int
    env_steps: int
    alpha: float
    total_loss: float = NAN
    bc_loss: float = NAN
    pg_loss: float = NAN
    value_loss: float = NAN
    entropy: float = NAN
    disc_loss: float = NAN
    mean_reward: float = NAN
    mean_episode_return: float = NAN
    episodes: int = 0
    val_loss: float = NAN


def _format(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class MetricsWriter:
    """Writes the header once, then one flushed row per call."""

    def __init__(self, path):
        self.path = path
        self._file = open(path, "w")
        self._file.write(",".join(METRICS_COLUMNS) + "\n")
        self._file.flush()

    def write(self, row: IterationMetrics) -> None:
        values = [_format(getattr(row, f.name)) for f in fields(IterationMetrics)]
        self._file.write(",".join(values) + "\n")
        self._file.flush()

    def close(self) -> None:
        self._file.close()


def read_metrics(path) -> List[dict]:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != ",".join(METRICS_COLUMNS):
        raise ValueError(f"{path}: unrecognized metrics header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        row = {}
        for name, raw in zip(METRICS_COLUMNS, parts):
            if name == "phase":
                row[name] = raw
            elif name in ("iteration", "env_steps", "episodes"):
                row[name] = int(raw)
            else:
                row[name] = float(raw)
        rows.append(row)
    return rows
