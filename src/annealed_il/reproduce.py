"""Named experiment bundles: the gridworld baseline ladder and the two
point-reach ablations (frozen-discriminator random rewards, annealed vs
fixed tradeoff weight).  Each bundle collects its expert dataset if
missing, trains every configuration across the requested seeds, and
emits a comparison table plus learning-curve files.
"""

from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Tuple

from .compare import compare, format_table
from .config import TrainConfig
from .data import save_dataset
from .envs import make_env
from .experts import AStarExpert, PointExpert, collect
from .runner import run

GRID_TRAJECTORIES = {8: 200, 10: 350, 12: 500}
GRID_THRESHOLD = 0.9
POINT_THRESHOLD = -120.0  # halfway between random (~-234) and expert (~-3.5)
DATASET_SEED = 990_000


@dataclass(frozen=True)
class Bundle:
    """One experiment: its environment, expert data, success threshold and runs."""

    env: str
    trajectories: Optional[int]  # None: GRID_TRAJECTORIES of the grid size
    dataset_file: str  # file name under <out>/datasets, formatted with env_id
    threshold: float
    runs: Tuple[dict, ...]  # TrainConfig fields of each run


BUNDLES = {
    # baseline ladder on the Key-Door grid: cloning, adversarial, annealed
    # combination, cloning-pretrained adversarial, sparse-reward policy gradient
    "gridworld": Bundle(
        "keydoor", None, "{env_id}.bin", GRID_THRESHOLD,
        tuple({"algorithm": a} for a in ("bc", "gail", "bcgail_annealed", "bc_pretrain_gail", "reinforce")),
    ),
    # frozen-discriminator ablation: fixed weight 0.5 with untrained (random)
    # rewards against the cloning baseline
    "random-reward": Bundle(
        "pointreach", 5, "pointreach5.bin", POINT_THRESHOLD,
        ({"algorithm": "random_reward_ablation"}, {"algorithm": "bc"}),
    ),
    # annealed tradeoff weight against fixed values with a single expert trajectory
    "annealing-sweep": Bundle(
        "pointreach", 1, "pointreach1.bin", POINT_THRESHOLD,
        tuple({"algorithm": "bcgail_fixed", "alpha": a} for a in (0.25, 0.5, 0.75))
        + ({"algorithm": "bcgail_annealed"},),
    ),
}


def ensure_dataset(env_id: str, n_trajectories: int, path: Path) -> Path:
    if path.exists():
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    env = make_env(env_id)
    expert = AStarExpert() if env_id.startswith("keydoor") else PointExpert()
    dataset = collect(env, expert, n_trajectories, DATASET_SEED)
    save_dataset(dataset, path)
    return path


def reproduce(
    name: str,
    size: int = 8,
    seeds: Optional[List[int]] = None,
    out: Optional[str] = None,
    total_steps: Optional[int] = None,
    dataset: Optional[str] = None,
) -> str:
    """Run bundle ``name`` and return its comparison table.

    ``size`` is the keydoor grid size (pointreach bundles ignore it);
    ``out`` defaults to ``runs/<name>`` with dashes as underscores.
    """
    bundle = BUNDLES[name]
    out_path = Path(out or f"runs/{name.replace('-', '_')}")
    base = TrainConfig(
        env=bundle.env,
        **({"grid_size": size} if bundle.env == "keydoor" else {}),
        seeds=list(seeds or [0, 1, 2]),
        out=str(out_path),
        total_steps=total_steps,
    )
    if dataset is None:
        n = GRID_TRAJECTORIES[size] if bundle.trajectories is None else bundle.trajectories
        path = out_path / "datasets" / bundle.dataset_file.format(env_id=base.env_id)
        dataset = ensure_dataset(base.env_id, n, path)
    base = replace(base, dataset=str(dataset))
    run_dirs = [run(replace(base, **fields)) for fields in bundle.runs]
    summaries = compare(run_dirs, bundle.threshold, out_dir=out_path / "comparison")
    return format_table(summaries, bundle.threshold)
