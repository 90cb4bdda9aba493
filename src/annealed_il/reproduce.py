"""Named experiment bundles: the gridworld baseline ladder and the two
point-reach ablations (frozen-discriminator random rewards, annealed vs
fixed tradeoff weight).  Each bundle collects its expert dataset if
missing, trains every configuration across the requested seeds, and
emits a comparison table plus learning-curve files.
"""

from dataclasses import replace
from pathlib import Path
from typing import List, Optional

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

RANDOM_REWARD_TRAJECTORIES = 5
SWEEP_TRAJECTORIES = 1
SWEEP_ALPHAS = (0.25, 0.5, 0.75)


def ensure_dataset(env_id: str, n_trajectories: int, path: Path) -> Path:
    if path.exists():
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    env = make_env(env_id)
    expert = AStarExpert() if env_id.startswith("keydoor") else PointExpert()
    dataset = collect(env, expert, n_trajectories, DATASET_SEED)
    save_dataset(dataset, path)
    return path


def _run_all(configs: List[TrainConfig], threshold: float, out: Path) -> str:
    run_dirs = [run(c) for c in configs]
    summaries = compare(run_dirs, threshold, out_dir=out / "comparison")
    return format_table(summaries, threshold)


def reproduce_gridworld(
    size: int = 8,
    seeds: Optional[List[int]] = None,
    out: str = "runs/gridworld",
    total_steps: Optional[int] = None,
    dataset: Optional[str] = None,
) -> str:
    """Baseline ladder on the Key-Door grid: cloning, adversarial, annealed
    combination, cloning-pretrained adversarial, and sparse-reward policy
    gradient."""
    seeds = seeds or [0, 1, 2]
    out_path = Path(out)
    base = TrainConfig(
        env="keydoor",
        grid_size=size,
        seeds=list(seeds),
        out=str(out_path),
        total_steps=total_steps,
    )
    if dataset is None:
        dataset = ensure_dataset(
            base.env_id, GRID_TRAJECTORIES[size], out_path / "datasets" / f"{base.env_id}.jsonl"
        )
    base = replace(base, dataset=str(dataset))
    configs = [
        replace(base, algorithm="bc"),
        replace(base, algorithm="gail"),
        replace(base, algorithm="bcgail_annealed"),
        replace(base, algorithm="bc_pretrain_gail"),
        replace(base, algorithm="reinforce"),
    ]
    return _run_all(configs, GRID_THRESHOLD, out_path)


def reproduce_random_reward(
    seeds: Optional[List[int]] = None,
    out: str = "runs/random_reward",
    total_steps: Optional[int] = None,
    dataset: Optional[str] = None,
) -> str:
    """Frozen-discriminator ablation on point-reach: the fixed-0.5 learner
    with untrained (random) rewards against the cloning baseline."""
    seeds = seeds or [0, 1, 2]
    out_path = Path(out)
    if dataset is None:
        dataset = ensure_dataset(
            "pointreach", RANDOM_REWARD_TRAJECTORIES, out_path / "datasets" / "pointreach5.jsonl"
        )
    base = TrainConfig(
        env="pointreach",
        seeds=list(seeds),
        dataset=str(dataset),
        out=str(out_path),
        total_steps=total_steps,
    )
    configs = [
        replace(base, algorithm="random_reward_ablation"),
        replace(base, algorithm="bc"),
    ]
    return _run_all(configs, POINT_THRESHOLD, out_path)


def reproduce_annealing_sweep(
    seeds: Optional[List[int]] = None,
    out: str = "runs/annealing_sweep",
    total_steps: Optional[int] = None,
    dataset: Optional[str] = None,
) -> str:
    """Annealed tradeoff weight against fixed values on point-reach with a
    single expert trajectory."""
    seeds = seeds or [0, 1, 2]
    out_path = Path(out)
    if dataset is None:
        dataset = ensure_dataset(
            "pointreach", SWEEP_TRAJECTORIES, out_path / "datasets" / "pointreach1.jsonl"
        )
    base = TrainConfig(
        env="pointreach",
        seeds=list(seeds),
        dataset=str(dataset),
        out=str(out_path),
        total_steps=total_steps,
    )
    configs = [replace(base, algorithm="bcgail_fixed", alpha=a) for a in SWEEP_ALPHAS]
    configs.append(replace(base, algorithm="bcgail_annealed"))
    return _run_all(configs, POINT_THRESHOLD, out_path)


BUNDLES = {
    "gridworld": reproduce_gridworld,
    "random-reward": reproduce_random_reward,
    "annealing-sweep": reproduce_annealing_sweep,
}
