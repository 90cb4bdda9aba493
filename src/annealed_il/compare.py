"""Cross-run comparison: final-performance table and learning-curve files.

Aggregates completed run directories into (a) a table of pooled final
returns, (b) one learning-curve file per run (env_steps, mean over
seeds, std across seeds), and (c) a steps-to-threshold column: the first
env-step count at which the smoothed mean evaluation return reaches a
target.  Smoothing is a trailing moving average (window 5 by default).
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .config import TrainConfig

SMOOTH_WINDOW = 5
NOT_REACHED = "not_reached"


@dataclass
class RunSummary:
    name: str
    env_id: str
    final_mean: float
    final_std: float
    steps_to_threshold: Optional[int]
    curve: List[Tuple[int, float, float]]  # (env_steps, mean, std across seeds)


def _load_eval_rows(path: Path) -> List[dict]:
    rows = []
    with open(path) as f:
        for line in f:
            rows.append(json.loads(line))
    return rows


def load_run(run_dir) -> Tuple[str, str, List[List[dict]], dict]:
    """Name, env id, eval rows of each seed in config.json, and the pooled final report."""
    run_dir = Path(run_dir)
    config_path = run_dir / "config.json"
    if not config_path.exists():
        raise ValueError(f"{run_dir}: missing config.json, not a run directory")
    config = TrainConfig.from_file(config_path)
    per_seed = [_load_eval_rows(run_dir / f"seed_{seed}" / "eval.jsonl") for seed in config.seeds]
    with open(run_dir / "report.json") as f:
        report = json.load(f)
    return run_dir.name, config.env_id, per_seed, report


def pooled_curve(per_seed: List[List[dict]]) -> List[Tuple[int, float, float]]:
    """Align seeds on env_steps and average their per-eval means."""
    step_sequences = [[row["env_steps"] for row in rows] for rows in per_seed]
    if len(set(map(tuple, step_sequences))) != 1:
        raise ValueError("seeds evaluated at different env-step points; cannot pool")
    curve = []
    for i, steps in enumerate(step_sequences[0]):
        means = np.array([rows[i]["mean"] for rows in per_seed])
        curve.append((steps, float(means.mean()), float(means.std())))
    return curve


def smooth(values: List[float], window: int = SMOOTH_WINDOW) -> List[float]:
    """Trailing moving average."""
    out = []
    for i in range(len(values)):
        lo = max(0, i - window + 1)
        out.append(float(np.mean(values[lo : i + 1])))
    return out


def steps_to_threshold(curve: List[Tuple[int, float, float]], threshold: float, window: int = SMOOTH_WINDOW) -> Optional[int]:
    smoothed = smooth([mean for _, mean, _ in curve], window)
    for (steps, _, _), value in zip(curve, smoothed):
        if value >= threshold:
            return steps
    return None


def compare(run_dirs, threshold: float, out_dir=None, window: int = SMOOTH_WINDOW) -> List[RunSummary]:
    if not run_dirs:
        raise ValueError("need at least one run directory")
    summaries = []
    env_ids = set()
    for run_dir in run_dirs:
        name, env_id, per_seed, report = load_run(run_dir)
        env_ids.add(env_id)
        curve = pooled_curve(per_seed)
        summaries.append(
            RunSummary(
                name=name,
                env_id=env_id,
                final_mean=report["pooled_mean"],
                final_std=report["pooled_std"],
                steps_to_threshold=steps_to_threshold(curve, threshold, window),
                curve=curve,
            )
        )
    if len(env_ids) != 1:
        raise ValueError(f"runs use different environments: {sorted(env_ids)}")

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "comparison.csv", "w") as f:
            f.write("method,env_id,final_mean,final_std,steps_to_threshold\n")
            for s in summaries:
                reached = NOT_REACHED if s.steps_to_threshold is None else str(s.steps_to_threshold)
                f.write(f"{s.name},{s.env_id},{s.final_mean!r},{s.final_std!r},{reached}\n")
        for s in summaries:
            with open(out_dir / f"{s.name}_curve.csv", "w") as f:
                f.write("env_steps,mean_return,std_return\n")
                for steps, mean, std in s.curve:
                    f.write(f"{steps},{mean!r},{std!r}\n")
    return summaries


def format_table(summaries: List[RunSummary], threshold: float) -> str:
    lines = [f"{'method':<24} {'final return':>22} {'steps to {:g}'.format(threshold):>16}"]
    for s in summaries:
        reached = NOT_REACHED if s.steps_to_threshold is None else str(s.steps_to_threshold)
        lines.append(f"{s.name:<24} {s.final_mean:>12.3f} ± {s.final_std:<7.3f} {reached:>16}")
    return "\n".join(lines)
