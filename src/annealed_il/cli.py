"""Command-line interface.

Subcommands: collect-expert, train, evaluate, compare, reproduce.  Train
settings come from a JSON config file plus flag overrides; --seed, --out
and --dataset behave uniformly across subcommands.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from .compare import compare, format_table
from .config import ConfigError, TrainConfig
from .data import DatasetError, save_dataset
from .envs import make_env
from .evaluate import evaluate_checkpoint
from .experts import AStarExpert, PointExpert, collect
from .reproduce import BUNDLES, GRID_THRESHOLD, reproduce
from .runner import run


def _parse_seeds(text: str):
    try:
        return [int(s) for s in text.split(",") if s != ""]
    except ValueError:
        raise ConfigError(f"--seed expects comma-separated integers, got {text!r}")


def _env_id(args) -> str:
    return TrainConfig(env=args.env, grid_size=args.size).env_id


def cmd_collect_expert(args) -> int:
    env = make_env(_env_id(args))
    expert = AStarExpert() if args.env == "keydoor" else PointExpert()
    dataset = collect(env, expert, args.n, args.seed)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} trajectories ({dataset.n_transitions} transitions) to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = TrainConfig.from_file(args.config) if args.config else TrainConfig()
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    if args.seed is not None:
        overrides["seeds"] = _parse_seeds(args.seed)
    config = TrainConfig.from_dict({**config.to_dict(), **overrides})
    run_dir = run(config)
    print(f"run complete: {run_dir}")
    return 0


def cmd_evaluate(args) -> int:
    report = evaluate_checkpoint(args.checkpoint, _env_id(args), args.episodes, args.seed)
    print(f"episodes: {report.n_episodes}")
    print(f"mean return: {report.mean!r}")
    print(f"std return:  {report.std!r}")
    return 0


def cmd_compare(args) -> int:
    summaries = compare(args.run_dirs, args.threshold, out_dir=args.out)
    print(format_table(summaries, args.threshold))
    if args.out:
        print(f"\ntable and curve files written to {args.out}")
    return 0


def cmd_reproduce(args) -> int:
    seeds = _parse_seeds(args.seed) if args.seed else None
    print(reproduce(args.bundle, args.size, seeds, args.out, args.total_steps, args.dataset))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annealed-il",
        description="On-policy imitation learning with an annealed cloning/adversarial tradeoff.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect-expert", help="record scripted-expert trajectories")
    p.add_argument("--env", choices=["keydoor", "pointreach"], required=True)
    p.add_argument("--size", type=int, default=8, help="grid size (keydoor only)")
    p.add_argument("--n", type=int, required=True, help="number of trajectories")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output dataset path")
    p.set_defaults(func=cmd_collect_expert)

    p = sub.add_parser("train", help="train one algorithm configuration")
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--env", choices=["keydoor", "pointreach"])
    p.add_argument("--size", dest="grid_size", type=int, help="grid size (keydoor only)")
    p.add_argument("--algorithm")
    p.add_argument("--alpha", type=float, help="fixed tradeoff weight (bcgail_fixed)")
    p.add_argument("--half-life", dest="half_life", type=int)
    p.add_argument("--disc-mode", dest="disc_mode", choices=["gan", "wgan"])
    p.add_argument("--steps", dest="total_steps", type=int)
    p.add_argument("--rollout-steps", dest="rollout_steps", type=int)
    p.add_argument("--eval-every", dest="eval_every", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", help="comma-separated seeds, e.g. 0,1,2")
    p.add_argument("--dataset")
    p.add_argument("--out")
    p.add_argument("--name", dest="run_name")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--env", choices=["keydoor", "pointreach"], required=True)
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--episodes", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="tabulate finished runs and emit curve files")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--threshold", type=float, default=GRID_THRESHOLD)
    p.add_argument("--out", help="directory for comparison.csv and curve files")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("reproduce", help="run a named experiment bundle")
    p.add_argument("bundle", choices=sorted(BUNDLES))
    p.add_argument("--size", type=int, default=8, help="grid size (gridworld bundle)")
    p.add_argument("--seed", help="comma-separated seeds")
    p.add_argument("--steps", dest="total_steps", type=int)
    p.add_argument("--dataset")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
