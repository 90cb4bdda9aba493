"""Run configuration: algorithm selection, schedules, and per-env defaults."""

import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import List, Optional, Union

from .schedule import AnnealSchedule


@dataclass(frozen=True)
class Learner:
    """What sets one algorithm apart: its reward, its cloning weight, and
    whether supervised cloning runs before adversarial training.

    ``reward`` is "disc" (a trained discriminator), "frozen_disc" (an
    untrained one), "task" (the true sparse reward, no expert data) or
    "none" (supervised cloning only, no rollouts).  ``alpha`` is a fixed
    weight, "annealed" (``alpha0**t`` with the configured half-life) or
    "config" (the configured ``alpha``).
    """

    reward: str
    alpha: Union[float, str]
    bc_pretrain: bool = False

    def schedule(self, config: "TrainConfig") -> AnnealSchedule:
        if self.alpha == "annealed":
            return AnnealSchedule.annealed(config.half_life)
        return AnnealSchedule.fixed(config.alpha if self.alpha == "config" else self.alpha)


LEARNERS = {
    "bc": Learner("none", 1.0),
    "gail": Learner("disc", 0.0),
    "bcgail_annealed": Learner("disc", "annealed"),
    "bcgail_fixed": Learner("disc", "config"),
    "bc_pretrain_gail": Learner("disc", 0.0, bc_pretrain=True),
    "random_reward_ablation": Learner("frozen_disc", "config"),
    "reinforce": Learner("task", 0.0),
}

OUT_ROOT_ENV_VAR = "ANNEALED_IL_OUT"


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


@dataclass
class TrainConfig:
    env: str = "keydoor"  # "keydoor" | "pointreach"
    grid_size: int = 8
    algorithm: str = "bcgail_annealed"
    alpha: Optional[float] = None  # bcgail_fixed / random_reward_ablation
    half_life: Optional[int] = None  # bcgail_annealed; per-env default
    disc_mode: Optional[str] = None  # "gan" | "wgan"; per-env default
    wgan_clip: float = 0.05
    gamma: float = 0.99
    lam: float = 0.95
    lr: float = 3e-4
    disc_lr: float = 3e-4
    rollout_steps: Optional[int] = None  # per-env default
    total_steps: Optional[int] = None  # per-env default
    eval_every: Optional[int] = None  # iterations between evaluations
    eval_episodes: int = 20
    entropy_coef: Optional[float] = None  # per-env default
    value_coef: float = 0.5
    disc_updates: int = 3  # discriminator steps per iteration
    ppo_clip: Optional[float] = None  # None = plain policy-gradient update
    ppo_epochs: int = 4  # only used when ppo_clip is set
    bc_batch: int = 256
    bc_max_epochs: int = 300
    bc_patience: int = 10
    disc_pretrain_updates: int = 50
    seeds: List[int] = field(default_factory=lambda: [0, 1, 2])
    dataset: Optional[str] = None
    out: str = "runs"
    run_name: Optional[str] = None

    @property
    def env_id(self) -> str:
        return f"keydoor{self.grid_size}" if self.env == "keydoor" else "pointreach"

    @property
    def name(self) -> str:
        if self.run_name:
            return self.run_name
        if self.algorithm == "bcgail_fixed":
            return f"bcgail_fixed{self.alpha:g}"
        return self.algorithm

    @property
    def out_root(self) -> str:
        return os.environ.get(OUT_ROOT_ENV_VAR, self.out)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        known = {f for f in TrainConfig.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return TrainConfig(**d)

    @staticmethod
    def from_file(path) -> "TrainConfig":
        with open(path) as f:
            try:
                d = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{path}: not valid JSON ({e})") from e
        return TrainConfig.from_dict(d)


# Per-environment defaults.  Rollout/step budgets are desk-scale artifact
# choices; the half-life follows the calibration recipe of setting it to
# about half the epochs supervised cloning needs to converge here.
ENV_DEFAULTS = {
    "keydoor": {
        "disc_mode": "wgan",
        "entropy_coef": 0.01,
        "rollout_steps": 256,
        "total_steps": 400_000,
        "eval_every": 40,
        "half_life": 300,
    },
    "pointreach": {
        "disc_mode": "wgan",
        "entropy_coef": 0.0,
        "rollout_steps": 256,
        "total_steps": 300_000,
        "eval_every": 40,
        "half_life": 600,
    },
}


def resolve(config: TrainConfig) -> TrainConfig:
    """Fill in per-env defaults for any field left as None."""
    if config.env not in ENV_DEFAULTS:
        raise ConfigError(f"unknown env {config.env!r}; expected keydoor or pointreach")
    updates = {
        key: value
        for key, value in ENV_DEFAULTS[config.env].items()
        if getattr(config, key) is None
    }
    config = replace(config, **updates)
    if config.algorithm == "random_reward_ablation" and config.alpha is None:
        config = replace(config, alpha=0.5)
    return config


def validate(config: TrainConfig) -> TrainConfig:
    """Resolve defaults and check the configuration before any compute."""
    config = resolve(config)
    if config.algorithm not in LEARNERS:
        raise ConfigError(f"unknown algorithm {config.algorithm!r}; expected one of {tuple(LEARNERS)}")
    learner = LEARNERS[config.algorithm]
    if not config.seeds:
        raise ConfigError("seeds must be nonempty")
    if len(set(config.seeds)) != len(config.seeds):
        raise ConfigError("seeds must be distinct")
    if config.total_steps <= 0:
        raise ConfigError("total_steps must be positive")
    if config.rollout_steps <= 0:
        raise ConfigError("rollout_steps must be positive")
    if config.eval_every < 1:
        raise ConfigError("eval_every must be >= 1")
    if config.eval_episodes < 1:
        raise ConfigError("eval_episodes must be >= 1")
    if config.env == "keydoor" and config.grid_size not in (8, 10, 12):
        raise ConfigError(f"grid_size must be 8, 10 or 12, got {config.grid_size}")
    if config.env == "pointreach" and config.grid_size != TrainConfig.grid_size:
        raise ConfigError(
            f"grid_size applies to keydoor only; pointreach keeps the default {TrainConfig.grid_size},"
            f" got {config.grid_size}"
        )
    if learner.alpha == "config":
        if config.alpha is None:
            raise ConfigError(f"{config.algorithm} requires alpha")
        if not 0.0 <= config.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {config.alpha}")
    if learner.alpha == "annealed" and config.half_life < 1:
        raise ConfigError("half_life must be >= 1")
    if config.disc_mode not in ("gan", "wgan"):
        raise ConfigError(f"disc_mode must be gan or wgan, got {config.disc_mode!r}")
    if learner.reward != "task":
        if not config.dataset:
            raise ConfigError(f"algorithm {config.algorithm!r} requires a dataset path")
        if not os.path.exists(config.dataset):
            raise ConfigError(f"dataset not found: {config.dataset}")
    if not 0.0 < config.gamma <= 1.0:
        raise ConfigError("gamma must be in (0, 1]")
    if not 0.0 <= config.lam <= 1.0:
        raise ConfigError("lam must be in [0, 1]")
    return config
