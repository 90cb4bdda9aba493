"""Exponential annealing of the cloning/adversarial tradeoff weight.

In annealed mode the weight at iteration t is alpha_0**t with
alpha_0 = 0.5**(1/H), so the weight crosses 0.5 exactly at the half-life
H.  Fixed mode holds a constant weight; 0 is the pure adversarial
learner, 1 is pure cloning.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class AnnealSchedule:
    mode: str  # "annealed" | "fixed"
    alpha0: float = 0.0  # annealed mode
    half_life: int = 0  # annealed mode
    alpha: float = 0.0  # fixed mode

    @staticmethod
    def annealed(half_life: int) -> "AnnealSchedule":
        if half_life < 1:
            raise ValueError(f"half_life must be >= 1, got {half_life}")
        return AnnealSchedule(mode="annealed", alpha0=0.5 ** (1.0 / half_life), half_life=half_life)

    @staticmethod
    def fixed(alpha: float) -> "AnnealSchedule":
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"fixed alpha must be in [0, 1], got {alpha}")
        return AnnealSchedule(mode="fixed", alpha=alpha)


def alpha_at(schedule: AnnealSchedule, t: int) -> float:
    if t < 0:
        raise ValueError(f"iteration index must be >= 0, got {t}")
    if schedule.mode == "fixed":
        return schedule.alpha
    return schedule.alpha0**t
