"""Annealing schedule exactness: ``Learner.alpha_at``."""

import pytest

from annealed_il.config import LEARNERS, TrainConfig

ANNEALED = LEARNERS["bcgail_annealed"]


def alpha_at(half_life: int, t: int) -> float:
    return ANNEALED.alpha_at(TrainConfig(half_life=half_life), t)


@pytest.mark.parametrize("half_life", [1, 5, 10, 100])
def test_half_life_exact(half_life):
    assert abs(alpha_at(half_life, half_life) - 0.5) < 1e-12


def test_alpha_starts_at_one():
    assert alpha_at(10, 0) == 1.0


def test_alpha_one_step_value():
    # half-life 10 puts the first-step weight near 0.933
    assert abs(alpha_at(10, 1) - 0.933033) < 1e-3
    assert abs(alpha_at(10, 1) - 0.5 ** (1 / 10)) < 1e-15


def test_strictly_decreasing():
    for half_life in (1, 3, 17, 64):
        values = [alpha_at(half_life, t) for t in range(200)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_fixed_mode_constant():
    config = TrainConfig(algorithm="bcgail_fixed", alpha=0.25)
    assert [LEARNERS["bcgail_fixed"].alpha_at(config, t) for t in (0, 1, 10, 1000)] == [0.25] * 4
