"""Distribution utilities: exact values, normalization, sampling."""

import numpy as np
import pytest

from annealed_il import dists


def test_uniform_categorical_log_prob():
    logits = np.zeros((3, 4))
    lp = dists.categorical_log_prob(logits, [0, 1, 3])
    assert np.allclose(lp, np.log(0.25))


def test_categorical_rejects_out_of_range():
    with pytest.raises(ValueError):
        dists.categorical_log_prob(np.zeros((1, 4)), [4])


def test_softmax_sums_to_one_tightly():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((50, 6)) * 30
    p = dists.softmax(logits)
    assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-12)


def test_uniform_entropy_is_log_k_and_maximal():
    logits = np.zeros((1, 4))
    assert np.allclose(dists.categorical_entropy(logits), np.log(4))
    rng = np.random.default_rng(1)
    for _ in range(100):
        other = rng.standard_normal((1, 4)) * 3
        assert dists.categorical_entropy(other)[0] <= np.log(4) + 1e-12


def test_standard_normal_log_prob_at_mode():
    lp = dists.gaussian_log_prob(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)))
    assert np.allclose(lp, -0.5 * np.log(2 * np.pi))


def test_gaussian_log_prob_integrates_to_one():
    # quadrature over a 1-D action space
    mean = np.array([[0.3]])
    log_std = np.array([-0.2])
    xs = np.linspace(-10, 10, 200001).reshape(-1, 1)
    lp = dists.gaussian_log_prob(np.repeat(mean, len(xs), axis=0), log_std, xs)
    integral = np.trapezoid(np.exp(lp), xs[:, 0])
    assert abs(integral - 1.0) < 1e-6


def test_gaussian_entropy_closed_form():
    log_std = np.array([0.0, -1.0])
    h = dists.gaussian_entropy(log_std, 3)
    expected = (0.0 + 0.5 * np.log(2 * np.pi * np.e)) + (-1.0 + 0.5 * np.log(2 * np.pi * np.e))
    assert h.shape == (3,)
    assert np.allclose(h, expected)


def test_dominant_logit_sampling_frequency():
    logits = np.zeros(4)
    logits[2] = 50.0
    rng = np.random.default_rng(0)
    draws = [dists.categorical_sample(logits[None, :], rng) for _ in range(10_000)]
    assert np.mean(np.array(draws) == 2) > 0.999


def test_tiny_sigma_sampling_stays_near_mean():
    rng = np.random.default_rng(0)
    mean = np.array([0.4, -0.2])
    for _ in range(200):
        a = dists.gaussian_sample(mean, np.full(2, -5.0), rng, -1.0, 1.0)
        assert np.all(np.abs(a - mean) < 1e-1)


def test_categorical_sample_stays_in_range_when_cumsum_rounds_below_one():
    class TopDraw:
        def random(self):
            return 1.0 - 2.0**-53  # the largest draw below 1

    logits = np.array([[-1.37317748, 0.66058537, -3.02885455, -0.62752672]])
    assert np.cumsum(dists.softmax(logits))[-1] < 1.0 - 2.0**-53
    assert dists.categorical_sample(logits, TopDraw()) == 3


def test_sampling_deterministic_given_seed():
    logits = np.array([[0.3, -0.5, 1.0, 0.0]])
    a1 = dists.categorical_sample(logits, np.random.default_rng(9))
    a2 = dists.categorical_sample(logits, np.random.default_rng(9))
    assert a1 == a2
    g1 = dists.gaussian_sample(np.zeros(2), np.zeros(2), np.random.default_rng(9), -1, 1)
    g2 = dists.gaussian_sample(np.zeros(2), np.zeros(2), np.random.default_rng(9), -1, 1)
    assert np.array_equal(g1, g2)


def test_gaussian_sample_clamped_to_bounds():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = dists.gaussian_sample(np.zeros(2), np.full(2, 1.5), rng, -1.0, 1.0)
        assert np.all(np.abs(a) <= 1.0)


def test_log_std_clamp():
    clamped, mask = dists.clamped_log_std(np.array([-7.0, 0.0, 3.0]))
    assert np.array_equal(clamped, [-5.0, 0.0, 2.0])
    assert np.array_equal(mask, [0.0, 1.0, 0.0])


def test_categorical_entropy_gradient_zero_at_uniform():
    # entropy is maximal at uniform logits, so its gradient vanishes there
    g = dists.d_categorical_entropy(np.zeros((2, 4)))
    assert np.allclose(g, 0.0, atol=1e-15)
