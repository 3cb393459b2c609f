"""Scenario validation, channel models, and gain expectations."""

import math

import numpy as np
import pytest
from scipy import stats

from livefetch.model import (
    FastGamma,
    QuadratureError,
    Scenario,
    SlowFading,
    expect_over_gain,
    mean_gain,
    mean_inverse_gain,
    sample_gain,
    to_db,
)


def make_scenario(**overrides):
    base = dict(m=2, N=5, N_P=4, p=np.array([0.25, 0.25, 0.25, 0.25]),
                gamma=np.array([5.0, 5.0, 5.0, 5.0]))
    base.update(overrides)
    return Scenario(**base)


class TestScenario:
    def test_valid_construction(self):
        s = make_scenario()
        assert s.L == 4
        assert s.gamma_total == pytest.approx(20.0, abs=1e-12)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            make_scenario(p=np.array([0.5, 0.2, 0.2, 0.2]))

    def test_probabilities_must_be_positive(self):
        with pytest.raises(ValueError):
            make_scenario(p=np.array([0.5, 0.5, 0.0, 0.0]))
        with pytest.raises(ValueError):
            Scenario(m=2, N=5, N_P=3, p=[np.nan, 0.5, 0.5], gamma=[3.0, 2.0, 1.0])

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            make_scenario(gamma=np.array([5.0, 5.0, 5.0, 0.0]))

    def test_monomial_order_range(self):
        for m in (2, 3, 4, 5):
            assert make_scenario(m=m).m == m
        with pytest.raises(ValueError):
            make_scenario(m=1)
        with pytest.raises(ValueError):
            make_scenario(m=6)

    def test_window_bounds(self):
        with pytest.raises(ValueError):
            make_scenario(N_P=0)
        with pytest.raises(ValueError):
            make_scenario(N_P=6)
        # N_P == N is allowed (no demand phase)
        assert make_scenario(N_P=5).N_P == 5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_scenario(p=np.array([0.5, 0.5]))


class TestChannels:
    def test_slow_gain_positive(self):
        assert SlowFading(g=1.5).g == 1.5
        with pytest.raises(ValueError):
            SlowFading(g=0.0)

    def test_fast_shape_integer_at_least_two(self):
        assert FastGamma(k=2).k == 2
        with pytest.raises(ValueError):
            FastGamma(k=1)

    def test_fast_density_matches_reference(self):
        """Density k^k x^(k-1) e^(-kx) / (k-1)! against scipy's gamma pdf."""
        for k in (2, 3, 7):
            ch = FastGamma(k=k)
            xs = np.linspace(0.05, 4.0, 40)
            ref = stats.gamma.pdf(xs, a=k, scale=1.0 / k)
            ours = np.array([ch.pdf(x) for x in xs])
            np.testing.assert_allclose(ours, ref, rtol=1e-12)

    def test_moments(self):
        assert mean_gain(SlowFading(g=2.5)) == 2.5
        assert mean_inverse_gain(SlowFading(g=2.5)) == pytest.approx(0.4)
        for k in (2, 3, 10):
            assert mean_gain(FastGamma(k=k)) == 1.0
            assert mean_inverse_gain(FastGamma(k=k)) == pytest.approx(k / (k - 1))

    def test_sample_moments_converge(self):
        rng = np.random.default_rng(2024)
        for k in (2, 4):
            g = sample_gain(FastGamma(k=k), rng, 200_000)
            assert abs(g.mean() - 1.0) < 4.0 / math.sqrt(k * g.size)
            inv = 1.0 / g
            se = inv.std(ddof=1) / math.sqrt(g.size)
            assert abs(inv.mean() - k / (k - 1)) < 4.0 * se

    def test_slow_sampling_is_constant(self):
        rng = np.random.default_rng(0)
        g = sample_gain(SlowFading(g=0.7), rng, 5)
        np.testing.assert_array_equal(g, np.full(5, 0.7))


class TestExpectOverGain:
    def test_slow_is_direct_evaluation(self):
        value = expect_over_gain(lambda g: 1.0 / g, SlowFading(g=4.0))
        assert value == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_inverse_moment(self, k):
        value = expect_over_gain(lambda g: 1.0 / g, FastGamma(k=k))
        assert value == pytest.approx(k / (k - 1), rel=1e-9)

    def test_matches_monte_carlo_for_recursion_integrands(self):
        """The f(g) shapes used by the demand/prefetch recursions agree with
        a large-sample Monte-Carlo average within 3 standard errors."""
        rng = np.random.default_rng(99)
        for k, m, shift in [(2, 2, 0.0), (2, 3, 0.7), (4, 2, 1.9), (3, 4, 0.3)]:
            ch = FastGamma(k=k)
            root = 1.0 / (m - 1)
            f = lambda g: (g ** root + shift) ** (-(m - 1))
            exact = expect_over_gain(f, ch)
            samples = f(sample_gain(ch, rng, 1_000_000))
            se = samples.std(ddof=1) / math.sqrt(samples.size)
            assert abs(samples.mean() - exact) < 3.0 * se

    def test_divergent_integrand_raises(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises((QuadratureError, ZeroDivisionError)):
                expect_over_gain(lambda g: 1.0 / g ** 8, FastGamma(k=2))


class TestDecibels:
    def test_reference_points(self):
        assert to_db(100.0) == pytest.approx(20.0, abs=1e-12)
        assert to_db(0.5) == pytest.approx(-3.0102999566398120, abs=1e-12)

    def test_requires_positive(self):
        # Ratios are computed, so an underflow to zero is a numerical failure.
        for ratio in (0.0, -1.0):
            with pytest.raises(FloatingPointError):
                to_db(ratio)

    @pytest.mark.parametrize("ratio", [np.inf, np.nan])
    def test_non_finite_is_a_numerical_failure(self, ratio):
        with pytest.raises(FloatingPointError):
            to_db(ratio)
