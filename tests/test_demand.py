"""Demand-phase DP: coefficient tables, per-slot rule, energies, bounds."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import exp1

from livefetch.demand import (
    XiTable,
    build_xi_table,
    demand_energy_bounds,
    expected_demand_energy,
    simulate_demand_batch,
)
from livefetch.model import FastGamma, SlowFading, mean_gain, mean_inverse_gain, sample_gain

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Independent closed form for the two-slot coefficient at (k=2, m=2):
# E[1/(g+1/2)] under the unit-mean Gamma(2) density 4x e^(-2x) reduces to
# 2 - 2e*E1(1) by splitting x/(x+1/2) = 1 - (1/2)/(x+1/2).
XI2_K2_M2 = 2.0 - 2.0 * math.e * exp1(1.0)


def first_slot_bits(rho, g, slots, table):
    """Bits the xi-policy sends in the first of ``slots`` slots, per residual.

    ``rho`` and ``g`` broadcast to one episode each; the later slots see a
    unit gain, which does not affect the first decision.
    """
    rho, g = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(g, dtype=float))
    gains = np.ones((rho.size, slots))
    gains[:, 0] = g.ravel()
    bits, _ = simulate_demand_batch(rho.ravel(), gains, table)
    return bits[:, 0]


def golden_min(fun, lo, hi, tol=1e-12):
    a, b = lo, hi
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol * (1.0 + abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


class TestXiTable:
    def test_single_slot_coefficient_is_inverse_gain_moment(self):
        for k in (2, 3, 5):
            table = build_xi_table(FastGamma(k=k), m=2, horizon=3)
            assert table.xi[1] == pytest.approx(k / (k - 1), rel=1e-9)

    def test_two_slot_coefficient_closed_form(self):
        table = build_xi_table(FastGamma(k=2), m=2, horizon=2)
        assert table.xi[2] == pytest.approx(XI2_K2_M2, rel=1e-9)
        assert 0.5 <= table.xi[2] <= 1.0

    def test_two_slot_coefficient_monte_carlo(self):
        table = build_xi_table(FastGamma(k=2), m=2, horizon=2)
        rng = np.random.default_rng(7)
        g = sample_gain(FastGamma(k=2), rng, 1_000_000)
        samples = 1.0 / (g + 0.5)
        se = samples.std(ddof=1) / math.sqrt(g.size)
        assert abs(samples.mean() - table.xi[2]) < 3.0 * se

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_point_mass_channel_reduces_to_power_law(self, m):
        """A constant gain g makes the j-slot coefficient 1/(g*j^(m-1))."""
        for g in (1.0, 2.5):
            table = build_xi_table(SlowFading(g=g), m=m, horizon=6)
            for j in range(1, 7):
                assert table.xi[j] == pytest.approx(1.0 / (g * j ** (m - 1)), rel=1e-12)

    def test_sentinel_row(self):
        table = build_xi_table(FastGamma(k=2), m=2, horizon=2)
        assert math.isinf(table.xi[0])
        assert table.inv_root[0] == 0.0

    @pytest.mark.parametrize("k,m", [(2, 2), (2, 3), (4, 2), (3, 4), (8, 5)])
    def test_sandwich_and_monotonicity(self, k, m):
        ch = FastGamma(k=k)
        table = build_xi_table(ch, m=m, horizon=8)
        inv_mean = mean_inverse_gain(ch)
        for j in range(1, 9):
            lower = 1.0 / (mean_gain(ch) * j ** (m - 1))
            upper = inv_mean / j ** (m - 1)
            assert lower - 1e-12 <= table.xi[j] <= upper + 1e-12
        assert all(a > b for a, b in zip(table.xi[1:-1], table.xi[2:]))

    @pytest.mark.parametrize("channel", [FastGamma(k=2), FastGamma(k=64), SlowFading(g=2.5)])
    def test_two_builds_are_equal(self, channel):
        # Nothing is cached: each build computes its own table, bit for bit
        # the same.
        a = build_xi_table(channel, m=3, horizon=6)
        b = build_xi_table(channel, m=3, horizon=6)
        assert a is not b
        assert a == b
        for name in ("xi", "inv_root"):
            assert np.array(getattr(a, name)).tobytes() == np.array(getattr(b, name)).tobytes()


class TestDemandBits:
    """The per-slot rule, read off the first slot of a batch."""

    def test_last_slot_flushes(self):
        table = build_xi_table(FastGamma(k=2), m=2, horizon=3)
        assert list(first_slot_bits(7.3, [0.01, 100.0], 1, table)) == [7.3, 7.3]

    def test_zero_residual(self):
        table = build_xi_table(FastGamma(k=2), m=2, horizon=3)
        assert first_slot_bits(0.0, 1.0, 2, table)[0] == 0.0

    def test_two_slot_reference_value(self):
        table = build_xi_table(FastGamma(k=2), m=2, horizon=2)
        assert first_slot_bits(10.0, 1.0, 2, table)[0] == pytest.approx(10.0 / 1.5,
                                                                         rel=1e-9)

    def test_monotone_in_gain(self):
        table = build_xi_table(FastGamma(k=3), m=3, horizon=4)
        gains = np.linspace(0.05, 6.0, 60)
        for j in (2, 3, 4):
            sent = first_slot_bits(5.0, gains, j, table)
            assert np.all(sent[:-1] <= sent[1:] + 1e-12)

    def test_bellman_consistency_two_slots(self):
        """The closed-form split solves the 2-slot problem found by search."""
        for k, m in [(2, 2), (3, 3), (4, 2)]:
            table = build_xi_table(FastGamma(k=k), m=m, horizon=2)
            for g in (0.3, 1.0, 2.7):
                for rho in (1.0, 4.0, 9.0):
                    objective = lambda b: b ** m / g + table.xi[1] * (rho - b) ** m
                    b_search = golden_min(objective, 0.0, rho)
                    b_rule = first_slot_bits(rho, g, 2, table)[0]
                    assert objective(b_rule) == pytest.approx(
                        objective(b_search), rel=1e-6)
                    assert b_rule == pytest.approx(b_search, abs=1e-5 * rho)


class TestExpectedDemandEnergy:
    def test_zero_beta(self):
        table = build_xi_table(FastGamma(k=2), m=2, horizon=2)
        assert expected_demand_energy(0.0, table, 2) == 0.0
        assert expected_demand_energy(0.0, table, 0) == 0.0

    def test_single_slot_value(self):
        table = build_xi_table(FastGamma(k=2), m=2, horizon=1)
        assert expected_demand_energy(4.0, table, 1) == pytest.approx(32.0, rel=1e-9)

    def test_zero_duration_with_residual_is_infeasible(self):
        table = build_xi_table(FastGamma(k=2), m=2, horizon=1)
        with pytest.raises(ValueError):
            expected_demand_energy(1.0, table, 0)


@pytest.mark.parametrize("beta", [True, "1.0", -1.0, np.nan, np.inf])
def test_beta_must_be_a_nonnegative_finite_number(beta):
    # A bool is not read as one bit, and a string is a ValueError, not a
    # bare TypeError.
    table = build_xi_table(FastGamma(k=2), m=2, horizon=2)
    with pytest.raises(ValueError, match="beta"):
        expected_demand_energy(beta, table, 2)
    with pytest.raises(ValueError, match="beta"):
        demand_energy_bounds(beta, FastGamma(k=2), m=2, duration=2)


def test_numpy_float_beta():
    table = build_xi_table(FastGamma(k=2), m=2, horizon=1)
    assert expected_demand_energy(np.float32(4.0), table, 1) == \
        expected_demand_energy(4.0, table, 1)
    assert demand_energy_bounds(np.float64(4.0), FastGamma(k=2), m=2, duration=2) == \
        demand_energy_bounds(4.0, FastGamma(k=2), m=2, duration=2)


@pytest.mark.parametrize("errors", ["ignore", "warn", "raise"])
@pytest.mark.parametrize("energy", [
    lambda beta: expected_demand_energy(beta, build_xi_table(FastGamma(2), 5, 3), 2),
    lambda beta: demand_energy_bounds(beta, FastGamma(2), 5, 2),
], ids=["expected", "bounds"])
def test_an_overflowing_power_is_a_numerical_failure(energy, errors):
    # beta is finite but beta**m is not: a FloatingPointError, never a bare
    # OverflowError of a float power or an infinite energy.
    with np.errstate(all=errors), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(FloatingPointError):
            energy(1e70)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_finite_energies_keep_their_float_power(m):
    ch = FastGamma(3)
    table = build_xi_table(ch, m, 4)
    for beta in np.random.default_rng(m).uniform(0.0, 50.0, 200).tolist() + [1e-80, 1e61]:
        for duration in (1, 2, 4):
            energy = expected_demand_energy(beta, table, duration)
            assert type(energy) is float
            assert energy == table.xi[duration] * beta ** m
            scale = beta ** m / duration ** (m - 1)
            assert demand_energy_bounds(beta, ch, m, duration) == \
                (scale / mean_gain(ch), scale * mean_inverse_gain(ch))


class TestDemandEnergyBounds:
    def test_reference_pair(self):
        lower, upper = demand_energy_bounds(4.0, FastGamma(k=2), m=2, duration=2)
        assert lower == pytest.approx(8.0, rel=1e-12)
        assert upper == pytest.approx(16.0, rel=1e-12)

    def test_single_slot_upper_bound_is_tight(self):
        table = build_xi_table(FastGamma(k=3), m=2, horizon=1)
        _, upper = demand_energy_bounds(5.0, FastGamma(k=3), m=2, duration=1)
        assert upper == pytest.approx(expected_demand_energy(5.0, table, 1), rel=1e-9)

    def test_slow_channel_collapses(self):
        lower, upper = demand_energy_bounds(5.0, SlowFading(g=2.0), m=3, duration=4)
        assert lower == pytest.approx(upper, rel=1e-12)

    @pytest.mark.parametrize("k,m,duration", [(2, 2, 1), (2, 2, 3), (3, 4, 2), (5, 3, 5)])
    def test_sandwich_contains_the_exact_value(self, k, m, duration):
        ch = FastGamma(k=k)
        table = build_xi_table(ch, m=m, horizon=duration)
        exact = expected_demand_energy(2.0, table, duration)
        lower, upper = demand_energy_bounds(2.0, ch, m=m, duration=duration)
        assert lower - 1e-12 <= exact <= upper + 1e-12


class TestEpisodes:
    def test_constant_gains_split_equally(self):
        table = build_xi_table(SlowFading(g=1.5), m=2, horizon=4)
        bits, _ = simulate_demand_batch(np.array([8.0]), np.full((1, 4), 1.5), table)
        np.testing.assert_allclose(bits[0], np.full(4, 2.0), atol=1e-12)

    def test_single_slot(self):
        table = build_xi_table(FastGamma(k=2), m=2, horizon=1)
        bits, energy = simulate_demand_batch(np.array([3.3]), np.array([[0.8]]), table)
        np.testing.assert_allclose(bits[0], [3.3])
        assert energy[0].sum() == pytest.approx(3.3 ** 2 / 0.8, rel=1e-12)

    def test_exact_flush(self):
        rng = np.random.default_rng(21)
        table = build_xi_table(FastGamma(k=2), m=3, horizon=6)
        beta = rng.uniform(0.0, 12.0, 200)
        gains = sample_gain(FastGamma(k=2), rng, (200, 6))
        bits, _ = simulate_demand_batch(beta, gains, table)
        np.testing.assert_allclose(bits.sum(axis=1), beta, rtol=0.0, atol=1e-9)
        assert np.all(bits >= -1e-12)

    def test_input_validation(self):
        table = build_xi_table(FastGamma(k=2), m=2, horizon=3)
        beta, gains = np.array([1.0, 2.0]), np.ones((2, 3))
        for bad in (0.0, -1.0, np.nan, np.inf):
            broken = gains.copy()
            broken[1, 2] = bad
            with pytest.raises(ValueError, match="gains"):
                simulate_demand_batch(beta, broken, table)
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="residual"):
                simulate_demand_batch(np.array([1.0, bad]), gains, table)
        for b, g in ((beta[:1], gains), (beta, gains[0]), (beta[:, None], gains)):
            with pytest.raises(ValueError, match="shape"):
                simulate_demand_batch(b, g, table)
        for slots in (0, 4):
            with pytest.raises(ValueError, match="horizon"):
                simulate_demand_batch(beta, np.ones((2, slots)), table)

    @pytest.mark.parametrize("duration", [1, 2, 3, 5])
    def test_monte_carlo_matches_closed_form(self, duration):
        """Episode means reproduce the closed-form expected energy at 3 SE."""
        ch = FastGamma(k=2)
        table = build_xi_table(ch, m=2, horizon=duration)
        exact = expected_demand_energy(4.0, table, duration)
        rng = np.random.default_rng(100 + duration)
        episodes = 30_000
        gains = sample_gain(ch, rng, (episodes, duration))
        # Vectorized replay of the per-slot rule, flushing on the last slot.
        rho = np.full(episodes, 4.0)
        energy = np.zeros(episodes)
        for slot in range(duration):
            remaining = duration - slot
            g = gains[:, slot]
            if remaining == 1:
                bits = rho.copy()
            else:
                u_g = g ** 1.0
                bits = rho * u_g / (u_g + table.inv_root[remaining - 1])
            energy += bits ** 2 / g
            rho = rho - bits
        se = energy.std(ddof=1) / math.sqrt(episodes)
        assert abs(energy.mean() - exact) < 3.0 * se
        # Check the vectorized replay against the library simulator.
        _, simulated = simulate_demand_batch(np.full(episodes, 4.0), gains, table)
        np.testing.assert_allclose(simulated.sum(axis=1), energy, rtol=1e-12)


def column_demand_batch(beta, gains, table):
    """The xi-policy filling ``(E, d)`` buffers column by column, the layout it replaced.

    Kept as the bitwise reference of the slot-major ``simulate_demand_batch``.
    """
    root = 1.0 / (table.m - 1)
    duration = gains.shape[1]
    bits, energy = np.empty_like(gains), np.empty_like(gains)
    residual = beta.copy()
    for slot in range(duration):
        remaining = duration - slot
        g = gains[:, slot]
        if remaining == 1:
            sent = residual.copy()
        else:
            u_g = g ** root
            sent = residual * u_g / (u_g + table.inv_root[remaining - 1])
        bits[:, slot] = sent
        energy[:, slot] = sent ** table.m / g
        residual -= sent
    return bits, energy


class TestSlotMajor:
    """Slot-major buffers return the column-major loop's ``(E, d)`` values bit for bit."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_the_column_major_loop(self, m):
        rng = np.random.default_rng(m + 40)
        for channel in (FastGamma(k=2), FastGamma(k=5), SlowFading(g=0.7)):
            for duration in range(1, 10):
                table = build_xi_table(channel, m=m, horizon=duration)
                for episodes in (0, 1, 257):
                    beta = rng.uniform(0.0, 30.0, episodes)
                    gains = sample_gain(channel, rng, (episodes, duration))
                    got = simulate_demand_batch(beta, gains, table)
                    for mine, theirs in zip(got, column_demand_batch(beta, gains, table)):
                        assert mine.shape == theirs.shape == (episodes, duration)
                        assert mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("call", [
    lambda: build_xi_table(FastGamma(k=2), m=6, horizon=2),
    lambda: build_xi_table(FastGamma(k=2), m=2, horizon=-1),
    lambda: expected_demand_energy(-1.0, build_xi_table(FastGamma(k=2), m=2, horizon=2), 1),
    lambda: expected_demand_energy(1.0, build_xi_table(FastGamma(k=2), m=2, horizon=2), 3),
    lambda: demand_energy_bounds(-1.0, FastGamma(k=2), m=2, duration=1),
    lambda: demand_energy_bounds(1.0, FastGamma(k=2), m=2, duration=0),
    lambda: build_xi_table(FastGamma(k=2), m=2, horizon=True),
    lambda: expected_demand_energy(1.0, build_xi_table(FastGamma(k=2), m=2, horizon=2), 2.0),
    lambda: expected_demand_energy(1.0, build_xi_table(FastGamma(k=2), m=2, horizon=2), True),
    lambda: demand_energy_bounds(1.0, FastGamma(k=2), m=2, duration=True),
    lambda: demand_energy_bounds(1.0, FastGamma(k=2), m=1, duration=1),
    lambda: demand_energy_bounds(1.0, FastGamma(k=2), m=2.5, duration=1),
    lambda: demand_energy_bounds(1.0, FastGamma(k=2), m=True, duration=1),
    lambda: demand_energy_bounds(1.0, FastGamma(k=2), m=6, duration=1),
], ids=["m6", "negative-horizon", "expected-negative-beta", "expected-past-horizon",
        "bounds-negative-beta", "bounds-zero-duration", "bool-horizon",
        "expected-float-duration", "expected-bool-duration", "bounds-bool-duration",
        "bounds-m1", "bounds-float-m", "bounds-bool-m", "bounds-m6"])
def test_input_checks(call):
    with pytest.raises(ValueError):
        call()
