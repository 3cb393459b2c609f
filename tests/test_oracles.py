"""Brute-force oracle routes: grid search, backward induction, benchmark."""

import numpy as np
import pytest
from scipy import integrate, stats

from livefetch.demand import build_xi_table, expected_demand_energy
from livefetch.model import FastGamma, Scenario, SlowFading, sample_gain
from livefetch.oracles import p5_backward_induction, slow_oracle
from livefetch.prefetch import (
    PrefetchPolicy,
    build_prefix_tables,
    run_prefetch_batch,
)
from livefetch.slow import (
    expected_fetch_energy_slow,
    no_prefetch_energy_slow,
    optimal_prefetch_slow,
)

UNIFORM2 = Scenario(m=2, N=2, N_P=1, p=np.array([0.5, 0.5]), gamma=np.array([4.0, 4.0]))

# Two-task fast-fading instance with a single prefetch slot and a single
# demand slot: every continuation is available in closed form, so the
# backward induction can be checked against exact stage algebra.
S21 = Scenario(m=2, N=2, N_P=1, p=np.array([0.6, 0.4]), gamma=np.array([5.0, 3.0]))
FAST2 = FastGamma(2)


def random_scenario(rng, L_max=3):
    L = int(rng.integers(1, L_max + 1))
    N = int(rng.integers(2, 9))
    N_P = int(rng.integers(1, N))
    m = int(rng.choice([2, 3, 4]))
    return Scenario(m=m, N=N, N_P=N_P, p=rng.dirichlet(np.ones(L)),
                    gamma=rng.uniform(0.5, 10.0, L))


def golden_min(f, lo, hi, tol=1e-10):
    inv = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv * (b - a), a + inv * (b - a)
    while b - a > tol:
        if f(c) < f(d):
            b, d = d, c
            c = b - inv * (b - a)
        else:
            a, c = c, d
            d = a + inv * (b - a)
    return 0.5 * (a + b)


def quantized_support(k, bins):
    """Equal-probability Gamma bins with conditional means, rebuilt from
    scratch by quadrature (no shared identity with the oracle's route)."""
    edges = stats.gamma.ppf(np.linspace(0.0, 1.0, bins + 1), a=k, scale=1.0 / k)
    reps = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        num, _ = integrate.quad(
            lambda g: g * stats.gamma.pdf(g, a=k, scale=1.0 / k),
            lo, min(hi, 1e3))
        reps.append(num * bins)
    return np.array(reps), np.full(bins, 1.0 / bins)


class TestSlowOracle:
    def test_symmetric_pair_reference(self):
        result = slow_oracle(UNIFORM2)
        np.testing.assert_allclose(result.alpha, [0.8, 0.8], atol=1e-6)
        assert result.objective == pytest.approx(12.8, rel=1e-9)
        assert np.isfinite(result.objective)

    def test_residual_within_declared_tolerance(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            s = random_scenario(rng)
            result = slow_oracle(s)
            scale = s.m * max(1.0, float(s.gamma.sum())) ** (s.m - 1)
            assert result.residual <= 1e-6 * scale

    def test_never_beats_the_closed_form(self):
        # One-sided sweep: the policy value is optimal, so the oracle can
        # approach it from above but never undercut it meaningfully.
        rng = np.random.default_rng(16)
        for _ in range(100):
            s = random_scenario(rng)
            plan = optimal_prefetch_slow(s)
            value = expected_fetch_energy_slow(plan)
            result = slow_oracle(s)
            assert result.objective >= value - 1e-4 * value
            assert abs(result.objective - value) <= 1e-6 * value

    def test_grid_refinement_reduces_error(self):
        s = Scenario(m=2, N=4, N_P=2, p=np.array([0.55, 0.45]),
                     gamma=np.array([5.3, 2.9]))
        exact = expected_fetch_energy_slow(optimal_prefetch_slow(s))
        errors = []
        for resolution in (5, 9, 17, 33):   # nested grids: 2x refinements
            raw = slow_oracle(s, resolution=resolution, refine=False)
            errors.append(raw.grid_objective - exact)
        assert all(e >= -1e-12 for e in errors)
        assert all(a >= b for a, b in zip(errors, errors[1:]))
        assert errors[0] > errors[-1]

    def test_refinement_beats_the_raw_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            s = random_scenario(rng)
            result = slow_oracle(s, resolution=7)
            assert result.objective <= result.grid_objective + 1e-12

    def test_all_prefetch_degenerate_case(self):
        s = Scenario(m=3, N=4, N_P=4, p=np.array([0.6, 0.4]),
                     gamma=np.array([2.0, 3.0]))
        result = slow_oracle(s)
        np.testing.assert_array_equal(result.alpha, s.gamma)
        assert result.objective == pytest.approx(5.0 ** 3 / 4 ** 2, rel=1e-12)
        assert result.residual == 0.0

    def test_resolution_capped_for_many_tasks(self):
        s = Scenario(m=2, N=8, N_P=5, p=np.full(6, 1 / 6), gamma=np.full(6, 3.0))
        result = slow_oracle(s, resolution=21)
        assert result.resolution == 7          # 7**6 < 2e5 < 8**6
        assert result.resolution ** 6 <= 2e5

    def test_validation(self):
        with pytest.raises(ValueError):
            slow_oracle(UNIFORM2, resolution=1)


class TestBackwardInduction:
    def test_single_task_point_mass_matches_equal_split(self):
        # Certain task, constant gain: the optimum spreads the bits evenly
        # over all N slots, energy gamma^m / (g * N^(m-1)).
        s = Scenario(m=2, N=3, N_P=2, p=np.array([1.0]), gamma=np.array([4.0]))
        exact = 4.0 ** 2 / (1.5 * 3.0)
        fine = p5_backward_induction(s, SlowFading(1.5), bit_grid=41)
        coarse = p5_backward_induction(s, SlowFading(1.5), bit_grid=11)
        assert fine.value == pytest.approx(exact, rel=2e-2)
        assert abs(coarse.value - exact) > abs(fine.value - exact)
        assert fine.value >= exact - 1e-12    # discretization only overshoots

    def test_two_task_point_mass_matches_stage_closed_form(self):
        s = Scenario(m=2, N=3, N_P=1, p=np.array([0.6, 0.4]),
                     gamma=np.array([5.0, 3.0]))
        channel = SlowFading(2.0)
        exact = expected_fetch_energy_slow(optimal_prefetch_slow(s)) / 2.0
        result = p5_backward_induction(s, channel, bit_grid=41)
        assert result.value == pytest.approx(exact, rel=2e-2)

    def test_single_prefetch_slot_matches_exact_stage_solution(self):
        # With one prefetch slot and one demand slot the stage cost given
        # gain g collapses to min_b (sum b)^m/g + xi * sum p (gamma-b)^m
        # where xi is the flush coefficient of the oracle's quantized gain
        # support; solving that per bin in continuous decision space leaves
        # only the 41-point bit grid between the two routes.
        reps, weights = quantized_support(2, 16)
        xi_hat = float(np.sum(weights / reps))

        single = Scenario(m=2, N=2, N_P=1, p=np.array([1.0]), gamma=np.array([4.0]))
        exact = float(np.sum(weights * xi_hat * 16.0 / (1.0 + xi_hat * reps)))
        result = p5_backward_induction(single, FAST2, bit_grid=41, gain_bins=16)
        assert result.value == pytest.approx(exact, rel=2e-2)

        def stage_minimum(g):
            def objective(b):
                demand = 0.6 * (5.0 - b[0]) ** 2 + 0.4 * (3.0 - b[1]) ** 2
                return (b[0] + b[1]) ** 2 / g + xi_hat * demand
            best = [0.0, 0.0]
            for _ in range(120):
                previous = objective(best)
                for i, hi in enumerate((5.0, 3.0)):
                    def line(x, i=i):
                        trial = list(best)
                        trial[i] = x
                        return objective(trial)
                    best[i] = golden_min(line, 0.0, hi)
                if previous - objective(best) <= 1e-14 * (1.0 + previous):
                    break
            return objective(best)

        exact_pair = float(np.sum(weights * np.array([stage_minimum(g) for g in reps])))
        result = p5_backward_induction(S21, FAST2, bit_grid=41, gain_bins=16)
        assert result.value == pytest.approx(exact_pair, rel=2e-2)

    def test_no_prefetch_restriction_is_pure_demand(self):
        s = Scenario(m=2, N=3, N_P=1, p=np.array([0.6, 0.4]),
                     gamma=np.array([5.0, 3.0]))
        slow = p5_backward_induction(s, SlowFading(2.0), bit_grid=41,
                                     no_prefetch=True)
        assert slow.value == pytest.approx(no_prefetch_energy_slow(s) / 2.0, rel=2e-2)

        # Fast channel: the restricted value equals sum_l p gamma^m times
        # the two-slot demand coefficient of the quantized support, obtained
        # here by running the demand recursion on the rebuilt bins.
        reps, weights = quantized_support(2, 16)
        xi1 = float(np.sum(weights / reps))
        xi2 = float(np.sum(weights * xi1 / (1.0 + xi1 * reps)))
        exact = float(np.sum(s.p * s.gamma ** 2)) * xi2
        fast = p5_backward_induction(s, FAST2, bit_grid=41, gain_bins=16,
                                     no_prefetch=True)
        assert fast.value == pytest.approx(exact, rel=2e-2)

    def test_gain_support_matches_independent_reconstruction(self):
        reps, weights = quantized_support(2, 16)
        result = p5_backward_induction(S21, FAST2, bit_grid=5, gain_bins=16)
        np.testing.assert_allclose(result.gain_values, reps, rtol=1e-9)
        np.testing.assert_allclose(result.gain_weights, weights, rtol=1e-12)
        assert float(np.sum(result.gain_weights * result.gain_values)) == pytest.approx(
            1.0, rel=1e-9)    # unit-mean channel

    def test_validation(self):
        three = Scenario(m=2, N=3, N_P=1, p=np.full(3, 1 / 3), gamma=np.full(3, 2.0))
        with pytest.raises(ValueError):
            p5_backward_induction(three, FAST2)
        with pytest.raises(ValueError):
            p5_backward_induction(S21, FAST2, bit_grid=1)
        with pytest.raises(ValueError):
            p5_backward_induction(S21, FAST2, bit_grid=42)
        no_demand = Scenario(m=2, N=2, N_P=2, p=np.array([1.0]), gamma=np.array([2.0]))
        with pytest.raises(ValueError):
            p5_backward_induction(no_demand, FAST2)
        for bad in ({"gain_bins": 0}, {"gain_bins": -1}, {"gain_bins": 2.5},
                    {"bit_grid": 2.5}, {"bit_grid": 3.0}):
            with pytest.raises(ValueError):
                p5_backward_induction(S21, FAST2, **bad)
            with pytest.raises(ValueError):
                p5_backward_induction(S21, SlowFading(1.0), **bad)


def dense_induction(s, grids, gain_values, gain_weights, no_prefetch):
    """Reference recursion over every (state, next) pair of the product grid.

    Costs live in a dense ``(n, n)`` (one task) or ``(n, n, n, n)`` (two
    tasks) array with infeasible transitions at ``+inf``, and each step takes
    a plain ``min`` over all next states.  Returns the value from full
    residuals and the per-task demand values at the prefetch deadline.
    """
    demand = []
    for grid in grids:
        send = grid[:, None] - grid[None, :]
        invalid = send < 0.0
        cost = np.where(invalid, np.inf, np.where(invalid, 0.0, send) ** s.m)
        tables = [np.where(grid > 0.0, np.inf, 0.0)]
        for _ in range(s.N - s.N_P):
            previous = tables[-1]
            value = np.zeros(grid.size)
            for g, wt in zip(gain_values, gain_weights):
                value = value + wt * np.min(cost / g + previous[None, :], axis=1)
            tables.append(value)
        demand.append(tables[-1])

    if s.L == 1:
        boundary = s.p[0] * demand[0]
        send = grids[0][:, None] - grids[0][None, :]
        invalid = send < 0.0
    else:
        boundary = s.p[0] * demand[0][:, None] + s.p[1] * demand[1][None, :]
        send = (grids[0][:, None, None, None] - grids[0][None, None, :, None]
                + grids[1][None, :, None, None] - grids[1][None, None, None, :])
        invalid = ((grids[0][:, None, None, None] - grids[0][None, None, :, None] < 0.0)
                   | (grids[1][None, :, None, None] - grids[1][None, None, None, :] < 0.0))
    power = np.where(invalid, np.inf, np.where(invalid, 0.0, send) ** s.m)

    value = boundary
    for _ in range(0 if no_prefetch else s.N_P):
        new_value = np.zeros_like(value)
        if s.L == 1:
            for g, wt in zip(gain_values, gain_weights):
                new_value = new_value + wt * np.min(
                    power / g + value[None, :], axis=1)
        else:
            n = grids[0].size
            flat = value.reshape(-1)
            shaped = power.reshape(n, n, -1)
            for g, wt in zip(gain_values, gain_weights):
                new_value = new_value + wt * np.min(
                    shaped / g + flat[None, None, :], axis=2)
        value = new_value
    return float(value.reshape(-1)[-1]), demand


class TestSparseStep:
    """The feasible-transition recursion equals the dense one bit for bit."""

    @pytest.mark.parametrize("channel", [SlowFading(1.3), FastGamma(2), FastGamma(3)],
                             ids=["slow", "gamma2", "gamma3"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("L", [1, 2])
    def test_matches_the_dense_recursion(self, L, m, channel):
        rng = np.random.default_rng([L, m, channel.k if isinstance(channel, FastGamma) else 0])
        for bit_grid in (2, 3, 7, 11):
            for gain_bins in (1, 4):
                for no_prefetch in (False, True):
                    N = int(rng.integers(2, 7))
                    s = Scenario(m=m, N=N, N_P=int(rng.integers(1, N)),
                                 p=rng.dirichlet(np.ones(L)),
                                 gamma=rng.uniform(0.5, 10.0, L))
                    result = p5_backward_induction(s, channel, bit_grid=bit_grid,
                                                   gain_bins=gain_bins,
                                                   no_prefetch=no_prefetch)
                    grids = tuple(np.linspace(0.0, gi, bit_grid) for gi in s.gamma)
                    value, demand = dense_induction(s, grids, result.gain_values,
                                                    result.gain_weights, no_prefetch)
                    assert result.value == value
                    assert len(result.demand_values) == L
                    for sparse, dense in zip(result.demand_values, demand):
                        assert sparse.shape == dense.shape
                        assert np.array_equal(sparse, dense)
                    for grid, expected in zip(result.bit_grids, grids):
                        assert np.array_equal(grid, expected)


class TestNoncausalBenchmark:
    def test_slow_channel_matches_closed_form(self):
        """At a constant gain the noncausal kernel plus the expected demand
        energy of its residuals is the slow-fading optimum."""
        s = Scenario(m=2, N=5, N_P=3, p=np.array([0.45, 0.35, 0.2]),
                     gamma=np.array([7.0, 6.0, 5.0]))
        channel = SlowFading(1.7)
        xi = build_xi_table(channel, s.m, s.N - s.N_P)
        batch = run_prefetch_batch(s, channel, PrefetchPolicy.NONCAUSAL_ORACLE,
                                   np.full((1, s.N), 1.7), np.zeros(1, dtype=int), xi=xi)
        demand = sum(p * expected_demand_energy(float(beta), xi, s.N - s.N_P)
                     for p, beta in zip(s.p, batch.final_rho[0]))
        exact = expected_fetch_energy_slow(optimal_prefetch_slow(s)) / 1.7
        assert float(batch.prefetch_energy[0]) + demand == pytest.approx(exact, rel=1e-9)

    def test_benchmark_bounds_causal_and_no_prefetch_policies(self):
        s = Scenario(m=2, N=5, N_P=3, p=np.array([0.45, 0.35, 0.2]),
                     gamma=np.array([7.0, 6.0, 5.0]))
        xi = build_xi_table(FAST2, s.m, s.N - s.N_P)
        tables = build_prefix_tables(s, FAST2, xi)
        trials = 8000
        rng = np.random.default_rng(42)
        gains = sample_gain(FAST2, rng, (trials, s.N))
        realized = rng.choice(s.L, size=trials, p=s.p)
        reference = run_prefetch_batch(s, FAST2, PrefetchPolicy.NONCAUSAL_ORACLE,
                                       gains, realized, xi=xi,
                                       prefix_tables=tables).total_energy
        for policy in (PrefetchPolicy.AGGRESSIVE, PrefetchPolicy.CONSERVATIVE,
                       PrefetchPolicy.NO_PREFETCH):
            other = run_prefetch_batch(s, FAST2, policy, gains, realized,
                                       xi=xi, prefix_tables=tables).total_energy
            paired = other - reference
            stderr = float(paired.std(ddof=1)) / np.sqrt(trials)
            assert float(paired.mean()) >= -3.0 * stderr
