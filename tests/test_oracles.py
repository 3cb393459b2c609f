"""Brute-force oracle routes: grid search, backward induction, benchmark."""

import numpy as np
import pytest
from scipy import integrate, stats

from livefetch.demand import build_xi_table, expected_demand_energy
from livefetch import oracles
from livefetch.model import FastGamma, QuadratureError, Scenario, SlowFading, sample_gain
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
from livefetch.sweep import generate_scenario

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


def no_prefetch_value(s, result):
    """The induction's value with no prefetching: each task's demand value at full residuals."""
    return sum(p * demand[-1] for p, demand in zip(s.p, result.demand_values))


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
            raw = slow_oracle(s, resolution=resolution)
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

    def test_two_points_per_axis_over_the_cap_are_rejected(self):
        # 2**17 grid points fit under the cap, 2**18 do not.
        s = Scenario(m=2, N=8, N_P=5, p=np.full(17, 1 / 17), gamma=np.full(17, 1.0))
        assert slow_oracle(s).resolution == 2
        s = Scenario(m=2, N=8, N_P=5, p=np.full(18, 1 / 18), gamma=np.full(18, 1.0))
        with pytest.raises(ValueError, match="2\\*\\*18 points"):
            slow_oracle(s)

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
        slow = p5_backward_induction(s, SlowFading(2.0), bit_grid=41)
        assert no_prefetch_value(s, slow) == pytest.approx(no_prefetch_energy_slow(s) / 2.0,
                                                           rel=2e-2)

        # Fast channel: the restricted value equals sum_l p gamma^m times
        # the two-slot demand coefficient of the quantized support, obtained
        # here by running the demand recursion on the rebuilt bins.
        reps, weights = quantized_support(2, 16)
        xi1 = float(np.sum(weights / reps))
        xi2 = float(np.sum(weights * xi1 / (1.0 + xi1 * reps)))
        exact = float(np.sum(s.p * s.gamma ** 2)) * xi2
        fast = p5_backward_induction(s, FAST2, bit_grid=41, gain_bins=16)
        assert no_prefetch_value(s, fast) == pytest.approx(exact, rel=2e-2)

    def test_gain_support_matches_independent_reconstruction(self):
        reps, weights = quantized_support(2, 16)
        result = p5_backward_induction(S21, FAST2, bit_grid=5, gain_bins=16)
        np.testing.assert_allclose(result.gain_values, reps, rtol=1e-9)
        np.testing.assert_allclose(result.gain_weights, weights, rtol=1e-12)
        assert float(np.sum(result.gain_weights * result.gain_values)) == pytest.approx(
            1.0, rel=1e-9)    # unit-mean channel

    @pytest.mark.parametrize("k", [2, 3, 4, 8, 16, 32, 64])
    def test_gain_support_matches_scipy(self, k):
        # The Erlang bins take no special function; scipy's Gamma quantiles
        # and the shape-(k+1) CDF give the same conditional means.
        single = Scenario(m=2, N=2, N_P=1, p=np.array([1.0]), gamma=np.array([1.0]))
        for bins in (1, 2, 4, 16, 41, 64, 256):
            result = p5_backward_induction(single, FastGamma(k), bit_grid=2, gain_bins=bins)
            edges = stats.gamma.ppf(np.linspace(0.0, 1.0, bins + 1), a=k, scale=1.0 / k)
            means = bins * np.diff(stats.gamma.cdf(edges, a=k + 1, scale=1.0 / k))
            np.testing.assert_allclose(result.gain_values, means, rtol=1e-12, atol=0.0)
            assert np.array_equal(result.gain_weights, np.full(bins, 1.0 / bins))

    def test_unsettled_gain_quantiles_are_a_numerical_failure(self, monkeypatch):
        oracles._erlang_bins.cache_clear()
        monkeypatch.setattr(oracles, "_QUANTILE_ITERATIONS", 0)
        with pytest.raises(QuadratureError) as failure:
            p5_backward_induction(S21, FAST2, bit_grid=5, gain_bins=16)
        assert not isinstance(failure.value, ValueError)
        assert "did not settle" in str(failure.value)

    def test_overflowing_value_is_a_numerical_failure(self):
        # (3e70)**5 overflows the transition costs, so the value would be inf.
        s = Scenario(m=5, N=4, N_P=2, p=np.array([0.6, 0.4]), gamma=np.array([3e70, 2e70]))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError) as failure:
            p5_backward_induction(s, FAST2, bit_grid=5, gain_bins=4)
        assert isinstance(failure.value, ArithmeticError)
        assert not isinstance(failure.value, ValueError)
        assert "not finite" in str(failure.value)

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
                                                   gain_bins=gain_bins)
                    grids = tuple(np.linspace(0.0, gi, bit_grid) for gi in s.gamma)
                    value, demand = dense_induction(s, grids, result.gain_values,
                                                    result.gain_weights, no_prefetch)
                    assert (no_prefetch_value(s, result) if no_prefetch
                            else result.value) == value
                    assert len(result.demand_values) == L
                    for sparse, dense in zip(result.demand_values, demand):
                        assert sparse.shape == dense.shape
                        assert np.array_equal(sparse, dense)
                    for grid, expected in zip(result.bit_grids, grids):
                        assert np.array_equal(grid, expected)


def same_induction(a, b):
    """Every field of two ``InductionResult``s is bitwise equal."""
    assert a.value == b.value
    for name in ("bit_grids", "demand_values"):
        mine, theirs = getattr(a, name), getattr(b, name)
        assert len(mine) == len(theirs) and all(map(np.array_equal, mine, theirs)), name
    assert np.array_equal(a.gain_values, b.gain_values)
    assert np.array_equal(a.gain_weights, b.gain_weights)


class TestTransitionCache:
    """The feasible transitions are built once per grids and ``m``."""

    @staticmethod
    def scenario(gamma, N_P=3):
        return Scenario(m=2, N=6, N_P=N_P, p=np.array([0.7, 0.3]), gamma=np.array(gamma))

    def test_warm_and_cleared_calls_agree(self):
        s = self.scenario([5.0, 3.0])
        oracles._transitions.cache_clear()
        cold = p5_backward_induction(s, FAST2, bit_grid=11, gain_bins=4)
        assert oracles._transitions.cache_info().misses == 3    # two demand grids, one product
        warm = p5_backward_induction(s, FAST2, bit_grid=11, gain_bins=4)
        assert oracles._transitions.cache_info().hits == 3
        oracles._transitions.cache_clear()
        cleared = p5_backward_induction(s, FAST2, bit_grid=11, gain_bins=4)
        same_induction(warm, cold)
        same_induction(cleared, cold)

    def test_windows_share_and_scenarios_do_not(self):
        oracles._transitions.cache_clear()
        first = p5_backward_induction(self.scenario([5.0, 3.0]), FAST2, bit_grid=7)
        # Another window of the same shape reuses all three entries.
        p5_backward_induction(self.scenario([5.0, 3.0], N_P=2), FAST2, bit_grid=7)
        assert oracles._transitions.cache_info().misses == 3
        other = self.scenario([5.0, 2.5])
        warm = p5_backward_induction(other, FAST2, bit_grid=7)
        # One task's grid is shared; the other grid and the product are new.
        assert oracles._transitions.cache_info().misses == 5
        assert warm.value != first.value
        value, demand = dense_induction(other, warm.bit_grids, warm.gain_values,
                                        warm.gain_weights, no_prefetch=False)
        assert warm.value == value
        assert all(np.array_equal(a, b) for a, b in zip(warm.demand_values, demand))
        oracles._transitions.cache_clear()
        same_induction(warm, p5_backward_induction(other, FAST2, bit_grid=7))

    def test_cached_arrays_are_read_only(self):
        grids = [np.linspace(0.0, 4.0, 5), np.linspace(0.0, 2.0, 5)]
        for array in oracles._transitions(3, *(grid.tobytes() for grid in grids)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1


class TestWavefront:
    """The backward steps run in blocks of whole state groups, bitwise unchanged."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("L", [1, 2])
    def test_small_blocks_match_the_dense_recursion(self, monkeypatch, L, m):
        # Blocks of a few dozen pairs cut every grid into many blocks, at
        # varied states; the dense reference knows nothing of blocks.
        rng = np.random.default_rng([L, m, 16])
        for bit_grid in (2, 3, 7, 11, 31):
            for gain_bins in (1, 4, 16):
                for no_prefetch in (False, True):
                    if L == 2 and bit_grid == 31 and (gain_bins != 16 or no_prefetch):
                        continue        # the dense reference is slow here
                    monkeypatch.setattr(oracles, "_BLOCK_PAIRS", int(rng.integers(20, 60)))
                    N = int(rng.integers(2, 7))
                    s = Scenario(m=m, N=N, N_P=int(rng.integers(1, N)),
                                 p=rng.dirichlet(np.ones(L)),
                                 gamma=rng.uniform(0.5, 10.0, L))
                    channel = FastGamma(int(rng.integers(2, 5))) if gain_bins > 1 \
                        else SlowFading(1.3)
                    result = p5_backward_induction(s, channel, bit_grid=bit_grid,
                                                   gain_bins=gain_bins)
                    value, demand = dense_induction(s, result.bit_grids, result.gain_values,
                                                    result.gain_weights, no_prefetch)
                    assert (no_prefetch_value(s, result) if no_prefetch
                            else result.value) == value
                    assert all(map(np.array_equal, result.demand_values, demand))

    @pytest.mark.parametrize("block", [1, 7, 37, 64, 4096])
    def test_blocks_hold_whole_groups(self, monkeypatch, block):
        monkeypatch.setattr(oracles, "_BLOCK_PAIRS", block)
        for sizes in ((2,), (31,), (3, 5), (11, 11), (31, 31)):
            grids = [np.linspace(0.0, 1.0 + t, n).tobytes() for t, n in enumerate(sizes)]
            cost, _, starts = oracles._transitions(2, *grids)
            bounds = oracles._block_bounds(starts, cost.size)
            assert bounds[0] == 0 and bounds[-1] == starts.size
            assert np.all(np.diff(bounds) > 0)
            ends = np.append(starts, cost.size)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                # Every group but the last starts within one block size of the
                # first, and each block reaches past the next multiple of it.
                assert starts[hi - 1] - starts[lo] < block
                assert ends[hi] // block > ends[lo] // block or hi == starts.size


class TestStayBoundPrune:
    """Dropping the pairs that cannot beat staying put changes no bit of the induction."""

    @staticmethod
    def counted(monkeypatch):
        """Count the pairs each block offers to the prune and the pairs it keeps."""
        prune, counts = oracles._stay_bound_prune, {"offered": 0, "kept": 0}

        def counting(cost, *args):
            kept = prune(cost, *args)
            counts["offered"] += cost.size
            counts["kept"] += kept[0].size
            return kept
        monkeypatch.setattr(oracles, "_stay_bound_prune", counting)
        return counts

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("L", [1, 2])
    def test_wide_bins_and_long_horizons_match_the_dense_recursion(self, monkeypatch, L, m):
        # 64 gain bins and up to 40 slots raise the margin of the stay bound
        # to its widest; small blocks put the states of one grid in many.
        counts = self.counted(monkeypatch)
        rng = np.random.default_rng([L, m, 19])
        for gain_bins, N, bit_grid in ((64, 6, 11), (16, 40, 5), (64, 24, 7)):
            if L == 1:
                bit_grid = 31
            monkeypatch.setattr(oracles, "_BLOCK_PAIRS", int(rng.integers(20, 300)))
            s = Scenario(m=m, N=N, N_P=int(rng.integers(N // 2, N)),
                         p=rng.dirichlet(np.ones(L)), gamma=rng.uniform(0.5, 10.0, L))
            result = p5_backward_induction(s, FastGamma(int(rng.integers(2, 5))),
                                           bit_grid=bit_grid, gain_bins=gain_bins)
            value, demand = dense_induction(s, result.bit_grids, result.gain_values,
                                            result.gain_weights, no_prefetch=False)
            assert result.value == value
            assert all(map(np.array_equal, result.demand_values, demand))
        assert counts["kept"] < counts["offered"]

    def test_infinite_terminal_values_keep_every_pair(self, monkeypatch):
        # A demand grid ends at +inf off its zero state, whose only pair is
        # the stay pair: the prune must keep every pair.
        counts = self.counted(monkeypatch)
        grid = np.linspace(0.0, 7.5, 31)
        gain_values, gain_weights = oracles._gain_support(FastGamma(3), 16)
        values = oracles._backward_steps((grid,), 3, np.where(grid > 0.0, np.inf, 0.0), 6,
                                         gain_values, gain_weights)
        assert counts["kept"] == counts["offered"] == grid.size * (grid.size + 1) // 2
        s = Scenario(m=3, N=7, N_P=1, p=np.array([1.0]), gamma=np.array([7.5]))
        _, demand = dense_induction(s, (grid,), gain_values, gain_weights, no_prefetch=True)
        assert np.array_equal(values, demand[0])

    def test_prunes_a_third_of_the_oracle_c8_pairs(self, monkeypatch):
        # The criterion-8 instance at N_P = 2, as the benchmark runs it: the
        # prune drops at least a third of the pairs, and the result equals
        # the one with nothing pruned, field for field.
        rng = np.random.default_rng(np.random.SeedSequence((1, 11, 0)))
        s = generate_scenario(rng, L=2, gamma_total=20.0, m=2, N=10, N_P=2)
        counts = self.counted(monkeypatch)
        pruned = p5_backward_induction(s, FAST2, bit_grid=31, gain_bins=16)
        assert counts["kept"] <= 2 * counts["offered"] / 3
        monkeypatch.setattr(oracles, "_stay_bound_prune",
                            lambda cost, following, local, *_: (cost, following, local))
        same_induction(pruned, p5_backward_induction(s, FAST2, bit_grid=31, gain_bins=16))


def kronecker_transitions(m, grids):
    """The feasible pairs as nonzeros of the Kronecker product of ``<=`` masks."""
    feasible = np.ones((1, 1), dtype=bool)
    for grid in grids:
        feasible = np.kron(feasible, grid[None, :] <= grid[:, None])
    state, following = np.nonzero(feasible)
    starts = np.searchsorted(state, np.arange(feasible.shape[0]))
    shape = tuple(grid.size for grid in grids)
    here = np.unravel_index(state, shape)
    there = np.unravel_index(following, shape)
    send = grids[0][here[0]] - grids[0][there[0]]
    for grid, a, b in zip(grids[1:], here[1:], there[1:]):
        send = send + grid[a] - grid[b]
    return send ** m, following, starts


class TestTransitionBuild:
    """The task-by-task build gives the Kronecker construction's arrays bitwise."""

    @pytest.mark.parametrize("grids", [
        [np.linspace(0.0, 5.0, 2)],
        [np.linspace(0.0, 5.0, 41)],
        [np.linspace(0.0, 5.0, 3), np.linspace(0.0, 3.3, 7)],
        [np.linspace(0.0, 0.1, 11), np.linspace(0.0, 7.9, 5)],
        [np.linspace(0.0, 5.0, 31), np.linspace(0.0, 3.3, 31)],
        [np.array([0.0, 1.0, 1.0, 2.5]), np.array([0.0, 0.0, 3.0])],   # tied points
        [np.linspace(0.0, 1.0, 3)] * 3,
    ], ids=["2", "41", "3x7", "11x5", "31x31", "ties", "3x3x3"])
    @pytest.mark.parametrize("m", [2, 5])
    def test_matches_the_kronecker_construction(self, grids, m):
        built = oracles._transitions.__wrapped__(m, *(grid.tobytes() for grid in grids))
        for mine, theirs in zip(built, kronecker_transitions(m, grids)):
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            assert np.array_equal(mine, theirs)


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


class UnknownChannel:
    """Neither channel model."""


@pytest.mark.parametrize("call, error", [
    (lambda: p5_backward_induction(S21, UnknownChannel()), TypeError),
    (lambda: oracles._check_residuals(np.ones(3), S21), ValueError),
    (lambda: oracles._check_residuals([[5.0, 3.0]], S21), ValueError),
    (lambda: slow_oracle(UNIFORM2, resolution=3.0), ValueError),
    (lambda: p5_backward_induction(S21, FAST2, gain_bins=True), ValueError),
], ids=["unknown-channel", "three-residuals", "row-of-residuals", "float-resolution",
        "bool-gain-bins"])
def test_input_checks(call, error):
    with pytest.raises(error):
        call()
