"""Constant-gain (slow-fading) prefetch optimization."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from livefetch import slow
from livefetch.model import Scenario
from livefetch.oracles import slow_oracle
from livefetch.slow import (
    PrefetchPlan,
    expected_fetch_energy_slow,
    gain_lower_bound,
    no_prefetch_energy_slow,
    optimal_prefetch_slow,
    prefetch_gain_slow,
    priorities,
    priority_order,
    slot_allocation_slow,
    total_prefetched_bits,
)

# The two-task reference instances used throughout this module.
UNIFORM2 = Scenario(m=2, N=2, N_P=1, p=np.array([0.5, 0.5]), gamma=np.array([4.0, 4.0]))
SKEWED2 = Scenario(m=2, N=2, N_P=1, p=np.array([0.9, 0.1]), gamma=np.array([4.0, 4.0]))


def random_scenario(rng, L_max=5, m_choices=(2, 3, 4), N_max=10):
    L = int(rng.integers(1, L_max + 1))
    N = int(rng.integers(2, N_max + 1))
    N_P = int(rng.integers(1, N))
    m = int(rng.choice(m_choices))
    p = rng.dirichlet(np.ones(L) * rng.uniform(0.5, 3.0))
    gamma = rng.uniform(0.5, 10.0, L)
    return Scenario(m=m, N=N, N_P=N_P, p=p, gamma=gamma)


class TestPriority:
    def test_direct_formula(self):
        s = Scenario(m=2, N=5, N_P=4, p=np.array([0.25, 0.75]), gamma=np.array([4.0, 1.0]))
        assert priorities(s)[0] == pytest.approx(1.0, abs=1e-12)

    def test_certainty_case(self):
        s = Scenario(m=2, N=5, N_P=4, p=np.array([1.0]), gamma=np.array([7.5]))
        assert priorities(s)[0] == pytest.approx(7.5, abs=1e-12)

    def test_cubic_order(self):
        s = Scenario(m=3, N=5, N_P=4, p=np.array([0.125, 0.875]), gamma=np.array([8.0, 1.0]))
        assert priorities(s)[0] == pytest.approx(8.0 * 0.125 ** 0.5, rel=1e-12)

    def test_order_sorts_descending_with_index_ties(self):
        s = Scenario(m=2, N=5, N_P=4, p=np.array([0.25, 0.25, 0.25, 0.25]),
                     gamma=np.array([5.0, 7.0, 5.0, 6.0]))
        assert priority_order(s) == [1, 3, 0, 2]


class TestTotalPrefetchedBits:
    def test_uniform_pair(self):
        assert total_prefetched_bits(UNIFORM2, {0, 1}) == pytest.approx(1.6, abs=1e-12)

    def test_skewed_singleton(self):
        expected = 4.0 / (1.0 + 1.0 / 0.9)
        assert total_prefetched_bits(SKEWED2, {0}) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.8947368421052628, rel=1e-9)

    def test_everything_prefetched_in_the_long_window_limit(self):
        s = Scenario(m=2, N=400, N_P=399, p=np.array([0.5, 0.5]), gamma=np.array([4.0, 4.0]))
        value = total_prefetched_bits(s, {0, 1})
        assert value == pytest.approx(8.0, rel=0.02)
        assert value < 8.0

    def test_no_demand_phase_rejected(self):
        s = Scenario(m=2, N=3, N_P=3, p=np.array([1.0]), gamma=np.array([2.0]))
        with pytest.raises(ValueError):
            total_prefetched_bits(s, {0})

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            total_prefetched_bits(UNIFORM2, set())

    @pytest.mark.parametrize("bad", [[1.7], [-0.5], ["1"], [True], "01", [np.float64(1.0)]],
                             ids=["float", "negative-float", "string", "bool", "str-set",
                                  "numpy-float"])
    def test_task_indices_must_be_integers(self, bad):
        # ``int`` would read 1.7, "1" and True as task 1, and truncate -0.5
        # to task 0 before the range check.
        with pytest.raises(ValueError, match="integers"):
            total_prefetched_bits(UNIFORM2, bad)

    def test_integer_task_indices(self):
        # numpy integers are integers; an integer out of range is an IndexError.
        assert total_prefetched_bits(UNIFORM2, np.array([1, 0, 1])) == \
            total_prefetched_bits(UNIFORM2, {0, 1})
        for bad in ([2], [-1], [np.int64(0), np.int64(2)]):
            with pytest.raises(IndexError):
                total_prefetched_bits(UNIFORM2, bad)


class TestOptimalPrefetch:
    def test_uniform_pair_plan(self):
        plan = optimal_prefetch_slow(UNIFORM2)
        np.testing.assert_allclose(plan.alpha, [0.8, 0.8], atol=1e-12)
        assert plan.task_set == frozenset({0, 1})
        assert plan.alpha_sigma == pytest.approx(1.6, abs=1e-12)

    def test_skewed_pair_excludes_low_priority_task(self):
        plan = optimal_prefetch_slow(SKEWED2)
        assert plan.task_set == frozenset({0})
        assert plan.alpha[0] == pytest.approx(1.8947368421052628, rel=1e-9)
        assert plan.alpha[1] == 0.0

    def test_full_prefetch_when_no_demand_phase(self):
        s = Scenario(m=3, N=4, N_P=4, p=np.array([0.3, 0.7]), gamma=np.array([2.0, 3.0]))
        plan = optimal_prefetch_slow(s)
        np.testing.assert_array_equal(plan.alpha, s.gamma)
        assert plan.task_set == frozenset({0, 1})

    def test_priority_prefix_property(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = random_scenario(rng)
            plan = optimal_prefetch_slow(s)
            order = priority_order(s)
            member_ranks = [order.index(t) for t in plan.task_set]
            if member_ranks:
                assert max(member_ranks) == len(member_ranks) - 1

    def test_kkt_stationarity(self):
        """Interior members equalize marginal prefetch and demand energies."""
        rng = np.random.default_rng(12)
        for _ in range(100):
            s = random_scenario(rng)
            if s.N == s.N_P:
                continue
            plan = optimal_prefetch_slow(s)
            lhs = s.m * plan.alpha_sigma ** (s.m - 1) / s.N_P ** (s.m - 1)
            for t in plan.task_set:
                rhs = (s.m * s.p[t] * (s.gamma[t] - plan.alpha[t]) ** (s.m - 1)
                       / (s.N - s.N_P) ** (s.m - 1))
                assert lhs == pytest.approx(rhs, rel=1e-7)

    def test_interior_amounts(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            s = random_scenario(rng)
            if s.N == s.N_P:
                continue
            plan = optimal_prefetch_slow(s)
            for t in plan.task_set:
                assert 0.0 < plan.alpha[t] < s.gamma[t]

    def test_total_shrinks_toward_zero_as_window_grows(self):
        totals = []
        for N in (3, 4, 6, 10, 20, 50, 200):
            s = Scenario(m=2, N=N, N_P=2, p=np.array([0.6, 0.4]), gamma=np.array([5.0, 3.0]))
            totals.append(optimal_prefetch_slow(s).alpha_sigma)
        assert all(a >= b for a, b in zip(totals, totals[1:]))
        assert totals[-1] < 0.1

    def test_fixed_point_consistency(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            s = random_scenario(rng)
            if s.N == s.N_P:
                continue
            plan = optimal_prefetch_slow(s)
            if plan.task_set:
                implied = total_prefetched_bits(s, plan.task_set)
                assert implied == pytest.approx(plan.alpha_sigma, abs=1e-9)

    def test_plan_does_not_depend_on_data_scale(self):
        # The plan is homogeneous of degree 1 in the data sizes and the gain
        # of degree 0, so membership may not compare bits to a fixed cutoff.
        s = Scenario(m=2, N=5, N_P=4, p=np.array([0.45, 0.35, 0.2]),
                     gamma=np.array([7.0, 6.0, 5.0]))
        plan = optimal_prefetch_slow(s)
        assert plan.task_set == {0, 1}
        for c in (1e-14, 1e10):
            scaled = Scenario(m=s.m, N=s.N, N_P=s.N_P, p=s.p, gamma=c * s.gamma)
            other = optimal_prefetch_slow(scaled)
            assert other.task_set == plan.task_set
            np.testing.assert_allclose(other.alpha / c, plan.alpha, rtol=1e-12, atol=0.0)
            assert prefetch_gain_slow(scaled) == pytest.approx(
                prefetch_gain_slow(s), rel=1e-12, abs=0.0)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), c=st.floats(1e-6, 1e6))
    def test_plans_scale_with_the_data(self, seed, c):
        s = random_scenario(np.random.default_rng(seed))
        plan = optimal_prefetch_slow(s)
        scaled = optimal_prefetch_slow(
            Scenario(m=s.m, N=s.N, N_P=s.N_P, p=s.p, gamma=c * s.gamma))
        assert scaled.task_set == plan.task_set
        np.testing.assert_allclose(scaled.alpha, c * plan.alpha, rtol=1e-12,
                                   atol=1e-12 * c * s.gamma_total)

    @pytest.mark.parametrize("alpha", [
        [2.0],                 # one amount for three tasks would broadcast
        [9.0, 0.0, 0.0],       # more than task 0's 7 bits
        [-1.0, 0.0, 0.0],
        [np.nan, 0.0, 0.0],
        [np.inf, 0.0, 0.0],
        [[1.0, 0.0, 0.0]],
    ])
    def test_plan_must_fit_its_scenario(self, alpha):
        s = Scenario(m=2, N=5, N_P=4, p=np.array([0.45, 0.35, 0.2]),
                     gamma=np.array([7.0, 6.0, 5.0]))
        with pytest.raises(ValueError):
            PrefetchPlan(scenario=s, alpha=np.array(alpha))

    @pytest.mark.parametrize("total", [-np.inf, np.inf, np.nan])
    def test_failed_amounts_are_a_numerical_failure(self, monkeypatch, total):
        # A plan built by the caller rejects bad amounts with ValueError; a
        # failed computation of the optimal amounts raises where it happens.
        monkeypatch.setattr(slow, "total_prefetched_bits", lambda s, members: total)
        s = Scenario(m=2, N=5, N_P=4, p=np.array([0.45, 0.35, 0.2]),
                     gamma=np.array([7.0, 6.0, 5.0]))
        with pytest.raises(FloatingPointError, match="not finite or lie outside"):
            optimal_prefetch_slow(s)

    def test_plan_keeps_amounts_on_the_box_edges(self):
        s = Scenario(m=2, N=5, N_P=4, p=np.array([0.45, 0.35, 0.2]),
                     gamma=np.array([7.0, 6.0, 5.0]))
        plan = PrefetchPlan(scenario=s, alpha=[7, 0, 5])
        np.testing.assert_array_equal(plan.alpha, [7.0, 0.0, 5.0])
        assert plan.alpha.dtype == float and plan.task_set == {0, 2}

    def test_task_set_is_exactly_the_positive_amounts(self):
        tiny = 1e-13
        plan = PrefetchPlan(scenario=SKEWED2, alpha=np.array([tiny, 0.0]))
        assert plan.task_set == {0}
        assert plan.alpha_sigma == tiny


class TestSlotAllocation:
    def test_reference_split(self):
        plan = optimal_prefetch_slow(UNIFORM2)
        loads = slot_allocation_slow(plan, realized=0)
        np.testing.assert_allclose(loads, [1.6, 3.2], atol=1e-12)

    def test_no_demand_phase(self):
        s = Scenario(m=2, N=2, N_P=2, p=np.array([0.5, 0.5]), gamma=np.array([4.0, 4.0]))
        plan = optimal_prefetch_slow(s)
        loads = slot_allocation_slow(plan, realized=1)
        np.testing.assert_allclose(loads, [4.0, 4.0], atol=1e-12)

    def test_fully_prefetched_task_has_empty_demand(self):
        s = Scenario(m=2, N=4, N_P=2, p=np.array([1.0]), gamma=np.array([6.0]))
        plan = PrefetchPlan(scenario=s, alpha=np.array([6.0]))
        loads = slot_allocation_slow(plan, realized=0)
        np.testing.assert_allclose(loads[2:], [0.0, 0.0], atol=1e-12)


class TestEnergies:
    def test_unfetched_bits_rejected_without_a_demand_phase(self):
        for c in (1.0, 1e-14):
            s = Scenario(m=2, N=3, N_P=3, p=np.array([0.5, 0.5]), gamma=c * np.array([4.0, 4.0]))
            short = PrefetchPlan(scenario=s, alpha=c * np.array([4.0, 2.0]))
            with pytest.raises(ValueError):
                expected_fetch_energy_slow(short)
            assert expected_fetch_energy_slow(optimal_prefetch_slow(s)) > 0.0

    def test_reference_objective(self):
        """The optimal two-task plan's stage energy, oracle-confirmed."""
        plan = optimal_prefetch_slow(UNIFORM2)
        energy = expected_fetch_energy_slow(plan)
        assert energy == pytest.approx(12.8, rel=1e-12)
        oracle = slow_oracle(UNIFORM2)
        assert oracle.objective == pytest.approx(12.8, rel=1e-6)

    def test_degenerate_plan_is_pure_demand(self):
        s = Scenario(m=2, N=5, N_P=4, p=np.array([0.5, 0.5]), gamma=np.array([4.0, 2.0]))
        plan = PrefetchPlan(scenario=s, alpha=np.zeros(2))
        assert expected_fetch_energy_slow(plan) == pytest.approx(
            no_prefetch_energy_slow(s), rel=1e-12)

    @pytest.mark.parametrize("errors", ["ignore", "warn", "raise"])
    def test_an_overflowing_prefetch_power_is_a_numerical_failure(self, errors):
        # A finite alpha_sigma whose m-th power overflows: the energy is a
        # FloatingPointError, not a bare OverflowError of a float power.
        s = Scenario(m=5, N=3, N_P=3, p=np.array([0.5, 0.5]), gamma=np.array([1e70, 1e70]))
        with np.errstate(all=errors), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(FloatingPointError):
                expected_fetch_energy_slow(optimal_prefetch_slow(s))

    def test_finite_energies_keep_their_float_power(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            s = random_scenario(rng, m_choices=(2, 3, 4, 5))
            plan = optimal_prefetch_slow(s)
            beta = s.gamma - plan.alpha
            demand = float(np.sum(s.p * beta ** s.m)) / (s.N - s.N_P) ** (s.m - 1)
            energy = expected_fetch_energy_slow(plan)
            assert type(energy) is float
            assert energy == plan.alpha_sigma ** s.m / s.N_P ** (s.m - 1) + demand


    def test_a_plan_is_scored_on_its_own_scenario(self):
        # The mirrored scenario holds the same tasks in reverse order, so a
        # plan of one, read against the other's indices, would cost 36.39.
        s = Scenario(m=2, N=5, N_P=4, p=np.array([0.45, 0.35, 0.2]),
                     gamma=np.array([7.0, 6.0, 5.0]))
        mirrored = Scenario(m=2, N=5, N_P=4, p=s.p[::-1], gamma=s.gamma[::-1])
        plans = [optimal_prefetch_slow(scenario) for scenario in (s, mirrored)]
        assert [plan.scenario for plan in plans] == [s, mirrored]
        for plan in plans:
            assert expected_fetch_energy_slow(plan) == pytest.approx(23.6136363636, rel=1e-10)
        np.testing.assert_array_equal(slot_allocation_slow(plans[0], realized=2),
                                      slot_allocation_slow(plans[1], realized=0))


class TestGain:
    def test_bound_reference_value(self):
        s = Scenario(m=2, N=5, N_P=4, p=np.full(4, 0.25), gamma=np.full(4, 5.0))
        assert gain_lower_bound(s) == pytest.approx(1.25, abs=1e-12)

    def test_single_candidate_bound(self):
        s = Scenario(m=3, N=5, N_P=3, p=np.array([1.0]), gamma=np.array([5.0]))
        assert gain_lower_bound(s) == pytest.approx((5.0 / 2.0) ** 2, rel=1e-12)

    def test_many_candidates_limit(self):
        L = 4000
        s = Scenario(m=2, N=5, N_P=4, p=np.full(L, 1.0 / L), gamma=np.full(L, 5.0))
        assert gain_lower_bound(s) == pytest.approx(1.0, abs=1e-2)

    def test_uniform_equality(self):
        for L, m in [(1, 2), (2, 2), (4, 2), (4, 3), (3, 5)]:
            s = Scenario(m=m, N=6, N_P=4, p=np.full(L, 1.0 / L), gamma=np.full(L, 20.0 / L))
            assert prefetch_gain_slow(s) == pytest.approx(
                gain_lower_bound(s), abs=1e-9)

    def test_gain_floor_with_uniform_sizes(self):
        # With equal task sizes the closed-form floor holds for any
        # probability vector: the no-prefetch energy is then independent of
        # how probability mass is spread across tasks.
        rng = np.random.default_rng(15)
        for _ in range(400):
            L = int(rng.integers(1, 6))
            N = int(rng.integers(2, 11))
            N_P = int(rng.integers(1, N))
            m = int(rng.choice([2, 3, 4]))
            p = rng.dirichlet(np.ones(L) * rng.uniform(0.5, 3.0))
            total = rng.uniform(2.0, 40.0)
            s = Scenario(m=m, N=N, N_P=N_P, p=p, gamma=np.full(L, total / L))
            assert prefetch_gain_slow(s) >= gain_lower_bound(s) - 1e-9

    def test_gain_floor_with_uniform_probabilities(self):
        # Symmetrically, equally likely tasks keep the floor valid for any
        # size vector.
        rng = np.random.default_rng(16)
        for _ in range(400):
            L = int(rng.integers(1, 6))
            N = int(rng.integers(2, 11))
            N_P = int(rng.integers(1, N))
            m = int(rng.choice([2, 3, 4]))
            gamma = rng.uniform(0.5, 10.0, L)
            s = Scenario(m=m, N=N, N_P=N_P, p=np.full(L, 1.0 / L), gamma=gamma)
            assert prefetch_gain_slow(s) >= gain_lower_bound(s) - 1e-9

    def test_gain_floor_counterexample_when_both_skewed(self):
        # The floor is not universal: concentrating probability on the small
        # task shrinks the no-prefetch reference energy, so a scenario skewed
        # in both probabilities and sizes can land below the closed form.
        # The plan itself is still optimal (checked against the brute-force
        # oracle), so the undershoot is a property of the floor's scope, not
        # an optimizer defect.
        s = Scenario(
            m=3, N=6, N_P=3,
            p=np.array([0.81293359, 0.18706641]),
            gamma=np.array([2.5196087, 7.11286551]),
        )
        gain = prefetch_gain_slow(s)
        assert gain < gain_lower_bound(s) - 1e-3
        plan = optimal_prefetch_slow(s)
        ours = expected_fetch_energy_slow(plan)
        oracle = slow_oracle(s)
        assert ours == pytest.approx(oracle.objective, rel=1e-6)
        assert ours <= oracle.grid_objective + 1e-12


class TestOracleEquivalence:
    def test_objective_matches_brute_force(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            s = random_scenario(rng, L_max=3)
            if s.N == s.N_P:
                continue
            plan = optimal_prefetch_slow(s)
            ours = expected_fetch_energy_slow(plan)
            oracle = slow_oracle(s)
            assert ours == pytest.approx(oracle.objective, rel=1e-6)
            assert ours <= oracle.grid_objective + 1e-12


NO_DEMAND2 = Scenario(m=2, N=2, N_P=2, p=np.array([0.5, 0.5]), gamma=np.array([4.0, 4.0]))


@pytest.mark.parametrize("call, error", [
    (lambda: slot_allocation_slow(optimal_prefetch_slow(UNIFORM2), 2), IndexError),
    (lambda: slot_allocation_slow(optimal_prefetch_slow(UNIFORM2), -1), IndexError),
    (lambda: slot_allocation_slow(optimal_prefetch_slow(UNIFORM2), True), ValueError),
    (lambda: slot_allocation_slow(optimal_prefetch_slow(UNIFORM2), 1.0), ValueError),
    (lambda: no_prefetch_energy_slow(NO_DEMAND2), ValueError),
    (lambda: gain_lower_bound(NO_DEMAND2), ValueError),
], ids=["task-past-L", "negative-task", "bool-task", "float-task", "no-prefetch-without-demand",
        "gain-bound-without-demand"])
def test_input_checks(call, error):
    with pytest.raises(error):
        call()
