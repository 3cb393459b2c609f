"""Fast-fading prefetch thresholds, set selection, and episode simulation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from livefetch.demand import build_xi_table, simulate_demand_batch
from livefetch.model import (
    POSITIVE_BITS_EPS,
    FastGamma,
    Scenario,
    SlowFading,
    sample_gain,
)
from livefetch.oracles import (
    best_prefix_set,
    decision_vector,
    noncausal_final_threshold,
    threshold_eta,
)
from livefetch import prefetch
from livefetch.prefetch import (
    PrefetchPolicy,
    build_prefix_tables,
    build_zeta_table,
    expected_total_energy_fast,
    no_prefetch_energy_fast,
    run_prefetch_batch,
)
from livefetch.slow import (
    PrefetchPlan,
    expected_fetch_energy_slow,
    no_prefetch_energy_slow,
    optimal_prefetch_slow,
    priorities,
    priority_order,
)
from livefetch.sweep import SweepConfig, generate_scenario, run_sweep

FAST2 = FastGamma(2)

# Three-task reference instance used by most episode-level tests.
S3 = Scenario(m=2, N=5, N_P=3, p=np.array([0.45, 0.35, 0.2]),
              gamma=np.array([7.0, 6.0, 5.0]))
XI3 = build_xi_table(FAST2, 2, 2)
TABLES3 = build_prefix_tables(S3, FAST2, XI3)

# Two-task single-prefetch-slot instance with the hand-computable threshold.
S2 = Scenario(m=2, N=2, N_P=1, p=np.array([0.5, 0.5]), gamma=np.array([4.0, 4.0]))
XI2 = build_xi_table(FAST2, 2, 1)
ZETA2 = build_zeta_table(S2, FAST2, (0, 1), XI2)

SET_POLICIES = (PrefetchPolicy.AGGRESSIVE, PrefetchPolicy.CONSERVATIVE,
                PrefetchPolicy.NONCAUSAL_ORACLE)


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


def draw_episodes(s, channel, rng, episodes):
    """Paired gains and realized tasks for ``episodes`` stages."""
    gains = sample_gain(channel, rng, (episodes, s.N))
    return gains, rng.choice(s.L, size=episodes, p=s.p)


def run_batch(s, policy, gains, realized=None, xi=XI3, tables=TABLES3):
    if realized is None:
        realized = np.zeros(gains.shape[0], dtype=int)
    return run_prefetch_batch(s, FAST2, policy, gains, realized, xi=xi,
                              prefix_tables=tables)


def locked_batch(s, channel, k, gains, realized, **tables):
    """The noncausal oracle's batch with each episode locked to the size-``k`` prefix.

    ``k`` is one size or one size per episode, and ``tables`` are
    ``run_prefetch_batch``'s ``xi`` and ``prefix_tables``.  The oracle runs
    with ``_Kernel.prefix_scores`` replaced by scores least at ``k``, so
    only the pick comes from the test: the slot loop, the demand phase and
    the result are the library's.  The scorer's blocks arrive in episode
    order, so the stub keeps a running offset into ``k``.
    """
    sizes = np.broadcast_to(k, (np.shape(gains)[0],))
    assert np.all((sizes >= 1) & (sizes <= s.L))
    offset = 0

    def scores(kernel):
        nonlocal offset
        block = sizes[offset:offset + kernel.gains.shape[0]]
        offset += block.size
        return (np.arange(1, s.L + 1)[:, None] != block).astype(float)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prefetch._Kernel, "prefix_scores", scores)
        result = run_prefetch_batch(s, channel, PrefetchPolicy.NONCAUSAL_ORACLE, gains,
                                    realized, **tables)
    assert offset == sizes.size
    return result


class TestZetaTable:
    def test_point_mass_hand_recursion(self):
        # Constant gain g=2, m=2, N=3, N_P=2, p=(1/2,1/2): the boundary root
        # is (1/xi_1)*sum(1/p) = 2*4 = 8, so zeta(2) = 1/(2+8) and
        # zeta(3) = 1/(2+10).
        s = Scenario(m=2, N=3, N_P=2, p=np.array([0.5, 0.5]),
                     gamma=np.array([4.0, 4.0]))
        channel = SlowFading(2.0)
        xi = build_xi_table(channel, 2, 1)
        table = build_zeta_table(s, channel, (0, 1), xi)
        assert table.first_index == 2
        assert table.last_index == 3
        assert table.value(2) == pytest.approx(0.1, rel=1e-12)
        assert table.value(3) == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert table.u(2) == pytest.approx(10.0, rel=1e-12)

    def test_certain_single_task_extends_demand_chain(self):
        # With one task of probability one the boundary mass is 1, so the
        # prefetch coefficients continue the demand recursion unchanged.
        s = Scenario(m=3, N=4, N_P=2, p=np.array([1.0]), gamma=np.array([5.0]))
        channel = FastGamma(3)
        xi = build_xi_table(channel, 3, 2)
        longer = build_xi_table(channel, 3, 4)
        table = build_zeta_table(s, channel, (0,), xi)
        assert table.value(3) == pytest.approx(longer.xi[3], rel=1e-12)
        assert table.value(4) == pytest.approx(longer.xi[4], rel=1e-12)

    def test_entries_positive_and_strictly_decreasing(self):
        for channel in (FAST2, FastGamma(4), SlowFading(1.3)):
            s = Scenario(m=2, N=6, N_P=3, p=np.array([0.5, 0.3, 0.2]),
                         gamma=np.array([4.0, 3.0, 2.0]))
            xi = build_xi_table(channel, 2, 3)
            table = build_zeta_table(s, channel, (0, 1, 2), xi)
            values = np.array(table.zeta)
            assert np.all(values > 0.0)
            assert np.all(np.isfinite(values))
            assert np.all(np.diff(values) < 0.0)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            ZETA2.value(ZETA2.first_index - 1)
        with pytest.raises(ValueError):
            ZETA2.u(ZETA2.last_index + 1)
        # A float index is rejected as an index, not a tuple's ``TypeError``.
        for lookup in (ZETA2.value, ZETA2.u):
            with pytest.raises(ValueError):
                lookup(float(ZETA2.last_index))

    def test_validation(self):
        with pytest.raises(ValueError):
            build_zeta_table(S3, FAST2, (), XI3)
        with pytest.raises(IndexError):
            build_zeta_table(S3, FAST2, (0, 3), XI3)
        # Task 1 is the integer 1, not 1.7, "1" or True.
        for bad in ([1.7], ["1"], [True], [-0.5]):
            with pytest.raises(ValueError, match="integers"):
                build_zeta_table(S3, FAST2, bad, XI3)
        assert build_zeta_table(S3, FAST2, np.array([1]), XI3).task_set == (1,)
        degenerate = Scenario(m=2, N=3, N_P=3, p=np.array([1.0]),
                              gamma=np.array([2.0]))
        with pytest.raises(ValueError):
            build_zeta_table(degenerate, FAST2, (0,), build_xi_table(FAST2, 2, 1))
        short_xi = build_xi_table(FAST2, 2, 1)
        with pytest.raises(ValueError):
            build_zeta_table(S3, FAST2, (0,), short_xi)
        wrong_m = build_xi_table(FAST2, 3, 2)
        with pytest.raises(ValueError):
            build_zeta_table(S3, FAST2, (0,), wrong_m)

    def test_prefix_tables_cover_all_sizes(self):
        assert [len(t.task_set) for t in TABLES3] == [1, 2, 3]
        order = priority_order(S3)
        for k, table in enumerate(TABLES3, start=1):
            assert table.task_set == tuple(sorted(order[:k]))


class TestThresholdEta:
    RHO2 = np.array([4.0, 4.0])

    def test_final_slot_reference_value(self):
        # Single prefetch slot, m=2, Gamma shape 2, both residuals 4, g=1:
        # 1/xi_1 = 1/2 and sum(1/p) = 4, so eta = 8*(1/2)/(1 + (1/2)*4) = 4/3.
        eta = threshold_eta(self.RHO2, 1, 1.0, ZETA2)
        assert eta == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert eta == pytest.approx(1.3333, abs=1e-4)

    def test_earlier_slot_uses_prefetch_coefficients(self):
        # Point-mass channel from the zeta hand recursion: at slot 1 of 2 the
        # continuation root is u(2) = 10, so eta = 8*10/((2+10)*4) = 5/3.
        s = Scenario(m=2, N=3, N_P=2, p=np.array([0.5, 0.5]),
                     gamma=np.array([4.0, 4.0]))
        channel = SlowFading(2.0)
        xi = build_xi_table(channel, 2, 1)
        table = build_zeta_table(s, channel, (0, 1), xi)
        eta = threshold_eta(self.RHO2, 1, 2.0, table)
        assert eta == pytest.approx(5.0 / 3.0, rel=1e-12)

    def test_large_gain_prefetches_everything(self):
        assert threshold_eta(self.RHO2, 1, 1e12, ZETA2) < 1e-9

    def test_small_gain_limit_at_final_slot(self):
        # g -> 0+ at the last prefetch slot: eta -> sum(rho)/sum(p**(-1/(m-1))).
        eta = threshold_eta(self.RHO2, 1, 1e-30, ZETA2)
        assert eta == pytest.approx(8.0 / 4.0, rel=1e-9)

    def test_validation(self):
        # A gain is a number: a bool is not read as 1, and a string is a
        # ValueError, not a bare TypeError.
        for bad in (0.0, -1.0, np.inf, np.nan, True, "1.0"):
            with pytest.raises(ValueError):
                threshold_eta(self.RHO2, 1, bad, ZETA2)
        assert threshold_eta(self.RHO2, 1, np.float32(2.0), ZETA2) == \
            threshold_eta(self.RHO2, 1, 2.0, ZETA2)
        with pytest.raises(ValueError):
            threshold_eta(self.RHO2, 2, 1.0, ZETA2)
        # A slot is an integer: a float is not read as one, nor a bool as 1.
        table = TABLES3[-1]
        for slot in (2.0, True):
            with pytest.raises(ValueError):
                threshold_eta(S3.gamma, slot, 1.0, table)
        for rho in ([-1.0, 4.0], [np.nan, 4.0], [4.0, np.inf]):
            with pytest.raises(ValueError):
                threshold_eta(np.array(rho), 1, 1.0, ZETA2)
        # A list is residual bits too: checked, not an ``AttributeError``.
        assert threshold_eta([4.0, 4.0], 1, 1.0, ZETA2) == threshold_eta(self.RHO2, 1, 1.0, ZETA2)
        for rho in ([-1.0, 4.0], [np.nan, 4.0], [4.0]):
            with pytest.raises(ValueError):
                threshold_eta(rho, 1, 1.0, ZETA2)


class TestDecisionVector:
    def test_zero_threshold_sends_all_residuals(self):
        s = Scenario(m=2, N=4, N_P=2, p=np.array([0.5, 0.3, 0.2]),
                     gamma=np.array([3.0, 1.0, 2.0]))
        bits = decision_vector(np.array([3.0, 1.0, 0.0]), 0.0, s)
        assert bits == pytest.approx([3.0, 1.0, 0.0])

    def test_threshold_above_every_ratio_sends_nothing(self):
        rho = np.array([3.0, 1.0])
        s = Scenario(m=2, N=4, N_P=2, p=np.array([0.5, 0.5]),
                     gamma=np.array([3.0, 1.0]))
        cap = float(np.max(rho * s.p)) + 1e-9
        assert decision_vector(rho, cap, s) == pytest.approx([0.0, 0.0])

    def test_reference_continuation(self):
        bits = decision_vector(np.array([4.0, 4.0]), 4.0 / 3.0, S2)
        assert bits == pytest.approx([4.0 / 3.0, 4.0 / 3.0], rel=1e-12)
        assert bits == pytest.approx([1.3333, 1.3333], abs=1e-4)

    def test_never_exceeds_residual(self):
        rng = np.random.default_rng(3)
        s = Scenario(m=3, N=5, N_P=2, p=np.array([0.6, 0.3, 0.1]),
                     gamma=np.array([5.0, 4.0, 3.0]))
        for _ in range(50):
            rho = rng.uniform(0.0, s.gamma)
            bits = decision_vector(rho, float(rng.uniform(0.0, 3.0)), s)
            assert np.all(bits >= 0.0)
            assert np.all(bits <= rho + 1e-12)

    def test_validation(self):
        for bad in (-0.5, np.nan, np.inf, True, "0.5"):
            with pytest.raises(ValueError):
                decision_vector(np.array([4.0, 4.0]), bad, S2)
        assert np.array_equal(decision_vector([4.0, 4.0], np.float32(0.5), S2),
                              decision_vector([4.0, 4.0], 0.5, S2))
        for rho in ([np.nan, 4.0], [4.0, np.inf], [-np.inf, 4.0]):
            with pytest.raises(ValueError):
                decision_vector(np.array(rho), 1.0, S2)
            with pytest.raises(ValueError):
                decision_vector(rho, 1.0, S2)
        with pytest.raises(ValueError):
            decision_vector([4.0, 4.0, 4.0], 1.0, S2)
        assert np.array_equal(decision_vector([4.0, 4], 0.5, S2),
                              decision_vector(np.array([4.0, 4.0]), 0.5, S2))

    @pytest.mark.parametrize("scale, residual, accepted", [
        (1e-14, -5e-13, False),     # -50x the task's data
        (1e-14, -5e-27, True),
        (1e10, -1e-5, True),        # 1e-15 of the task's data
        (1e10, -1e-1, False),
    ])
    def test_rounding_allowance_scales_with_the_data(self, scale, residual, accepted):
        # A residual may dip below zero by rounding relative to its task's
        # size, so the check accepts and rejects the same bits at any scale.
        s = Scenario(m=2, N=5, N_P=3, p=np.array([0.45, 0.35, 0.2]),
                     gamma=scale * np.array([3.0, 2.0, 1.0]))
        rho = np.array([3.0 * scale, 2.0 * scale, residual])
        zeta = build_zeta_table(s, FAST2, (0, 1, 2), XI3)
        calls = (lambda: decision_vector(rho, 0.0, s),
                 lambda: threshold_eta(rho, 1, 1.0, zeta))
        for call in calls:
            if accepted:
                call()
            else:
                with pytest.raises(ValueError, match="nonnegative"):
                    call()


    @pytest.mark.parametrize("scale", [1e-14, 1.0, 1e10])
    def test_residuals_above_the_data_size_are_rejected(self, scale):
        # A residual is what is left of a task's data, so it may exceed the
        # data size by rounding alone, relative to that size at any scale.
        s = generate_scenario(np.random.default_rng(0), L=3, gamma_total=scale,
                              m=2, N=5, N_P=3)
        zeta = build_zeta_table(s, FAST2, (0, 1, 2), XI3)
        for rho, accepted in ((s.gamma * (1.0 + 1e-13), True),
                              (s.gamma * (1.0 + 1e-9), False),
                              (np.full(3, 100.0 * scale), False)):
            calls = (lambda: decision_vector(rho, 0.0, s),
                     lambda: threshold_eta(rho, 1, 1.0, zeta))
            for call in calls:
                if accepted:
                    call()
                else:
                    with pytest.raises(ValueError, match="exceed"):
                        call()


class TestNoncausalFinalThreshold:
    def test_empty_cascade_is_the_exact_final_formula(self):
        rho = np.array([2.0, 1.5, 1.0])
        for g in (0.4, 1.0, 2.7):
            cascade = noncausal_final_threshold(rho, 3, [g], TABLES3[2])
            exact = threshold_eta(rho, 3, g, TABLES3[2])
            assert cascade == pytest.approx(exact, rel=1e-12)

    def test_zero_future_gains_match_conservative(self):
        # Damping factors with vanishing future gains collapse onto the
        # pessimistic estimator, which is the current slot's closed-form
        # threshold, for any target prefix.
        rho = np.array([6.5, 5.0, 4.5])
        for table in TABLES3:
            cons = threshold_eta(rho, 1, 1.3, table)
            cascade = noncausal_final_threshold(rho, 1, [1.3, 1e-300, 1e-300], table)
            assert cascade == pytest.approx(cons, rel=1e-9)

    def test_constant_gain_cascade_telescopes_to_aggressive(self):
        # On a constant-gain channel each continuation root grows by exactly
        # the gain root, so the damping product telescopes and the cascade
        # equals the optimistic estimator sum(rho) * u_xi / (u_g + u_z(N-1)).
        s = Scenario(m=3, N=6, N_P=3, p=np.array([0.5, 0.3, 0.2]),
                     gamma=np.array([6.0, 5.0, 4.0]))
        channel = SlowFading(1.7)
        xi = build_xi_table(channel, 3, 3)
        table = build_zeta_table(s, channel, (0, 1, 2), xi)
        rho = np.array([6.0, 5.0, 4.0])
        cascade = noncausal_final_threshold(rho, 1, [1.7, 1.7, 1.7], table)
        aggressive = (rho.sum() * xi.inv_root[s.N - s.N_P]
                      / (1.7 ** 0.5 + table.u(s.N - 1)))
        assert cascade == pytest.approx(aggressive, rel=1e-12)

    def test_validation(self):
        rho = np.array([2.0, 2.0, 2.0])
        with pytest.raises(ValueError):
            noncausal_final_threshold(rho, 2, [1.0], TABLES3[1])
        for gains in ([1.0, -1.0], [1.0, np.nan], [np.inf, 1.0], [1.0, np.inf]):
            with pytest.raises(ValueError):
                noncausal_final_threshold(rho, 2, gains, TABLES3[1])
        for bad in ([np.nan, 2.0, 2.0], [2.0, np.inf, 2.0]):
            with pytest.raises(ValueError):
                noncausal_final_threshold(np.array(bad), 2, [1.0, 1.0], TABLES3[1])
            with pytest.raises(ValueError):
                noncausal_final_threshold(bad, 2, [1.0, 1.0], TABLES3[1])
        with pytest.raises(ValueError):
            noncausal_final_threshold([2.0, 2.0], 2, [1.0, 1.0], TABLES3[1])
        assert (noncausal_final_threshold([2.0, 2.0, 2.0], 2, [1.0, 1.0], TABLES3[1])
                == noncausal_final_threshold(rho, 2, [1.0, 1.0], TABLES3[1]))


class TestPhaseTotal:
    """The decision vector at full residuals and the final threshold: the phase's bits."""

    def test_zero_threshold_prefetches_everything(self):
        assert decision_vector(S3.gamma, 0.0, S3) == pytest.approx(S3.gamma)

    def test_huge_threshold_prefetches_nothing(self):
        assert decision_vector(S3.gamma, 1e9, S3) == pytest.approx([0.0] * 3)

    def test_reference_value(self):
        s = Scenario(m=2, N=3, N_P=1, p=np.array([0.9, 0.1]),
                     gamma=np.array([4.0, 4.0]))
        alpha = decision_vector(s.gamma, 1.0, s)
        assert alpha == pytest.approx([4.0 - 1.0 / 0.9, 0.0], abs=1e-12)
        assert alpha[0] == pytest.approx(2.8889, abs=1e-4)

    def test_validation(self):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                decision_vector(S3.gamma, bad, S3)


# One-prefetch-slot instance: no future estimation is involved.
S1 = Scenario(m=2, N=3, N_P=1, p=np.array([0.6, 0.3, 0.1]),
              gamma=np.array([5.0, 6.0, 2.0]))
XI1 = build_xi_table(FAST2, 2, 2)
TABLES1 = build_prefix_tables(S1, FAST2, XI1)
CAUSAL = (PrefetchPolicy.AGGRESSIVE, PrefetchPolicy.CONSERVATIVE)


class TestEstimateThreshold:
    def test_both_estimators_exact_at_final_slot(self):
        # Both causal estimates reduce to the exact final-slot threshold, so
        # in a one-slot window the two causal policies coincide exactly.
        rng = np.random.default_rng(5)
        gains, realized = draw_episodes(S1, FAST2, rng, 100)
        aggr, cons = (run_batch(S1, policy, gains, realized, xi=XI1, tables=TABLES1)
                      for policy in CAUSAL)
        assert np.array_equal(aggr.slot_set_size, cons.slot_set_size)
        assert np.array_equal(aggr.thresholds, cons.thresholds)
        assert np.array_equal(aggr.decisions, cons.decisions)
        assert np.array_equal(aggr.total_energy, cons.total_energy)


class TestApproximateTaskSet:
    def test_single_candidate_always_selected(self):
        s = Scenario(m=2, N=3, N_P=1, p=np.array([1.0]), gamma=np.array([5.0]))
        xi = build_xi_table(FAST2, 2, 2)
        gains = sample_gain(FAST2, np.random.default_rng(4), (20, s.N))
        for kind in CAUSAL:
            result = run_batch(s, kind, gains, xi=xi, tables=None)
            assert np.all(result.slot_set_size == 1)
            assert np.all(result.set_size == 1)

    def test_single_slot_window_matches_exact_thresholding(self):
        # With one prefetch slot no future estimation is involved, so the
        # causal growth must reproduce the count fixed point of the exact
        # threshold formula.
        s = S1
        w = s.p ** (-1.0 / (s.m - 1))
        rng = np.random.default_rng(7)
        gains = sample_gain(FAST2, rng, (100, s.N))
        expected = np.full(100, s.L)
        for i in range(100):
            for k in range(1, s.L + 1):
                eta = threshold_eta(s.gamma, 1, float(gains[i, 0]), TABLES1[k - 1])
                if int(np.count_nonzero(s.gamma - eta * w > POSITIVE_BITS_EPS)) == k:
                    expected[i] = k
                    break
        for kind in CAUSAL:
            result = run_batch(s, kind, gains, xi=XI1, tables=TABLES1)
            assert np.array_equal(result.slot_set_size[:, 0], expected)

    def test_returns_priority_prefixes_only(self):
        # Bits only ever go to the priority prefix of the slot's set size.
        rng = np.random.default_rng(8)
        gains, realized = draw_episodes(S3, FAST2, rng, 50)
        rank = np.argsort(priority_order(S3))
        for kind in CAUSAL:
            result = run_batch(S3, kind, gains, realized)
            sizes = result.slot_set_size
            assert np.all((sizes >= 1) & (sizes <= S3.L))
            outside = rank[None, None, :] >= sizes[:, :, None]
            assert np.all(result.decisions[outside] == 0.0)

    def test_rare_task_never_admitted_before_likelier_ones(self):
        s = Scenario(m=2, N=5, N_P=2, p=np.array([0.69, 0.3, 0.01]),
                     gamma=np.array([5.0, 5.0, 5.0]))
        xi = build_xi_table(FAST2, 2, 3)
        tables = build_prefix_tables(s, FAST2, xi)
        delta = priorities(s)
        order = priority_order(s)
        gains = sample_gain(FAST2, np.random.default_rng(9), (50, s.N))
        for kind in CAUSAL:
            result = run_batch(s, kind, gains, xi=xi, tables=tables)
            for size in np.unique(result.slot_set_size):
                working = set(order[:size])
                if 2 in working:
                    assert all(i in working for i in range(3) if delta[i] > delta[2])

    def test_never_shrinks_below_previous_positive_count(self):
        rng = np.random.default_rng(10)
        gains, realized = draw_episodes(S3, FAST2, rng, 200)
        for kind in CAUSAL:
            result = run_batch(S3, kind, gains, realized)
            positive = np.count_nonzero(result.decisions > POSITIVE_BITS_EPS, axis=2)
            assert np.all(result.slot_set_size[:, 1:] >= positive[:, :-1])


class TestSelectNoncausalSet:
    def test_single_candidate(self):
        s = Scenario(m=2, N=3, N_P=1, p=np.array([1.0]), gamma=np.array([5.0]))
        xi = build_xi_table(FAST2, 2, 2)
        result = run_batch(s, PrefetchPolicy.NONCAUSAL_ORACLE, np.ones((1, s.N)),
                           xi=xi, tables=None)
        assert result.set_size.tolist() == [1]

    def test_selection_minimizes_locked_prefix_score(self):
        # Independent scoring: lock each prefix with the batch runner, take
        # its realized prefetch energy, and add the expected demand cost of
        # the residuals.  The selected size must attain the minimum.
        rng = np.random.default_rng(10)
        d = S3.N - S3.N_P
        for _ in range(50):
            gains = sample_gain(FAST2, rng, (1, S3.N))
            scores = []
            for k in (1, 2, 3):
                result = locked_batch(S3, FAST2, k, gains, np.array([0]), xi=XI3,
                                      prefix_tables=TABLES3)
                demand = float(np.sum(S3.p * result.final_rho[0] ** S3.m))
                scores.append(float(result.prefetch_energy[0])
                              + XI3.xi[d] * demand)
            chosen = run_prefetch_batch(S3, FAST2, PrefetchPolicy.NONCAUSAL_ORACLE,
                                        gains, np.array([0]), xi=XI3,
                                        prefix_tables=TABLES3).set_size[0]
            assert scores[chosen - 1] <= min(scores) + 1e-12

    def test_exact_score_tie_goes_to_the_smaller_prefix(self):
        # With one prefetch slot, a prefix whose extra task gets no bits
        # executes exactly like the prefix without it: the scores tie bit for
        # bit, and the oracle must keep the smaller set.
        s = Scenario(m=2, N=3, N_P=1, p=np.array([0.5, 0.45, 0.05]),
                     gamma=np.array([6.0, 5.0, 0.2]))
        xi = build_xi_table(FAST2, 2, 2)
        tables = build_prefix_tables(s, FAST2, xi)
        gains, realized = draw_episodes(s, FAST2, np.random.default_rng(1), 500)
        two, three = (locked_batch(s, FAST2, k, gains, realized, xi=xi, prefix_tables=tables)
                      for k in (2, 3))
        assert np.array_equal(two.prefetch_energy, three.prefetch_energy)
        assert np.array_equal(two.final_rho, three.final_rho)
        result = run_batch(s, PrefetchPolicy.NONCAUSAL_ORACLE, gains, realized, xi=xi,
                           tables=tables)
        positive = np.count_nonzero(result.decisions[:, -1] > 0.0, axis=1)
        assert np.array_equal(result.set_size, positive)
        assert set(np.unique(result.set_size)) == {1, 2}

    def test_one_batch_matches_separate_locked_runs(self):
        # The oracle scores every prefix in closed form; scoring each locked
        # run separately from its energy and residuals must give the same
        # first argmin wherever the two best scores are not a near tie.
        rng = np.random.default_rng(11)
        wide = generate_scenario(rng, L=16, gamma_total=20.0, m=3, N=10, N_P=6)
        for s in (S3, wide):
            xi = build_xi_table(FAST2, s.m, s.N - s.N_P)
            tables = build_prefix_tables(s, FAST2, xi)
            gains, realized = draw_episodes(s, FAST2, rng, 400)
            weight = xi.xi[s.N - s.N_P]
            runs = [locked_batch(s, FAST2, k, gains, realized, xi=xi, prefix_tables=tables)
                    for k in range(1, s.L + 1)]
            scores = np.array([run.prefetch_energy
                               + weight * (s.p * run.final_rho ** s.m).sum(axis=1)
                               for run in runs])
            oracle = run_prefetch_batch(s, FAST2, PrefetchPolicy.NONCAUSAL_ORACLE, gains,
                                        realized, xi=xi, prefix_tables=tables)
            best, runner_up = np.sort(scores, axis=0)[:2]
            clear = runner_up - best > 1e-12 * best
            assert np.count_nonzero(clear) > 0.9 * clear.size
            first = np.argmin(scores, axis=0)
            assert np.array_equal(oracle.set_size[clear], first[clear] + 1)
            # The oracle's records are the locked run of the prefix it keeps.
            episodes = np.arange(gains.shape[0])
            kept = oracle.set_size - 1
            np.testing.assert_allclose(
                oracle.prefetch_energy,
                np.array([run.prefetch_energy for run in runs])[kept, episodes],
                rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(
                oracle.final_rho, np.array([run.final_rho for run in runs])[kept, episodes],
                rtol=1e-12, atol=0.0)

    #: Relative bound between a prefix's closed-form score and the score of
    #: its run through the slot loop (at most 5.2e-15 measured over 90,000
    #: episodes, L 1-64, m 2-5).
    SCORE_RTOL = 1e-14

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(L=st.integers(1, 64), m=st.integers(2, 5), shape=st.sampled_from([2, 3, 8]),
           window=st.integers(3, 10).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(2, n - 1))),
           uniform=st.booleans(), gamma_total=st.sampled_from([1e-6, 1.0, 20.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_closed_form_scores_match_the_locked_runs(self, L, m, shape, window, uniform,
                                                      gamma_total, seed):
        # Each prefix's closed-form score is the score of its locked run
        # through the slot loop, its realized prefetch energy plus the
        # expected demand energy of the residuals.  The oracle keeps the
        # first minimum of the closed forms, which is the loop's first
        # minimum wherever the two best loop scores are not a near tie, and
        # its records are the locked run of the prefix it keeps.
        N, N_P = window
        rng = np.random.default_rng(seed)
        s = generate_scenario(rng, L=L, gamma_total=gamma_total, m=m, N=N, N_P=N_P,
                              uniform=uniform)
        channel = FastGamma(shape)
        xi = build_xi_table(channel, m, N - N_P)
        tables = build_prefix_tables(s, channel, xi)
        gains, realized = draw_episodes(s, channel, rng, 40)
        kernel = prefetch._kernel(s, xi, tables, gains)
        runs = [locked_batch(s, channel, k, gains, realized, xi=xi, prefix_tables=tables)
                for k in range(1, L + 1)]
        loop = []
        for k, run in enumerate(runs, start=1):
            level = run.thresholds[:, -1]
            c = np.minimum(k, kernel.above(level))
            loop.append(run.prefetch_energy
                        + kernel.demand_weight * (level ** m * kernel.cum_w[c] + kernel.tail[c]))
        loop = np.array(loop)
        np.testing.assert_allclose(kernel.prefix_scores(), loop, rtol=self.SCORE_RTOL, atol=0.0)
        oracle = run_prefetch_batch(s, channel, PrefetchPolicy.NONCAUSAL_ORACLE, gains, realized,
                                    xi=xi, prefix_tables=tables)
        kept = oracle.set_size
        episodes = np.arange(gains.shape[0])
        best, runner_up = np.sort(loop, axis=0)[:2] if L > 1 else (loop[0], np.inf)
        clear = runner_up - best > 2.0 * self.SCORE_RTOL * runner_up
        assert np.array_equal(kept[clear], np.argmin(loop, axis=0)[clear] + 1)
        assert np.all(loop[kept - 1, episodes] <= best * (1.0 + 2.0 * self.SCORE_RTOL))
        for name in TestEpisodeBlocks.FIELDS:
            locked = np.array([getattr(run, name) for run in runs])[kept - 1, episodes]
            assert np.array_equal(getattr(oracle, name), locked), name

    def test_gain_count_validation(self):
        for gains in (np.ones((1, S3.N - 1)), np.array([[1.0, 1.0, -2.0, 1.0, 1.0]])):
            with pytest.raises(ValueError):
                run_batch(S3, PrefetchPolicy.NONCAUSAL_ORACLE, gains)


class TestSetEnergy:
    def test_empty_set_is_pure_demand(self):
        expected = float(np.sum(S3.p * S3.gamma ** S3.m)) * XI3.xi[2]
        assert no_prefetch_energy_fast(S3, XI3) == pytest.approx(expected, rel=1e-12)

    def test_full_set_single_candidate(self):
        s = Scenario(m=2, N=4, N_P=2, p=np.array([1.0]), gamma=np.array([6.0]))
        xi = build_xi_table(FAST2, 2, 2)
        table = build_zeta_table(s, FAST2, (0,), xi)
        assert expected_total_energy_fast(table) == pytest.approx(
            36.0 * table.value(4), rel=1e-12)

    @pytest.mark.parametrize("energy", [
        lambda s, xi: no_prefetch_energy_slow(s),
        lambda s, xi: no_prefetch_energy_fast(s, xi),
        lambda s, xi: expected_fetch_energy_slow(PrefetchPlan(s, np.zeros(s.L))),
        lambda s, xi: expected_total_energy_fast(build_prefix_tables(s, FAST2, xi)[0]),
        lambda s, xi: best_prefix_set(s, FAST2, xi),
    ], ids=["no-prefetch-slow", "no-prefetch-fast", "slow-plan", "locked-set", "best-prefix"])
    def test_an_overflowing_energy_is_a_numerical_failure(self, energy):
        # Scenario accepts data sizes whose powers overflow.  Numpy only
        # warns, so each closed form raises where it computes the energy,
        # neither returning inf nor raising a bare OverflowError.
        s = Scenario(m=2, N=10, N_P=8, p=np.array([0.5, 0.3, 0.2]), gamma=np.full(3, 1e308))
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="not finite"):
            energy(s, build_xi_table(FAST2, s.m, s.N - s.N_P))

    def test_validation(self):
        # The no-prefetch energy reads xi at N - N_P slots to go.
        for xi in (build_xi_table(FAST2, 3, 2), build_xi_table(FAST2, 2, 1)):
            with pytest.raises(ValueError):
                no_prefetch_energy_fast(S3, xi)

    def test_exhaustive_search_confirms_prefix_restriction(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = rng.dirichlet(np.ones(3))
            gamma = rng.uniform(1.0, 8.0, 3)
            s = Scenario(m=2, N=5, N_P=2, p=p, gamma=gamma)
            xi = build_xi_table(FAST2, 2, 3)
            prefix_set, prefix_energy, _ = best_prefix_set(s, FAST2, xi)
            full_set, full_energy = frozenset(), no_prefetch_energy_fast(s, xi)
            for mask in range(1, 1 << s.L):
                members = tuple(i for i in range(s.L) if mask >> i & 1)
                energy = expected_total_energy_fast(build_zeta_table(s, FAST2, members, xi))
                if energy < full_energy:
                    full_set, full_energy = frozenset(members), energy
            assert full_energy == pytest.approx(prefix_energy, rel=1e-12)
            assert full_set == prefix_set

    def test_prefix_scan_equals_the_single_set_tables(self):
        # ``best_prefix_set`` scores the prefix tables of one coefficient
        # chain; a table per prefix, built alone, gives the same result bit
        # for bit (the scan it replaced).
        rng = np.random.default_rng(12)
        for _ in range(60):
            L, m, N = int(rng.integers(1, 17)), int(rng.integers(2, 6)), int(rng.integers(2, 11))
            s = generate_scenario(rng, L=L, gamma_total=10.0 ** rng.uniform(-3, 4), m=m, N=N,
                                  N_P=int(rng.integers(1, N)), uniform=bool(rng.random() < 0.2))
            channel = FastGamma(int(rng.integers(2, 7)))
            xi = build_xi_table(channel, m, s.N - s.N_P)
            best = (frozenset(), no_prefetch_energy_fast(s, xi), None)
            for k in range(1, L + 1):
                table = build_zeta_table(s, channel, priority_order(s)[:k], xi)
                energy = expected_total_energy_fast(table)
                if energy < best[1]:
                    best = (frozenset(table.task_set), energy, table)
            got = best_prefix_set(s, channel, xi)
            assert got[:2] == best[:2]
            if best[2] is not None:
                assert (got[2].task_set, got[2].zeta, got[2].inv_root) == \
                    (best[2].task_set, best[2].zeta, best[2].inv_root)
            else:
                assert got[2] is None

    def test_monte_carlo_matches_formula_for_converged_set(self):
        # Lock the episode runner to the modal revealed-gain selection; the
        # closed form is exact for such a self-consistent target set, so the
        # Monte-Carlo mean must agree within sampling noise.
        rng = np.random.default_rng(2024)
        probe = sample_gain(FAST2, rng, (20_000, S3.N))
        probe_realized = rng.choice(S3.L, size=20_000, p=S3.p)
        probe_result = run_prefetch_batch(S3, FAST2,
                                          PrefetchPolicy.NONCAUSAL_ORACLE,
                                          probe, probe_realized, xi=XI3,
                                          prefix_tables=TABLES3)
        modal_k = int(np.bincount(probe_result.set_size).argmax())
        episodes = 100_000
        gains = sample_gain(FAST2, rng, (episodes, S3.N))
        realized = rng.choice(S3.L, size=episodes, p=S3.p)
        result = locked_batch(S3, FAST2, modal_k, gains, realized, xi=XI3,
                              prefix_tables=TABLES3)
        total = result.total_energy
        mean = float(total.mean())
        se = float(total.std(ddof=1)) / np.sqrt(episodes)
        formula = expected_total_energy_fast(TABLES3[modal_k - 1])
        assert abs(mean - formula) <= 3.0 * se


class TestEpisodeRunner:
    def test_no_prefetch_reduces_to_pure_demand(self):
        rng = np.random.default_rng(12)
        gains = sample_gain(FAST2, rng, (1, S3.N))
        result = run_batch(S3, PrefetchPolicy.NO_PREFETCH, gains, np.array([1]))
        assert result.prefetch_energy[0] == 0.0
        assert np.all(result.decisions == 0.0)
        assert np.all(result.thresholds == 0.0)
        assert np.all(result.slot_set_size == 0)
        _, replay = simulate_demand_batch(S3.gamma[1:2], gains[:, S3.N_P:], XI3)
        assert result.demand_energy[0] == pytest.approx(replay[0].sum(), rel=1e-12)
        assert result.total_energy[0] == pytest.approx(replay[0].sum(), rel=1e-12)

    def test_bit_conservation_and_nonnegative_residuals(self):
        rng = np.random.default_rng(13)
        gains, realized = draw_episodes(S3, FAST2, rng, 30)
        rows = np.arange(30)
        for policy in SET_POLICIES:
            result = run_batch(S3, policy, gains, realized)
            alpha = result.decisions.sum(axis=1)
            assert alpha == pytest.approx(S3.gamma - result.final_rho)
            assert np.all(alpha <= S3.gamma + 1e-9)
            assert np.all(result.final_rho >= -1e-9)
            assert result.beta == pytest.approx(result.final_rho[rows, realized])
            demand, _ = simulate_demand_batch(result.beta, gains[:, S3.N_P:], XI3)
            fetched = alpha[rows, realized] + demand.sum(axis=1)
            np.testing.assert_allclose(fetched, S3.gamma[realized], rtol=0.0, atol=1e-9)

    def test_status_identity_after_positive_decisions(self):
        # Whenever a task receives bits, its residual is pulled exactly onto
        # the threshold times its probability weight.
        rng = np.random.default_rng(14)
        w = S3.p ** (-1.0 / (S3.m - 1))
        gains, realized = draw_episodes(S3, FAST2, rng, 30)
        for policy in SET_POLICIES:
            result = run_batch(S3, policy, gains, realized)
            rho = np.tile(S3.gamma, (30, 1))
            for n in range(S3.N_P):
                rho = rho - result.decisions[:, n]
                positive = result.decisions[:, n] > POSITIVE_BITS_EPS
                target = result.thresholds[:, n, None] * w[None, :]
                assert rho[positive] == pytest.approx(target[positive], abs=1e-9)

    def test_locked_prefix_masks_outside_tasks(self):
        rng = np.random.default_rng(15)
        gains, realized = draw_episodes(S3, FAST2, rng, 20)
        result = locked_batch(S3, FAST2, 1, gains, realized, xi=XI3, prefix_tables=TABLES3)
        assert priority_order(S3)[0] == 0
        assert np.all(result.decisions[:, :, 1:] == 0.0)
        assert np.all(result.slot_set_size == 1)

    def test_noncausal_thresholds_strictly_decrease_and_cap(self):
        rng = np.random.default_rng(16)
        gains, realized = draw_episodes(S3, FAST2, rng, 300)
        th = run_batch(S3, PrefetchPolicy.NONCAUSAL_ORACLE, gains, realized).thresholds
        assert np.all(th[:, 1:] < th[:, :-1] + 1e-9)
        assert np.all(th[:, 0] < float(priorities(S3).max()) + 1e-9)
        assert np.all(th > 0.0)

    def test_final_slot_decision_minimizes_stage_objective(self):
        # Coordinate-descent check of the executed final-slot split: sending
        # the bits chosen by the runner must (locally and, by convexity,
        # globally) minimize transmit-now-plus-demand-later cost over the
        # working set.
        rng = np.random.default_rng(17)
        d = S3.N - S3.N_P
        order = priority_order(S3)
        gains, realized = draw_episodes(S3, FAST2, rng, 5)
        for policy in SET_POLICIES:
            result = run_batch(S3, policy, gains, realized)
            decisions = result.decisions
            for i in range(5):
                members = sorted(order[:result.slot_set_size[i, -1]])
                rho = S3.gamma - decisions[i, :-1].sum(axis=0)
                g = float(gains[i, S3.N_P - 1])

                def objective(bits):
                    remain = rho[members] - bits
                    demand = float(np.sum(
                        S3.p[members] * remain ** S3.m)) * XI3.xi[d]
                    return float(bits.sum()) ** S3.m / g + demand

                executed = decisions[i, -1][members]
                best = executed.copy()
                for _ in range(60):
                    for j in range(len(members)):
                        def line(x, j=j):
                            trial = best.copy()
                            trial[j] = x
                            return objective(trial)
                        best[j] = golden_min(line, 0.0, float(rho[members[j]]))
                assert objective(executed) <= objective(best) * (1.0 + 1e-5)

    def test_paired_policy_ordering(self):
        rng = np.random.default_rng(18)
        episodes = 20_000
        gains, realized = draw_episodes(S3, FAST2, rng, episodes)
        totals = {}
        for policy in PrefetchPolicy:
            result = run_prefetch_batch(S3, FAST2, policy, gains, realized,
                                        xi=XI3, prefix_tables=TABLES3)
            totals[policy] = result.total_energy
        oracle = totals[PrefetchPolicy.NONCAUSAL_ORACLE]
        for other in (PrefetchPolicy.AGGRESSIVE, PrefetchPolicy.CONSERVATIVE,
                      PrefetchPolicy.NO_PREFETCH):
            diff = totals[other] - oracle
            se = float(diff.std(ddof=1)) / np.sqrt(episodes)
            assert float(diff.mean()) >= -3.0 * se

    @pytest.mark.parametrize("policy", PrefetchPolicy)
    def test_policy_given_by_its_value(self, policy):
        gains, realized = draw_episodes(S3, FAST2, np.random.default_rng(19), 200)
        by_enum, by_value = (run_prefetch_batch(S3, FAST2, given, gains, realized, xi=XI3,
                                                prefix_tables=TABLES3)
                             for given in (policy, policy.value))
        assert by_value.policy is policy
        assert np.array_equal(by_value.set_size, by_enum.set_size)
        assert np.array_equal(by_value.total_energy, by_enum.total_energy)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_prefetch_batch(S3, FAST2, PrefetchPolicy.AGGRESSIVE,
                               np.ones((1, 3)), np.array([0]), xi=XI3)
        with pytest.raises(ValueError):
            run_prefetch_batch(S3, FAST2, "bogus", np.ones((1, S3.N)), np.array([0]),
                               xi=XI3)
        with pytest.raises(IndexError):
            run_prefetch_batch(S3, FAST2, PrefetchPolicy.AGGRESSIVE,
                               np.ones((1, S3.N)), np.array([7]), xi=XI3)
        degenerate = Scenario(m=2, N=3, N_P=3, p=np.array([1.0]),
                              gamma=np.array([2.0]))
        with pytest.raises(ValueError):
            run_prefetch_batch(degenerate, FAST2, PrefetchPolicy.AGGRESSIVE,
                               np.ones((1, 3)), np.array([0]))

    @pytest.mark.parametrize("policy", PrefetchPolicy)
    def test_nan_prefetch_gain_rejected(self, policy):
        gains = np.ones((2, S3.N))
        gains[1, S3.N_P - 1] = np.nan
        with pytest.raises(ValueError):
            run_prefetch_batch(S3, FAST2, policy, gains, np.array([0, 1]), xi=XI3,
                               prefix_tables=TABLES3)

    @pytest.mark.parametrize("slot", [S3.N_P - 1, S3.N_P], ids=["prefetch", "demand"])
    @pytest.mark.parametrize("policy", PrefetchPolicy)
    def test_infinite_gain_rejected(self, policy, slot):
        gains = np.ones((2, S3.N))
        gains[1, slot] = np.inf
        with pytest.raises(ValueError, match="gains"):
            run_prefetch_batch(S3, FAST2, policy, gains, np.array([0, 1]), xi=XI3,
                               prefix_tables=TABLES3)

    @pytest.mark.parametrize("policy", PrefetchPolicy)
    def test_empty_batch(self, policy):
        batch = run_prefetch_batch(S3, FAST2, policy, np.empty((0, S3.N)),
                                   np.empty(0, dtype=int), xi=XI3, prefix_tables=TABLES3)
        assert batch.total_energy.shape == (0,)
        assert batch.final_rho.shape == (0, S3.L)


class TestTableOwnership:
    """Tables carry what they were built from, and a table of another build is an error."""

    GAINS, REALIZED = draw_episodes(S3, FAST2, np.random.default_rng(40), 10)

    def run(self, policy, s=S3, channel=FAST2, **tables):
        return run_prefetch_batch(s, channel, policy, self.GAINS, self.REALIZED, **tables)

    def test_zeta_table_carries_its_build(self):
        assert ZETA2.scenario is S2 and ZETA2.xi is XI2
        assert (ZETA2.first_index, ZETA2.last_index) == (S2.N - S2.N_P + 1, S2.N)
        assert all(table.scenario is S3 and table.xi is XI3 for table in TABLES3)

    @pytest.mark.parametrize("xi", [build_xi_table(FAST2, 3, 2),
                                    build_xi_table(FastGamma(8), 2, 2)], ids=["m3", "k8"])
    @pytest.mark.parametrize("policy", PrefetchPolicy)
    def test_xi_of_another_m_or_channel(self, policy, xi):
        for tables in (None, TABLES3):
            with pytest.raises(ValueError):
                self.run(policy, xi=xi, prefix_tables=tables)

    @pytest.mark.parametrize("policy", PrefetchPolicy)
    def test_prefix_tables_of_another_scenario_or_channel(self, policy):
        twin = Scenario(m=S3.m, N=S3.N, N_P=S3.N_P, p=S3.p, gamma=S3.gamma)
        other = Scenario(m=S3.m, N=S3.N, N_P=S3.N_P, p=S3.p, gamma=S3.gamma[::-1])
        for s in (twin, other):
            with pytest.raises(ValueError):
                self.run(policy, s=s, xi=XI3, prefix_tables=TABLES3)
        fast8 = FastGamma(8)
        xi8 = build_xi_table(fast8, S3.m, 2)
        for channel, xi, tables in ((FAST2, XI3, build_prefix_tables(S3, fast8, xi8)),
                                    (FAST2, None, build_prefix_tables(S3, fast8, xi8)),
                                    (fast8, xi8, TABLES3)):
            with pytest.raises(ValueError):
                self.run(policy, channel=channel, xi=xi, prefix_tables=tables)

    @pytest.mark.parametrize("policy", PrefetchPolicy)
    def test_xi_and_prefix_tables_disagree(self, policy):
        longer = build_xi_table(FAST2, S3.m, 4)
        for xi, tables in ((longer, TABLES3), (XI3, build_prefix_tables(S3, FAST2, longer))):
            with pytest.raises(ValueError):
                self.run(policy, xi=xi, prefix_tables=tables)

    @pytest.mark.parametrize("policy", PrefetchPolicy)
    def test_prefix_tables_must_be_the_priority_prefixes(self, policy):
        singles = [build_zeta_table(S3, FAST2, (i,), XI3) for i in range(S3.L)]
        for tables in (TABLES3[:2], TABLES3[::-1], singles):
            with pytest.raises(ValueError):
                self.run(policy, xi=XI3, prefix_tables=tables)

    def test_matching_tables_of_a_longer_xi(self):
        longer = build_xi_table(FAST2, S3.m, 4)
        given = self.run(PrefetchPolicy.AGGRESSIVE, xi=longer,
                         prefix_tables=build_prefix_tables(S3, FAST2, longer))
        built = self.run(PrefetchPolicy.AGGRESSIVE, xi=longer)
        assert np.array_equal(given.total_energy, built.total_energy)


class TestBatchRunner:
    def test_locked_prefix_matches_closed_forms(self):
        # On episodes where every member of the locked prefix receives bits
        # in every slot, the executed thresholds, decisions and phase totals
        # are the paper's closed forms.
        cases = ((S3, FAST2),
                 (Scenario(m=3, N=6, N_P=2, p=np.array([0.7, 0.3]),
                           gamma=np.array([8.0, 3.0])), FastGamma(3)))
        multi_member = 0
        for s, channel in cases:
            xi = build_xi_table(channel, s.m, s.N - s.N_P)
            tables = build_prefix_tables(s, channel, xi)
            order = priority_order(s)
            gains, realized = draw_episodes(s, channel, np.random.default_rng(20), 400)
            checked = 0
            for k in range(1, s.L + 1):
                members = sorted(order[:k])
                outside = sorted(order[k:])
                result = locked_batch(s, channel, k, gains, realized, xi=xi,
                                      prefix_tables=tables)
                decisions = result.decisions
                active = np.all(decisions[:, :, members] > POSITIVE_BITS_EPS, axis=(1, 2))
                checked += np.count_nonzero(active)
                multi_member += np.count_nonzero(active) if k > 1 else 0
                for i in np.flatnonzero(active):
                    rho = s.gamma.copy()
                    for n in range(1, s.N_P + 1):
                        g = float(gains[i, n - 1])
                        eta = threshold_eta(rho, n, g, tables[k - 1])
                        assert result.thresholds[i, n - 1] == pytest.approx(eta, rel=1e-12)
                        bits = decisions[i, n - 1]
                        expected = decision_vector(rho, eta, s)
                        assert bits[members] == pytest.approx(expected[members],
                                                              rel=1e-12)
                        assert np.all(bits[outside] == 0.0)
                        rho = rho - bits
                    eta_final = noncausal_final_threshold(s.gamma, 1, gains[i, :s.N_P],
                                                          tables[k - 1])
                    assert result.thresholds[i, -1] == pytest.approx(eta_final, rel=1e-12)
                    alpha = decision_vector(s.gamma, eta_final, s)
                    sent = s.gamma - result.final_rho[i]
                    assert sent[members] == pytest.approx(alpha[members], rel=1e-12)
            assert checked > 0
        assert multi_member > 0

    def test_validation(self):
        rng = np.random.default_rng(21)
        gains = sample_gain(FAST2, rng, (10, S3.N))
        realized = rng.choice(S3.L, size=10, p=S3.p)
        with pytest.raises(ValueError):
            run_prefetch_batch(S3, FAST2, PrefetchPolicy.AGGRESSIVE,
                               gains[:, :3], realized, xi=XI3)
        with pytest.raises(ValueError):
            run_prefetch_batch(S3, FAST2, PrefetchPolicy.AGGRESSIVE, gains,
                               realized[:5], xi=XI3)
        with pytest.raises(ValueError):
            run_prefetch_batch(S3, FAST2, PrefetchPolicy.AGGRESSIVE,
                               -np.abs(gains), realized, xi=XI3)
        with pytest.raises(IndexError):
            run_prefetch_batch(S3, FAST2, PrefetchPolicy.AGGRESSIVE, gains,
                               realized + 10, xi=XI3)

    def test_task_indices_must_be_whole_numbers(self):
        gains, realized = draw_episodes(S3, FAST2, np.random.default_rng(23), 10)
        # A bool array would run task 1 for True, and numpy's ``floor``
        # raises TypeError on strings and objects.
        for bad in (realized + 0.5, np.where(realized == 0, 0.7, realized),
                    np.full(10, np.nan), realized == 1, realized.astype(str),
                    realized.astype(object)):
            with pytest.raises(ValueError, match="whole numbers"):
                run_prefetch_batch(S3, FAST2, "aggressive", gains, bad, xi=XI3)
        whole = run_prefetch_batch(S3, FAST2, "aggressive", gains, realized.astype(float),
                                   xi=XI3)
        exact = run_prefetch_batch(S3, FAST2, "aggressive", gains, realized, xi=XI3)
        assert whole.realized.dtype == exact.realized.dtype
        assert np.array_equal(whole.realized, realized)
        assert np.array_equal(whole.total_energy, exact.total_energy)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, -1.0])
    def test_failed_residuals_are_a_numerical_failure(self, monkeypatch, bad):
        # The demand phase's check on its caller's residuals raises
        # ValueError; residuals the library computed raise where computed.
        # The rule holds the check, so it runs here on a broken water level
        # that holds every task: NaN, -inf and negative levels leave NaN,
        # -inf and negative bits (a NaN level compares false, so it does not
        # read as nothing prefetched).
        gains, realized = draw_episodes(S3, FAST2, np.random.default_rng(19), 10)
        computed = prefetch._residuals

        def broken(s, level, size, task):
            return computed(s, np.full(np.shape(level), bad), s.L, task)
        monkeypatch.setattr(prefetch, "_residuals", broken)
        with pytest.raises(FloatingPointError, match="residual bits"):
            run_prefetch_batch(S3, FAST2, "aggressive", gains, realized, xi=XI3,
                               prefix_tables=TABLES3)
        with pytest.raises(ValueError, match="residual bits"):
            simulate_demand_batch(np.full(gains.shape[0], bad), gains[:, S3.N_P:], XI3)

    @pytest.mark.parametrize("gamma", [[1e308] * 3, [1e200, 1e100, 1.0]],
                             ids=["nan-thresholds", "infinite-energies"])
    @pytest.mark.parametrize("policy", PrefetchPolicy)
    def test_non_finite_thresholds_and_energies_are_a_numerical_failure(self, gamma, policy):
        # The first data sizes overflow the prefix totals, so every threshold
        # comes out NaN; the second leave finite thresholds but overflow
        # every energy.  Numpy only warns, so the batch raises.
        s = Scenario(m=2, N=10, N_P=8, p=np.array([0.5, 0.3, 0.2]), gamma=np.array(gamma))
        gains = sample_gain(FAST2, np.random.default_rng(5), (5, s.N))
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="not finite"):
            run_prefetch_batch(s, FAST2, policy, gains, np.array([0, 1, 2, 0, 1]))


@pytest.mark.parametrize("d", range(1, 10))
def test_demand_energy_is_the_slot_ordered_sum(d):
    # The running sum adds the slots in cumsum's order; from eight slots on,
    # numpy's pairwise ``sum`` over contiguous rows groups them differently.
    rng = np.random.default_rng(d + 70)
    s = generate_scenario(rng, L=3, gamma_total=20.0, m=int(rng.integers(2, 6)),
                          N=d + 3, N_P=3)
    xi = build_xi_table(FAST2, s.m, d)
    gains, realized = draw_episodes(s, FAST2, rng, 500)
    for policy in PrefetchPolicy:
        result = run_prefetch_batch(s, FAST2, policy, gains, realized, xi=xi)
        _, energy = simulate_demand_batch(result.beta, gains[:, s.N_P:], xi)
        assert result.demand_energy.tobytes() == np.cumsum(energy, axis=1)[:, -1].tobytes()


def dense_first_reached(kernel, level, bound, n, k):
    """Slot solve by scanning every prefix size: the search's reference.

    Builds the residual matrix and its prefix sums, forms every size's
    candidate threshold and takes the first that reaches the next member's
    ratio (or the set size ``k``).  Returns the active counts, thresholds,
    sent bits and the ``(E, L)`` candidates.
    """
    s = kernel.s
    rows = np.arange(level.size)
    rho = prefetch._residuals(s, level[:, None], bound[:, None], priority_order(s))
    cum_rho = np.concatenate([np.zeros((rows.size, 1)), np.cumsum(rho, axis=1)], axis=1)
    u_g = kernel.u_gain[:, n - 1]
    if n == s.N_P:
        candidates = cum_rho[:, 1:] / (kernel.cum_w[1:] + (u_g / kernel.u_xi)[:, None])
    else:
        total = cum_rho[rows, k] * u_g / (u_g + kernel.u_zeta[k - 1, n - 1])
        candidates = (cum_rho[:, 1:] - total[:, None]) / kernel.cum_w[1:]
    following = np.minimum(kernel.delta[1:], level[:, None])
    reached = (candidates >= following) | (np.arange(1, s.L + 1) >= k[:, None])
    active = np.argmax(reached, axis=1) + 1
    eta = np.maximum(candidates[rows, active - 1], 0.0)
    sent = cum_rho[rows, active] - eta * kernel.cum_w[active]
    return active, eta, sent, candidates


class TestSlotSearch:
    TOL = 1e-12

    def check(self, s, channel, rng, episodes=200):
        """Compare the step with the dense scan on random states.

        Returns how far above ``max(c, 1)`` each state's first reached
        prefix lies, so that callers can check that the search's brackets
        were wide.  Every state has ``k >= max(c, 1)``, as every state of
        the slot loop does (``TestStepInvariant``).
        """
        xi = build_xi_table(channel, s.m, s.N - s.N_P)
        tables = build_prefix_tables(s, channel, xi)
        gains = sample_gain(channel, rng, (episodes, s.N))
        kernel = prefetch._kernel(s, xi, tables, gains)
        delta = kernel.delta[:-1]
        gaps = []
        for n in range(1, s.N_P + 1):
            # Arbitrary states: any level from zero to above the top
            # priority, levels equal to a priority, any bound, and any set
            # size of at least max(c, 1).
            level = rng.uniform(0.0, 1.2 * delta[0], episodes)
            level[rng.random(episodes) < 0.15] = 0.0
            on_priority = rng.random(episodes) < 0.15
            level[on_priority] = rng.choice(delta, np.count_nonzero(on_priority))
            bound = rng.integers(0, s.L + 1, episodes)
            c = np.minimum(bound, kernel.above(level))
            k = rng.integers(np.maximum(c, 1), s.L + 1)
            clamp = kernel.clamp(level, c)
            load = kernel.total_and_spare(kernel.totals(clamp, k), n, k)
            active, eta, sent = kernel.step(level, c, clamp, k, *load)
            ref_active, ref_eta, ref_sent, candidates = dense_first_reached(
                kernel, level, bound, n, k)
            gaps.append(active - np.maximum(c, 1))
            rows = np.arange(episodes)
            moved = active != ref_active
            np.testing.assert_allclose(candidates[rows, active - 1][moved],
                                       candidates[rows, ref_active - 1][moved],
                                       rtol=self.TOL, atol=0.0)
            np.testing.assert_allclose(eta, ref_eta, rtol=self.TOL, atol=0.0)
            # Both codes send ``R - eta * W``, a difference of the active
            # prefix's held bits ``R``, so the sent bits agree relative to
            # ``R``, and the slot energies ``sent**m / g`` as far as
            # the mean value theorem carries that error.
            rho = prefetch._residuals(s, level[:, None], bound[:, None], priority_order(s))
            held = rho.cumsum(axis=1)[rows, active - 1]
            gap = self.TOL * held
            assert np.all(np.abs(sent - ref_sent) <= gap)
            scale = 1.0 / gains[:, n - 1]
            slope = s.m * np.maximum(sent, ref_sent) ** (s.m - 1)
            assert np.all(np.abs(scale * sent ** s.m - scale * ref_sent ** s.m)
                          <= scale * slope * gap)
        return np.concatenate(gaps)

    def test_matches_the_dense_scan_on_random_instances(self):
        rng = np.random.default_rng(30)
        for _ in range(40):
            L, m = int(rng.integers(1, 17)), int(rng.integers(2, 6))
            N = int(rng.integers(2, 11))
            s = generate_scenario(rng, L=L, gamma_total=20.0, m=m, N=N,
                                  N_P=int(rng.integers(1, N)))
            self.check(s, FastGamma(int(rng.choice([2, 3, 8]))), rng)

    def test_equal_priorities(self):
        rng = np.random.default_rng(31)
        for s in (Scenario(m=2, N=6, N_P=4, p=np.full(5, 0.2), gamma=np.full(5, 3.0)),
                  Scenario(m=3, N=8, N_P=5, p=np.array([0.3, 0.3, 0.2, 0.2]),
                           gamma=np.array([5.0, 5.0, 2.0, 2.0]))):
            assert len(set(priorities(s))) < s.L
            self.check(s, FAST2, rng)


    @pytest.mark.parametrize("L", [31, 64, 128, 256])
    def test_matches_the_dense_scan_at_wide_L(self, L):
        # Uniform scenarios tie every priority, so the first reached prefix
        # spreads over the whole range above the clamped count and the
        # search's brackets are at their widest.
        rng = np.random.default_rng(L)
        for uniform in (False, True):
            gaps = np.concatenate([
                self.check(generate_scenario(rng, L=L, gamma_total=10.0 ** rng.uniform(-3, 4),
                                             m=m, N=10, N_P=8, uniform=uniform),
                           FastGamma(int(rng.choice([2, 3, 8]))), rng)
                for m in range(2, 6)])
            assert np.count_nonzero(gaps >= 3) >= 20
        assert gaps.max() >= L // 2


class TestStepInvariant:
    """Every slot step the batch runs has ``k >= max(c, 1)``.

    ``_Kernel.step`` and ``_Kernel.totals`` read the clamped share
    ``level * cum_w[c]`` of ``_Kernel.clamp``, which gives a prefix total
    only at sizes of at least ``c``; ``_Kernel.phase`` proves the bound,
    and this records the ``(c, k)`` of every call.
    """

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(L=st.integers(1, 64), m=st.integers(2, 5), shape=st.integers(2, 8),
           N_P=st.integers(1, 8), demand=st.integers(1, 3), uniform=st.booleans(),
           gamma_total=st.sampled_from([1e-2, 20.0, 1e3]),
           policy=st.sampled_from(PrefetchPolicy), data=st.data(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_every_step_reads_sizes_of_at_least_the_clamped_count(
            self, L, m, shape, N_P, demand, uniform, gamma_total, policy, data, seed):
        locked = None
        if policy is PrefetchPolicy.NONCAUSAL_ORACLE:
            locked = data.draw(st.none() | st.integers(1, L), label="locked prefix")
        rng = np.random.default_rng(seed)
        s = generate_scenario(rng, L=L, gamma_total=gamma_total, m=m, N=N_P + demand,
                              N_P=N_P, uniform=uniform)
        channel = FastGamma(shape)
        gains, realized = draw_episodes(s, channel, rng, 60)
        calls, step = [], prefetch._Kernel.step

        def recorded(kernel, level, c, clamp, k, total, spare):
            calls.append((c, np.broadcast_to(k, np.shape(c))))
            return step(kernel, level, c, clamp, k, total, spare)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(prefetch._Kernel, "step", recorded)
            if locked is None:
                run_prefetch_batch(s, channel, policy, gains, realized)
            else:
                locked_batch(s, channel, locked, gains, realized)
        # A step per slot, and the scorer's one step (60 episodes are one block).
        scored = policy is PrefetchPolicy.NONCAUSAL_ORACLE and locked is None
        assert len(calls) == (0 if policy is PrefetchPolicy.NO_PREFETCH else N_P + scored)
        for c, k in calls:
            assert np.all(k >= np.maximum(c, 1))


def argmax_set_rule(kernel, estimate, positive):
    """The causal set rule on ``(E, L)`` estimates by ``argmax``: the least admitting size.

    Size ``j`` admits when ``delta[j-1] > estimate[:, j-1] >= delta[j]``
    and ``j >= positive``; an episode with no such size gets ``L``.
    """
    rows = np.arange(estimate.shape[0])
    sizes = np.arange(1, kernel.s.L + 1)
    match = ((kernel.delta[:-1] > estimate) & (kernel.delta[1:] <= estimate)
             & (sizes >= positive[:, None]))
    first = np.argmax(match, axis=1)
    return np.where(match[rows, first], first + 1, kernel.s.L)


def set_rule_estimates(kernel, policy, clamp, n):
    """Every size's causal estimate, ``(L, E)``: the block that ``_Kernel.regrown`` scans.

    The residual totals of :meth:`_Kernel.totals` in the clamped state
    ``clamp`` at sizes ``1..L`` and the estimates formed from them with
    the arithmetic of ``regrown``, one column of sizes against a row of
    episodes.
    """
    s, u_xi, mass = kernel.s, kernel.u_xi, kernel.cum_w[1:, None]
    u_g = kernel.u_gain[:, n - 1]
    residual = kernel.totals(clamp, np.arange(1, s.L + 1)[:, None])
    if n == s.N_P:
        return residual * u_xi / (u_g + u_xi * mass)
    u_z = kernel.u_zeta[:, n - 1, None]
    if policy is PrefetchPolicy.AGGRESSIVE:
        return residual * u_xi / (u_g + u_z)
    return residual * u_z / ((u_g + u_z) * mass)


def reference_set_rule(kernel, policy, c, clamp, n):
    """``regrown``'s reference: the causal set rule as a minimum over the ``(L, E)`` block."""
    return argmax_set_rule(kernel, set_rule_estimates(kernel, policy, clamp, n).T, c)


def regrown_size(kernel, policy, level, c, n):
    """``_Kernel.regrown``'s size in the state ``(level, c)``, after checking its residual total.

    The rule returns the residual total it read at the size it picks; it
    must be :meth:`_Kernel.totals` at that size, bit for bit.
    """
    clamp = kernel.clamp(level, c)
    k, held = kernel.regrown(policy, c, clamp, n)
    assert np.array_equal(held, kernel.totals(clamp, k))
    return k


def set_rule_kernel(s, rng, episodes):
    """A kernel of ``s`` with its prefix tables and ``episodes`` random gains."""
    xi = build_xi_table(FAST2, s.m, s.N - s.N_P)
    return prefetch._kernel(s, xi, build_prefix_tables(s, FAST2, xi),
                            sample_gain(FAST2, rng, (episodes, s.N)))


#: Scenarios of the set-rule tests: one and two tasks, tied priorities, all
#: priorities tied, and a random one.
SET_RULE_SCENARIOS = {
    "L1": Scenario(m=2, N=4, N_P=2, p=np.array([1.0]), gamma=np.array([3.0])),
    "L2": Scenario(m=3, N=4, N_P=2, p=np.array([0.7, 0.3]), gamma=np.array([1.0, 2.0])),
    "tied": Scenario(m=3, N=8, N_P=5, p=np.array([0.3, 0.3, 0.2, 0.2]),
                     gamma=np.array([5.0, 5.0, 2.0, 2.0])),
    "uniform": generate_scenario(np.random.default_rng(0), L=16, gamma_total=20.0, m=2,
                                 N=10, N_P=8, uniform=True),
    "random": generate_scenario(np.random.default_rng(1), L=64, gamma_total=20.0, m=3,
                                N=10, N_P=8),
}


class TestSetRule:
    """The set rule's two comparisons pick the size the searched count picks.

    ``_Kernel.regrown`` tests ``delta[j-1] > eta_hat >= delta[j]``; the
    reference counts the priorities above each estimate
    (``_Kernel.above``).  Both read the same priority table, so each
    state swaps in a table that puts one size's estimate on a priority,
    on the next one, or between them.
    """

    @staticmethod
    def priority_table(rng, estimate, j, at):
        """Non-increasing priorities, then ``-inf``, with the size-``j`` estimate at ``at``.

        ``at`` is ``j`` (the estimate ``estimate[j-1]`` on the next
        priority), ``j - 1`` (on its own) or ``None`` (between them); the
        other priorities lie above and below it at random.
        """
        L = estimate.size
        value = estimate[j - 1]
        above = j if at is None else at
        high = np.sort(value + rng.uniform(1e-3, 1.0, above) * (1.0 + value))[::-1]
        low = np.sort(rng.uniform(0.0, value, L - above - (at is not None)))[::-1]
        table = np.concatenate([high, [value] if at is not None else [], low, [-np.inf]])
        assert table.size == L + 1 and np.all(np.diff(table) <= 0.0)
        return table

    @pytest.mark.parametrize("name", SET_RULE_SCENARIOS)
    def test_comparisons_equal_the_searched_count(self, name):
        s = SET_RULE_SCENARIOS[name]
        rng = np.random.default_rng(len(name))
        kernel = set_rule_kernel(s, rng, 40)
        picks = []
        for n in range(1, s.N_P + 1):
            for policy in CAUSAL:
                for e in range(kernel.gains.shape[0]):
                    one = replace(kernel, gains=kernel.gains[e:e + 1],
                                  u_gain=kernel.u_gain[e:e + 1])
                    level = rng.uniform(0.0, 1.2 * kernel.delta[:1])
                    c = rng.integers(0, s.L + 1, 1)
                    estimate = set_rule_estimates(one, policy, one.clamp(level, c), n)[:, 0]
                    j = int(rng.integers(max(c[0], 1), s.L + 1))
                    at = rng.choice([j - 1, None] + ([j] if j < s.L else []))
                    delta = self.priority_table(rng, estimate, j, at)
                    swapped = replace(one, delta=delta, falling=-delta[:-1])
                    counted = swapped.above(estimate) == np.arange(1, s.L + 1)
                    admitting = np.flatnonzero(counted[max(c[0], 1) - 1:]) + max(c[0], 1)
                    want = admitting[0] if admitting.size else s.L
                    got = regrown_size(swapped, policy, level, c, n)
                    assert got.tolist() == [want]
                    picks.append((at == j, at == j - 1 and j < s.L, want == j))
        # The swapped tables pick the size whose estimate sits on the next
        # priority and, below the full set, pass over the one whose estimate
        # sits on its own.
        picks = np.array(picks)
        assert s.L == 1 or np.any(picks[:, 0] & picks[:, 2])
        assert s.L == 1 or np.any(picks[:, 1] & ~picks[:, 2])


class TestLeastAdmitting:
    """``_Kernel.regrown``'s scan picks the least admitting size of the whole ``(L, E)`` block."""

    @staticmethod
    def states(kernel, rng, episodes):
        """Levels at zero, on a priority and anywhere up to above the top; every floor ``0..L``."""
        delta = kernel.delta[:-1]
        level = rng.uniform(0.0, 1.2 * delta[0], episodes)
        kind = rng.random(episodes)
        level[kind < 0.15] = 0.0
        on_priority = kind > 0.85
        level[on_priority] = rng.choice(delta, np.count_nonzero(on_priority))
        c = np.resize(np.arange(kernel.s.L + 1), episodes)
        rng.shuffle(c)
        return level, c

    @pytest.mark.parametrize("name", ["1", "2", "4", "8", "64", "tied", "uniform"])
    def test_random_states(self, name):
        rng = np.random.default_rng(len(name) + 500)
        if name in SET_RULE_SCENARIOS:
            s = SET_RULE_SCENARIOS[name]
        else:
            s = generate_scenario(rng, L=int(name), gamma_total=20.0,
                                  m=int(rng.integers(2, 6)), N=10, N_P=8)
        kernel = set_rule_kernel(s, rng, 2000)
        lifted = none_admit = False
        for n in range(1, s.N_P + 1):
            for policy in CAUSAL:
                level, c = self.states(kernel, rng, 2000)
                k = regrown_size(kernel, policy, level, c, n)
                clamp = kernel.clamp(level, c)
                assert np.array_equal(k, reference_set_rule(kernel, policy, c, clamp, n))
                estimate = set_rule_estimates(kernel, policy, clamp, n).T
                admits = kernel.above(estimate) == np.arange(1, s.L + 1)
                floored = admits & (np.arange(1, s.L + 1) >= c[:, None])
                none_admit |= np.any(~floored.any(axis=1))
                lifted |= np.any(admits.any(axis=1) & (np.argmax(admits, axis=1) + 1 < k))
        # The states hold episodes that no size admits and, from two tasks
        # on, episodes whose floor skips a smaller admitting size.
        assert none_admit
        assert s.L == 1 or name == "uniform" or lifted

    @pytest.mark.parametrize("policy", CAUSAL)
    @pytest.mark.parametrize("L", [1, 2, 4, 8, 64])
    def test_causal_batches(self, monkeypatch, policy, L):
        rng = np.random.default_rng(L + 600)
        s = generate_scenario(rng, L=L, gamma_total=20.0, m=int(rng.integers(2, 6)),
                              N=10, N_P=8)
        rule, seen, floors = prefetch._Kernel.regrown, [], []

        def checked(kernel, policy, c, clamp, n):
            k, held = rule(kernel, policy, c, clamp, n)
            assert np.array_equal(k, reference_set_rule(kernel, policy, c, clamp, n))
            assert np.array_equal(held, kernel.totals(clamp, k))
            seen.append(k)
            floors.append(c)
            return k, held
        monkeypatch.setattr(prefetch._Kernel, "regrown", checked)
        gains, realized = draw_episodes(s, FAST2, rng, 400)
        batch = run_prefetch_batch(s, FAST2, policy, gains, realized)
        # One call per slot, on the whole batch.
        assert [k.size for k in seen] == [gains.shape[0]] * s.N_P
        assert np.array_equal(np.stack(seen, axis=1), batch.slot_set_size)
        # Each slot's floor is the number of tasks that got bits in the
        # previous slot (none before the first), not the previous set size.
        sent = np.count_nonzero(batch.decisions > 0.0, axis=2)
        assert np.array_equal(np.stack(floors, axis=1), np.pad(sent[:, :-1], ((0, 0), (1, 0))))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(L=st.integers(1, 64), m=st.integers(2, 5), shape=st.integers(2, 8),
           N_P=st.integers(1, 8), demand=st.integers(1, 3), uniform=st.booleans(),
           gamma_total=st.sampled_from([1e-2, 20.0, 1e3]), policy=st.sampled_from(CAUSAL),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_every_call_equals_the_block_rule(self, L, m, shape, N_P, demand, uniform,
                                              gamma_total, policy, seed):
        # The ranges of TestStepInvariant.
        rng = np.random.default_rng(seed)
        s = generate_scenario(rng, L=L, gamma_total=gamma_total, m=m, N=N_P + demand,
                              N_P=N_P, uniform=uniform)
        channel = FastGamma(shape)
        gains, realized = draw_episodes(s, channel, rng, 60)
        calls, rule = [], prefetch._Kernel.regrown

        def checked(kernel, policy, c, clamp, n):
            k, held = rule(kernel, policy, c, clamp, n)
            calls.append(np.array_equal(k, reference_set_rule(kernel, policy, c, clamp, n))
                         and np.array_equal(held, kernel.totals(clamp, k)))
            return k, held

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(prefetch._Kernel, "regrown", checked)
            run_prefetch_batch(s, channel, policy, gains, realized)
        assert calls == [True] * N_P


class CountedTable(np.ndarray):
    """A table that records the size of every ``take`` in ``entries``."""

    def take(self, indices, *args, **kwargs):
        result = np.asarray(self).take(indices, *args, **kwargs)
        self.entries.append(np.size(result))
        return result


def counting_kernel(entries):
    """``prefetch._kernel`` with a ``span`` table that records the size of each read in ``entries``."""
    kernel = prefetch._kernel

    def counted(*args):
        built = kernel(*args)
        span = built.span.view(CountedTable)
        span.entries = entries
        return replace(built, span=span)
    return counted


class TestRoundBound:
    """The slot step bisects: each call reads ``span`` at most ``bit_length(max(k - max(c, 1))) + 1`` times.

    Counted as reads of the kernel's ``span`` table during each
    ``_Kernel.step`` call: one per round of the search and one for the
    active prefix's total.  A probe at the bracket's midpoint halves the
    widest bracket, so no episode's first reached prefix, however far above
    ``max(c, 1)``, costs the batch more rounds than the bisection of the
    widest ``[max(c, 1), k]``.
    """

    @pytest.mark.parametrize("policy", SET_POLICIES)
    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("L, uniform", [(16, False), (64, False), (256, True)])
    def test_reads_at_most_the_bisection_bound(self, monkeypatch, L, uniform, m, policy):
        rng = np.random.default_rng(10 * L + m)
        s = generate_scenario(rng, L=L, gamma_total=20.0, m=m, N=10, N_P=8, uniform=uniform)
        gains, realized = draw_episodes(s, FAST2, rng, 1000)
        entries, calls, step = [], [], prefetch._Kernel.step

        def spy(built, level, c, clamp, k, total, spare):
            before = len(entries)
            result = step(built, level, c, clamp, k, total, spare)
            widest = int((np.broadcast_to(k, np.shape(c)) - np.maximum(c, 1)).max())
            calls.append((len(entries) - before, widest.bit_length() + 1))
            return result

        with monkeypatch.context() as patch:
            patch.setattr(prefetch, "_kernel", counting_kernel(entries))
            patch.setattr(prefetch._Kernel, "step", spy)
            run_prefetch_batch(s, FAST2, policy, gains, realized)
        # A step per slot, and the noncausal scorer's one per block.
        blocks = -(-gains.shape[0] // (prefetch._BLOCK_ENTRIES // L))
        assert len(calls) == s.N_P + (blocks if policy is PrefetchPolicy.NONCAUSAL_ORACLE else 0)
        assert all(reads <= bound for reads, bound in calls)


#: The arrays of a ``BatchResult``, stored and derived.
RESULT_FIELDS = ("prefetch_energy", "demand_energy", "realized", "set_size", "final_rho",
                 "thresholds", "decisions", "slot_set_size")


def unbounded_prefix_scores(kernel):
    """The noncausal scores with the last slot's step on every ``[1, k]``: the reach bound's reference.

    The scorer without its reach: the same chain of stage-optimal totals,
    then one :meth:`_Kernel.step` from the full residuals on each prefix's
    whole bracket.  Returns the ``(L, E)`` scores and active sizes.
    """
    s, episodes = kernel.s, kernel.gains.shape[0]
    k = np.arange(1, s.L + 1)[:, None]
    first = kernel.span.take(k)
    held, energy = first, 0.0
    for n in range(1, s.N_P):
        sent, _ = kernel.total_and_spare(held, n, k)
        energy = energy + sent ** s.m / kernel.gains[:, n - 1]
        held = held - sent
    _, spare = kernel.total_and_spare(held, s.N_P, k)
    level, c = kernel.delta[0], np.zeros((s.L, episodes), dtype=int)
    active, eta, _ = kernel.step(level, c, kernel.clamp(level, c), k, first - held, spare)
    energy = energy + (eta * spare) ** s.m / kernel.gains[:, s.N_P - 1]
    c = np.minimum(k, kernel.above(eta))
    return energy + kernel.demand_weight * (eta ** s.m * kernel.cum_w[c] + kernel.tail[c]), active


class TestReachBound:
    """The scorer's last step bisects ``[1, min(k, reach)]`` and changes no bit.

    A block's reach is the least of ``1, 2, 4, ...`` below ``L`` that every
    episode reaches at its largest sent total (``L`` if none is).  The
    reached test is monotone in the total, so every prefix reaches it, no
    prefix's first reached size lies above it, and the bounded search
    finds the size the whole bracket finds.
    """

    @staticmethod
    def scored(kernel):
        """``kernel.prefix_scores()``, with its reach and its last step's active sizes."""
        steps, step = [], prefetch._Kernel.step

        def spy(built, level, c, clamp, k, total, spare):
            result = step(built, level, c, clamp, k, total, spare)
            steps.append((int(np.max(k)), result[0]))
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(prefetch._Kernel, "step", spy)
            scores = kernel.prefix_scores()
        (reach, active), = steps
        return scores, reach, active

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 8, 16, 31, 64, 128, 256])
    def test_equals_the_unbounded_scorer(self, L):
        rng = np.random.default_rng(L + 3100)
        episodes = 150 if L < 128 else 60
        cut = 0
        for _ in range(6 if L < 128 else 3):
            m, N = int(rng.integers(2, 6)), int(rng.integers(2, 11))
            s = generate_scenario(rng, L=L, gamma_total=10.0 ** rng.uniform(-3, 4), m=m, N=N,
                                  N_P=int(rng.integers(1, N)), uniform=bool(rng.random() < 0.15))
            channel = FastGamma(int(rng.choice([2, 3, 8])))
            xi = build_xi_table(channel, m, N - s.N_P)
            tables = build_prefix_tables(s, channel, xi)
            gains, realized = draw_episodes(s, channel, rng, episodes)
            kernel = prefetch._kernel(s, xi, tables, gains)
            scores, reach, active = self.scored(kernel)
            reference, unbounded = unbounded_prefix_scores(kernel)
            assert np.array_equal(scores, reference)
            assert np.array_equal(active, unbounded)
            # No entry's first reached size lies above its block's reach.
            assert np.all(unbounded <= reach)
            cut += reach < L
            run = run_prefetch_batch(s, channel, PrefetchPolicy.NONCAUSAL_ORACLE, gains,
                                     realized, xi=xi, prefix_tables=tables)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(prefetch._Kernel, "prefix_scores",
                              lambda built: unbounded_prefix_scores(built)[0])
                want = run_prefetch_batch(s, channel, PrefetchPolicy.NONCAUSAL_ORACLE, gains,
                                          realized, xi=xi, prefix_tables=tables)
            for name in RESULT_FIELDS:
                assert np.array_equal(getattr(run, name), getattr(want, name)), name
        # From four tasks on, the reach cuts the brackets of some blocks.
        assert L < 4 or cut > 0

    @pytest.mark.parametrize("uniform", [False, True])
    @pytest.mark.parametrize("L", [2, 4, 16, 64])
    def test_reached_is_monotone_in_the_total(self, L, uniform):
        rng = np.random.default_rng(L + 3200 + uniform)
        s = generate_scenario(rng, L=L, gamma_total=10.0 ** rng.uniform(-3, 4),
                              m=int(rng.integers(2, 6)), N=10, N_P=8, uniform=uniform)
        kernel = set_rule_kernel(s, rng, 4000)
        # The scorer's state (the top level, nothing clamped) for half the
        # pairs, any clamped state for the rest; sizes below L, whose next
        # ratio is finite, and spares of the last slot or none.
        level = np.where(rng.random(4000) < 0.5, kernel.delta[0],
                         rng.uniform(0.0, 1.2 * kernel.delta[0], 4000))
        c = np.minimum(rng.integers(0, L, 4000), kernel.above(level))
        j = rng.integers(np.maximum(c, 1), L)
        clamp = kernel.clamp(level, c)
        spare = np.where(rng.random(4000) < 0.5, kernel.u_gain[:, -1] / kernel.u_xi, 0.0)
        # Totals within a few units in the last place of the one at which the
        # threshold meets the ratio, and anywhere up to ten times it.
        ratio = np.minimum(kernel.delta.take(j), level)
        edge = kernel.totals(clamp, j) - ratio * (kernel.cum_w.take(j) + spare)
        ulp = np.spacing(np.abs(edge))
        near = rng.random(4000) < 0.8
        total = np.where(near, edge + rng.integers(-8, 9, 4000) * ulp,
                         rng.uniform(0.0, 10.0, 4000) * np.abs(edge))
        larger = total + np.where(near, rng.integers(0, 9, 4000) * ulp,
                                  rng.uniform(0.0, 1.0, 4000) * np.abs(edge))
        assert np.all(larger >= total)
        low = kernel.reached(level, clamp, j, total, spare)
        high = kernel.reached(level, clamp, j, larger, spare)
        assert not np.any(high & ~low)
        # Both outcomes occur at both totals.
        assert low.any() and not low.all() and high.any() and not high.all()

    @staticmethod
    def scorer_reads(monkeypatch, run):
        """Per noncausal scorer block of ``run()``: its reach and the reads of ``span`` it took.

        Counted, as in ``TestRoundBound``, as reads of the kernel's
        ``span`` table: the reach's tests (each reads one size) and the
        scorer's ``_Kernel.step`` (the one step on ``(L, E)`` states), whose
        sizes ``min(k, reach)`` give the reach.
        """
        entries, blocks = [], []
        scores, step = prefetch._Kernel.prefix_scores, prefetch._Kernel.step

        def scores_spy(built):
            blocks.append([len(entries)])
            return scores(built)

        def step_spy(built, level, c, clamp, k, total, spare):
            before = len(entries)
            result = step(built, level, c, clamp, k, total, spare)
            if np.ndim(c) == 2:
                blocks[-1] += [before, len(entries), np.copy(k)]
            return result

        with monkeypatch.context() as patch:
            patch.setattr(prefetch, "_kernel", counting_kernel(entries))
            patch.setattr(prefetch._Kernel, "prefix_scores", scores_spy)
            patch.setattr(prefetch._Kernel, "step", step_spy)
            run()
        found = []
        for start, before, after, bound in blocks:
            # After the L prefixes' data sizes, the reach tests 1, 2, 4, ...
            # below L, one size each, and the step bisects [1, min(k,
            # reach)] and then reads the active prefix's total once.
            L, reach = bound.shape[0], int(bound.max())
            first, *tests = entries[start:before]
            assert first == L and tests == [1] * len(tests)
            assert len(tests) <= (L - 1).bit_length()
            assert len(tests) == (reach - 1).bit_length() + (reach < L)
            assert np.array_equal(bound, np.minimum(np.arange(1, L + 1)[:, None], reach))
            assert after - before <= (reach - 1).bit_length() + 1
            found.append((L, reach, after - before))
        return found

    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("L, uniform", [(16, False), (32, False), (64, False), (256, True)])
    def test_scorer_reads_at_most_the_bounded_bisection(self, monkeypatch, L, uniform, m):
        rng = np.random.default_rng(10 * L + m)
        s = generate_scenario(rng, L=L, gamma_total=20.0, m=m, N=10, N_P=8, uniform=uniform)
        gains, realized = draw_episodes(s, FAST2, rng, 1000)
        found = self.scorer_reads(monkeypatch, lambda: run_prefetch_batch(
            s, FAST2, PrefetchPolicy.NONCAUSAL_ORACLE, gains, realized))
        assert len(found) == -(-gains.shape[0] // (prefetch._BLOCK_ENTRIES // L))
        # With every priority tied only the full set is reached, so the
        # reach is L and bounds nothing; otherwise it bounds every block.
        assert all((reach == L) == uniform for _, reach, _ in found)

    def test_reads_at_the_wide_L_workload(self, monkeypatch):
        # The ``wide-L`` benchmark's sweep at seed 1.  The reach is at most
        # 2, 4 and 4 at L = 16, 32 and 64, so each scorer step reads
        # ``span`` at most 2, 3 and 3 times, against the whole brackets'
        # 5, 6 and 7.
        cfg = SweepConfig(param="L", values=(16, 32, 64), fading="fast", N=10, N_P=8,
                          trials=1000, scenarios=1, seed=1, policies=("noncausal",))
        reach, reads = {}, {}
        for L, size, count in self.scorer_reads(monkeypatch, lambda: run_sweep(cfg)):
            reach[L] = max(reach.get(L, 0), size)
            reads[L] = max(reads.get(L, 0), count)
        assert reach == {16: 2, 32: 4, 64: 4}
        assert reads == {16: 2, 32: 3, 64: 3}


class TestScanCount:
    """The causal set rule reads one ``(episodes,)`` row of ``span`` per round of its scan.

    Counted, as in ``TestRoundBound``, as reads of the kernel's ``span``
    table during each ``_Kernel.regrown`` call.  A call scans from each
    episode's floor ``max(c, 1)`` and stops when the last episode stops,
    so it takes one round more than its largest step, and never more
    than the ``L`` rows of the ``(L, episodes)`` rule it replaced.
    """

    @staticmethod
    def calls(monkeypatch, s, policy, gains, realized):
        """Per ``regrown`` call: the entries of each ``span`` read, the floors and the picks."""
        entries, calls, regrown = [], [], prefetch._Kernel.regrown

        def spy(built, policy, c, clamp, n):
            before = len(entries)
            k, held = regrown(built, policy, c, clamp, n)
            calls.append((entries[before:], np.maximum(c, 1), k))
            return k, held

        with monkeypatch.context() as patch:
            patch.setattr(prefetch, "_kernel", counting_kernel(entries))
            patch.setattr(prefetch._Kernel, "regrown", spy)
            run_prefetch_batch(s, FAST2, policy, gains, realized)
        assert len(calls) == s.N_P
        return calls

    @pytest.mark.parametrize("policy", CAUSAL)
    @pytest.mark.parametrize("uniform", [False, True])
    @pytest.mark.parametrize("L", [1, 4, 16, 64])
    def test_one_row_per_round(self, monkeypatch, L, uniform, policy):
        rng = np.random.default_rng(L + 900)
        s = generate_scenario(rng, L=L, gamma_total=20.0, m=int(rng.integers(2, 6)), N=10,
                              N_P=8, uniform=uniform)
        gains, realized = draw_episodes(s, FAST2, rng, 300)
        calls = self.calls(monkeypatch, s, policy, gains, realized)
        for n, (reads, floor, k) in enumerate(calls, start=1):
            assert reads == [gains.shape[0]] * len(reads)
            assert len(reads) == 1 + int((k - floor).max())
            assert sum(reads) <= L * gains.shape[0]
            if uniform:
                # Every priority ties, so only the full set admits: the
                # first slot scans all L sizes up from 1, and every later
                # one starts at its floor L, since all L tasks then hold
                # bits.
                assert np.all(k == L)
                assert len(reads) == (L if n == 1 else 1)

    @pytest.mark.parametrize("L, bound", [(16, 40), (32, 40), (64, 40)])
    def test_rounds_at_the_wide_L_shape(self, monkeypatch, L, bound):
        # The shape of the ``wide-L`` benchmark: m=2, N=10, N_P=8, 1,000
        # episodes.  The (L, episodes) rule read 8 * L rows per batch; the
        # scan reads at most five per slot here.
        rng = np.random.default_rng(L)
        s = generate_scenario(rng, L=L, gamma_total=20.0, m=2, N=10, N_P=8)
        gains, realized = draw_episodes(s, FAST2, rng, 1000)
        for policy in CAUSAL:
            rounds = sum(len(reads) for reads, _, _ in
                         self.calls(monkeypatch, s, policy, gains, realized))
            assert s.N_P <= rounds <= bound


class TestFlatTables:
    """``_Kernel.totals`` gives the prefix totals bit for bit at every ``(c, j)`` with ``j >= c``.

    It reads ``cum_w`` at ``c`` and the flat ``(L+1)**2`` span table at
    ``c * (L+1) + j``.
    """

    @pytest.mark.parametrize("L", [1, 4, 16, 64])
    def test_lookups_equal_the_two_dimensional_totals(self, L):
        rng = np.random.default_rng(L)
        s = generate_scenario(rng, L=L, gamma_total=20.0, m=3, N=10, N_P=8)
        xi = build_xi_table(FAST2, s.m, s.N - s.N_P)
        gains = sample_gain(FAST2, rng, (3, s.N))
        kernel = prefetch._kernel(s, xi, build_prefix_tables(s, FAST2, xi), gains)
        # span[c, j]: the data sizes c <= l < j, summed in order from c.
        gam = s.gamma[priority_order(s)]
        span = np.zeros((L + 1, L + 1))
        for c in range(L + 1):
            for j in range(c + 1, L + 1):
                span[c, j] = span[c, j - 1] + gam[j - 1]
        c, j = np.triu_indices(L + 1)
        levels = np.array([0.0, kernel.delta[L // 2],
                           *rng.uniform(0.0, 2.0 * kernel.delta[0], 6)])[:, None]
        expected = levels * kernel.cum_w[c] + span[c, j]
        assert np.array_equal(kernel.totals(kernel.clamp(levels, c), j), expected)


class TestScaleHomogeneity:
    def test_normalized_energy_does_not_depend_on_data_scale(self):
        # Stage energy is homogeneous of degree m in the data sizes, so no
        # policy may decide anything by comparing bits to an absolute cutoff.
        gains, realized = draw_episodes(S3, FAST2, np.random.default_rng(23), 2000)
        for policy in PrefetchPolicy:
            normalized = []
            for c in (1.0, 1e-14, 1e10):
                s = Scenario(m=S3.m, N=S3.N, N_P=S3.N_P, p=S3.p, gamma=c * S3.gamma)
                result = run_prefetch_batch(s, FAST2, policy, gains, realized, xi=XI3)
                normalized.append(result.total_energy.mean() / c ** S3.m)
            assert normalized[1:] == pytest.approx([normalized[0]] * 2, rel=1e-12, abs=0.0)


    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(L=st.integers(1, 8), m=st.integers(2, 5), shape=st.sampled_from([2, 3, 8]),
           window=st.integers(2, 10).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
           gamma_total=st.sampled_from([1e-6, 1.0, 20.0, 1e6]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_every_policy_conserves_bits(self, L, m, shape, window, gamma_total, seed):
        N, N_P = window
        rng = np.random.default_rng(seed)
        s = generate_scenario(rng, L=L, gamma_total=gamma_total, m=m, N=N, N_P=N_P)
        channel = FastGamma(shape)
        xi = build_xi_table(channel, m, N - N_P)
        tables = build_prefix_tables(s, channel, xi)
        gains, realized = draw_episodes(s, channel, rng, 20)
        for policy in PrefetchPolicy:
            result = run_prefetch_batch(s, channel, policy, gains, realized, xi=xi,
                                        prefix_tables=tables)
            np.testing.assert_allclose(result.final_rho + result.decisions.sum(axis=1),
                                       np.broadcast_to(s.gamma, result.final_rho.shape),
                                       rtol=0.0, atol=1e-12 * gamma_total)
            assert np.all(result.final_rho >= 0.0)
            assert np.all(result.final_rho <= s.gamma)


class TestCausalClosedForms:
    @settings(derandomize=True, deadline=None)
    @given(L=st.integers(1, 8), m=st.integers(2, 5), shape=st.sampled_from([2, 3, 8]),
           window=st.integers(2, 10).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
           gamma_total=st.sampled_from([0.01, 20.0, 1e4]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_decisions_follow_the_executed_thresholds(self, L, m, shape, window,
                                                      gamma_total, seed):
        # Every slot of a causal episode is the closed-form split at its
        # threshold over all tasks (a task the set rule leaves out would get
        # nothing), and the thresholds telescope to the final one.
        N, N_P = window
        rng = np.random.default_rng(seed)
        s = generate_scenario(rng, L=L, gamma_total=gamma_total, m=m, N=N, N_P=N_P)
        channel = FastGamma(shape)
        xi = build_xi_table(channel, m, N - N_P)
        tables = build_prefix_tables(s, channel, xi)
        gains, realized = draw_episodes(s, channel, rng, 20)
        tol = 1e-12 * gamma_total
        for policy in CAUSAL:
            result = run_prefetch_batch(s, channel, policy, gains, realized, xi=xi,
                                        prefix_tables=tables)
            decisions = result.decisions
            for i in range(gains.shape[0]):
                rho = s.gamma.copy()
                for n in range(1, N_P + 1):
                    bits = decisions[i, n - 1]
                    expected = decision_vector(rho, result.thresholds[i, n - 1], s)
                    np.testing.assert_allclose(bits, expected, rtol=0.0, atol=tol)
                    rho = rho - bits
                alpha = decision_vector(s.gamma, result.thresholds[i, -1], s)
                np.testing.assert_allclose(s.gamma - result.final_rho[i], alpha,
                                           rtol=0.0, atol=tol)


def run_id(run: dict) -> str:
    return "-".join(f"{value}" for value in run.values())


#: Each policy, and the noncausal oracle with a locked prefix.
RUNS = [*[{"policy": policy} for policy in PrefetchPolicy],
        {"policy": PrefetchPolicy.NONCAUSAL_ORACLE, "locked": 3}]


def run_entry(run, s, gains, realized, **tables):
    """The batch of one ``RUNS`` entry on ``FAST2``: its policy, or its locked prefix."""
    if "locked" in run:
        return locked_batch(s, FAST2, run["locked"], gains, realized, **tables)
    return run_prefetch_batch(s, FAST2, run["policy"], gains=gains, realized=realized, **tables)


class TestSlotRecord:
    """Every batch carries each slot's threshold and working-set size."""

    @pytest.mark.parametrize("run", [*RUNS, *[{"policy": PrefetchPolicy.NONCAUSAL_ORACLE,
                                               "locked": k} for k in (1, 8)]],
                             ids=run_id)
    def test_a_sweep_batch_carries_the_slot_record(self, run):
        # Called as ``run_sweep`` calls it: no option asks for the record.
        s, xi, tables, gains, realized = TestEpisodeBlocks.instance(8, 50)
        batch = run_entry(run, s, gains, realized, xi=xi, prefix_tables=tables)
        assert batch.scenario is s
        assert batch.thresholds.shape == batch.slot_set_size.shape == (50, s.N_P)
        assert np.array_equal(batch.set_size, batch.slot_set_size[:, -1])
        assert batch.decisions.shape == (50, s.N_P, s.L)
        prefetching = run["policy"] is not PrefetchPolicy.NO_PREFETCH
        assert np.all((batch.slot_set_size > 0) == prefetching)

    @pytest.mark.parametrize("run", RUNS, ids=run_id)
    def test_final_residuals_follow_from_the_record(self, run):
        # The water level is the last threshold, and the last size clamps the
        # same tasks as the largest: the residual rule that derives
        # ``decisions``.
        s, xi, tables, gains, realized = TestEpisodeBlocks.instance(8, 300)
        batch = run_entry(run, s, gains, realized, xi=xi, prefix_tables=tables)
        level = batch.thresholds[:, -1:]
        for size in (batch.slot_set_size[:, -1:], batch.slot_set_size.max(axis=1)[:, None]):
            assert np.array_equal(batch.final_rho,
                                  prefetch._residuals(s, level, size, np.arange(s.L)))

    @pytest.mark.parametrize("L", [4, 64])
    @pytest.mark.parametrize("run", RUNS, ids=run_id)
    def test_the_batch_computes_one_residual_per_episode(self, monkeypatch, L, run):
        # The demand phase reads only the realized task's residual, so the
        # batch calls the residual rule once, on ``(E,)``, and builds no
        # ``(E, L)`` residuals.
        s, xi, tables, gains, realized = TestEpisodeBlocks.instance(L, 300)
        shapes, rule = [], prefetch._residuals

        def spy(*args):
            held = rule(*args)
            shapes.append(held.shape)
            return held
        monkeypatch.setattr(prefetch, "_residuals", spy)
        batch = run_entry(run, s, gains, realized, xi=xi, prefix_tables=tables)
        assert shapes == [(300,)]
        assert batch.beta.tobytes() == batch.final_rho[np.arange(300), realized].tobytes()

    def test_every_residual_view_is_checked(self):
        # A record no slot loop makes: a negative threshold in slot 1, the
        # last.  Every view derives from the record by the one checked rule.
        s = Scenario(m=2, N=4, N_P=2, p=np.array([0.5, 0.3, 0.2]),
                     gamma=np.array([7.0, 6.0, 5.0]))
        top = priorities(s).max()
        batch = prefetch.BatchResult(
            scenario=s, policy=PrefetchPolicy.AGGRESSIVE, prefetch_energy=np.zeros(2),
            demand_energy=np.zeros(2), realized=np.array([0, 2]),
            thresholds=np.array([[0.5 * top, -1e-3], [0.5 * top, 0.25 * top]]),
            slot_set_size=np.full((2, 2), s.L))
        for view in ("decisions", "final_rho", "beta"):
            with pytest.raises(FloatingPointError, match="residual bits"):
                getattr(batch, view)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(L=st.integers(1, 64), m=st.integers(2, 5), shape=st.integers(2, 8),
           N_P=st.integers(1, 8), demand=st.integers(1, 3),
           gamma_total=st.sampled_from([1e-2, 20.0, 1e3]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_causal_sets_leave_out_no_task_above_the_threshold(
            self, L, m, shape, N_P, demand, gamma_total, seed):
        # The invariant that lets the slot loop keep no set bound: a causal
        # set admits every task whose priority exceeds the slot's threshold.
        rng = np.random.default_rng(seed)
        s = generate_scenario(rng, L=L, gamma_total=gamma_total, m=m, N=N_P + demand, N_P=N_P)
        channel = FastGamma(shape)
        gains, realized = draw_episodes(s, channel, rng, 60)
        delta = priorities(s)
        for policy in ("aggressive", "conservative"):
            batch = run_prefetch_batch(s, channel, policy, gains, realized)
            above = np.count_nonzero(delta > batch.thresholds[:, :, None], axis=2)
            assert np.all(above <= batch.slot_set_size)


class TestEpisodeBlocks:
    """The noncausal scorer runs in blocks of episodes without changing a bit.

    Only ``_Kernel.prefix_scores`` builds ``(L, episodes)`` arrays, so only
    it runs in blocks; the slot loop (``_Kernel.phase``) runs once on the
    whole batch.
    """

    FIELDS = RESULT_FIELDS

    @staticmethod
    def instance(L, episodes):
        rng = np.random.default_rng(4 * L + episodes)
        s = generate_scenario(rng, L=L, gamma_total=20.0, m=3, N=10, N_P=8)
        xi = build_xi_table(FAST2, s.m, s.N - s.N_P)
        gains, realized = draw_episodes(s, FAST2, rng, episodes)
        return s, xi, build_prefix_tables(s, FAST2, xi), gains, realized

    @pytest.mark.parametrize("L, episodes, blocks", [(64, 1000, [128] * 7 + [104]),
                                                     (4, 1000, [1000])])
    @pytest.mark.parametrize("run", RUNS, ids=run_id)
    def test_one_call_equals_calls_on_slices(self, monkeypatch, L, episodes, blocks, run):
        s, xi, tables, gains, realized = self.instance(L, episodes)
        phases, scored = [], []
        phase, prefix_scores = prefetch._Kernel.phase, prefetch._Kernel.prefix_scores

        def phase_spy(kernel, *args):
            phases.append(kernel.gains.shape[0])
            return phase(kernel, *args)

        def scores_spy(kernel):
            scored.append(kernel.gains.shape[0])
            return prefix_scores(kernel)

        monkeypatch.setattr(prefetch._Kernel, "phase", phase_spy)
        monkeypatch.setattr(prefetch._Kernel, "prefix_scores", scores_spy)
        whole = run_entry(run, s, gains, realized, xi=xi, prefix_tables=tables)
        assert phases == [episodes]
        # A locked run's stub replaces the scorer's spy.
        unlocked = run["policy"] is PrefetchPolicy.NONCAUSAL_ORACLE and "locked" not in run
        assert scored == (blocks if unlocked else [])
        cuts = [0, 1, 301, 700, episodes]
        parts = [run_entry(run, s, gains[a:b], realized[a:b], xi=xi, prefix_tables=tables)
                 for a, b in zip(cuts[:-1], cuts[1:])]
        for name in self.FIELDS:
            joined = np.concatenate([getattr(part, name) for part in parts])
            assert np.array_equal(getattr(whole, name), joined), name

    @pytest.mark.parametrize("m", range(2, 6))
    @pytest.mark.parametrize("L", [1, 4, 64])
    def test_per_episode_locks_equal_the_locks_at_each_size(self, L, m):
        # One random size per episode runs, episode by episode, as the batch
        # locked at that size.  At L=64 the 1,000 episodes span four scorer
        # blocks, each of which takes its sizes at its own offset.
        rng = np.random.default_rng(8 * L + m)
        s = generate_scenario(rng, L=L, gamma_total=20.0, m=m, N=10, N_P=8)
        xi = build_xi_table(FAST2, m, s.N - s.N_P)
        tables = build_prefix_tables(s, FAST2, xi)
        gains, realized = draw_episodes(s, FAST2, rng, 1000)
        k = rng.integers(1, L + 1, size=1000)
        mixed = locked_batch(s, FAST2, k, gains, realized, xi=xi, prefix_tables=tables)
        for size in range(1, L + 1):
            run = locked_batch(s, FAST2, size, gains, realized, xi=xi, prefix_tables=tables)
            for name in self.FIELDS:
                assert np.array_equal(getattr(mixed, name)[k == size],
                                      getattr(run, name)[k == size]), (size, name)

    @pytest.mark.parametrize("policy", PrefetchPolicy)
    def test_empty_batch_at_large_L(self, policy):
        s, xi, tables, gains, realized = self.instance(64, 0)
        batch = run_prefetch_batch(s, FAST2, policy, gains, realized, xi=xi,
                                   prefix_tables=tables)
        assert batch.total_energy.shape == (0,)
        assert batch.decisions.shape == (0, s.N_P, s.L)


class TestTaskOrder:
    """Permuting a scenario's tasks permutes the residuals and keeps every energy."""

    RTOL = 1e-12

    @staticmethod
    def permuted(rng, s):
        order = rng.permutation(s.L)
        return order, Scenario(m=s.m, N=s.N, N_P=s.N_P, p=s.p[order], gamma=s.gamma[order])

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(L=st.integers(1, 16), m=st.integers(2, 5), shape=st.sampled_from([2, 3, 8]),
           window=st.integers(2, 10).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
           gamma_total=st.sampled_from([1e-2, 20.0, 1e3]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_fast_policies(self, L, m, shape, window, gamma_total, seed):
        N, N_P = window
        rng = np.random.default_rng(seed)
        s = generate_scenario(rng, L=L, gamma_total=gamma_total, m=m, N=N, N_P=N_P)
        order, t = self.permuted(rng, s)
        channel = FastGamma(shape)
        xi = build_xi_table(channel, m, N - N_P)
        gains, realized = draw_episodes(s, channel, rng, 30)
        for policy in PrefetchPolicy:
            before = run_prefetch_batch(s, channel, policy, gains, realized, xi=xi)
            after = run_prefetch_batch(t, channel, policy, gains, np.argsort(order)[realized],
                                       xi=xi)
            np.testing.assert_allclose(after.final_rho, before.final_rho[:, order],
                                       rtol=self.RTOL, atol=0.0)
            for name in ("prefetch_energy", "demand_energy", "total_energy"):
                np.testing.assert_allclose(getattr(after, name), getattr(before, name),
                                           rtol=self.RTOL, atol=0.0, err_msg=name)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(L=st.integers(1, 16), m=st.integers(2, 5),
           window=st.integers(2, 10).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
           gamma_total=st.sampled_from([1e-2, 20.0, 1e3]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_slow_plan(self, L, m, window, gamma_total, seed):
        N, N_P = window
        rng = np.random.default_rng(seed)
        s = generate_scenario(rng, L=L, gamma_total=gamma_total, m=m, N=N, N_P=N_P)
        order, t = self.permuted(rng, s)
        before, after = optimal_prefetch_slow(s), optimal_prefetch_slow(t)
        np.testing.assert_allclose(t.gamma - after.alpha, (s.gamma - before.alpha)[order],
                                   rtol=self.RTOL, atol=0.0)
        assert expected_fetch_energy_slow(after) == pytest.approx(
            expected_fetch_energy_slow(before), rel=self.RTOL, abs=0.0)
        assert no_prefetch_energy_slow(t) == pytest.approx(
            no_prefetch_energy_slow(s), rel=self.RTOL, abs=0.0)
