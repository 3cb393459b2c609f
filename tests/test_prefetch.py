"""Fast-fading prefetch thresholds, set selection, and episode simulation."""

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
    alpha_from_final_threshold,
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
from livefetch.slow import priorities, priority_order
from livefetch.sweep import generate_scenario

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


def traced(s, policy, gains, realized=None, xi=XI3, tables=TABLES3, **kwargs):
    if realized is None:
        realized = np.zeros(gains.shape[0], dtype=int)
    return run_prefetch_batch(s, FAST2, policy, gains, realized, xi=xi,
                              prefix_tables=tables, trace=True, **kwargs)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            build_zeta_table(S3, FAST2, (), XI3)
        with pytest.raises(IndexError):
            build_zeta_table(S3, FAST2, (0, 3), XI3)
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
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                threshold_eta(self.RHO2, 1, bad, ZETA2)
        with pytest.raises(ValueError):
            threshold_eta(self.RHO2, 2, 1.0, ZETA2)
        with pytest.raises(ValueError):
            threshold_eta(np.array([-1.0, 4.0]), 1, 1.0, ZETA2)


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
            rho = rng.uniform(0.0, 5.0, 3)
            bits = decision_vector(rho, float(rng.uniform(0.0, 3.0)), s)
            assert np.all(bits >= 0.0)
            assert np.all(bits <= rho + 1e-12)

    def test_validation(self):
        for bad in (-0.5, np.nan, np.inf):
            with pytest.raises(ValueError):
                decision_vector(np.array([4.0, 4.0]), bad, S2)


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
        for gains in ([1.0, -1.0], [1.0, np.nan]):
            with pytest.raises(ValueError):
                noncausal_final_threshold(rho, 2, gains, TABLES3[1])


class TestAlphaFromFinalThreshold:
    def test_zero_threshold_prefetches_everything(self):
        assert alpha_from_final_threshold(S3, 0.0) == pytest.approx(S3.gamma)

    def test_huge_threshold_prefetches_nothing(self):
        assert alpha_from_final_threshold(S3, 1e9) == pytest.approx([0.0] * 3)

    def test_reference_value(self):
        s = Scenario(m=2, N=3, N_P=1, p=np.array([0.9, 0.1]),
                     gamma=np.array([4.0, 4.0]))
        alpha = alpha_from_final_threshold(s, 1.0)
        assert alpha == pytest.approx([4.0 - 1.0 / 0.9, 0.0], abs=1e-12)
        assert alpha[0] == pytest.approx(2.8889, abs=1e-4)

    def test_validation(self):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                alpha_from_final_threshold(S3, bad)


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
        aggr, cons = (traced(S1, policy, gains, realized, xi=XI1, tables=TABLES1)
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
            result = traced(s, kind, gains, xi=xi, tables=None)
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
            result = traced(s, kind, gains, xi=XI1, tables=TABLES1)
            assert np.array_equal(result.slot_set_size[:, 0], expected)

    def test_returns_priority_prefixes_only(self):
        # Bits only ever go to the priority prefix of the slot's set size.
        rng = np.random.default_rng(8)
        gains, realized = draw_episodes(S3, FAST2, rng, 50)
        rank = np.argsort(priority_order(S3))
        for kind in CAUSAL:
            result = traced(S3, kind, gains, realized)
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
            result = traced(s, kind, gains, xi=xi, tables=tables)
            for size in np.unique(result.slot_set_size):
                working = set(order[:size])
                if 2 in working:
                    assert all(i in working for i in range(3) if delta[i] > delta[2])

    def test_never_shrinks_below_previous_positive_count(self):
        rng = np.random.default_rng(10)
        gains, realized = draw_episodes(S3, FAST2, rng, 200)
        for kind in CAUSAL:
            result = traced(S3, kind, gains, realized)
            positive = np.count_nonzero(result.decisions > POSITIVE_BITS_EPS, axis=2)
            assert np.all(result.slot_set_size[:, 1:] >= positive[:, :-1])


class TestSelectNoncausalSet:
    def test_single_candidate(self):
        s = Scenario(m=2, N=3, N_P=1, p=np.array([1.0]), gamma=np.array([5.0]))
        xi = build_xi_table(FAST2, 2, 2)
        result = traced(s, PrefetchPolicy.NONCAUSAL_ORACLE, np.ones((1, s.N)),
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
                result = run_prefetch_batch(S3, FAST2,
                                            PrefetchPolicy.NONCAUSAL_ORACLE,
                                            gains, np.array([0]), xi=XI3,
                                            prefix_tables=TABLES3,
                                            forced_prefix=k)
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
        two, three = (traced(s, PrefetchPolicy.NONCAUSAL_ORACLE, gains, realized, xi=xi,
                             tables=tables, forced_prefix=k) for k in (2, 3))
        assert np.array_equal(two.prefetch_energy, three.prefetch_energy)
        assert np.array_equal(two.final_rho, three.final_rho)
        result = traced(s, PrefetchPolicy.NONCAUSAL_ORACLE, gains, realized, xi=xi,
                        tables=tables)
        positive = np.count_nonzero(result.decisions[:, -1] > 0.0, axis=1)
        assert np.array_equal(result.set_size, positive)
        assert set(np.unique(result.set_size)) == {1, 2}

    def test_one_batch_matches_separate_locked_runs(self):
        # The oracle runs every prefix in one batch; scoring each locked run
        # separately from its energy and residuals must give the same first
        # argmin wherever the two best scores are not a near tie.
        rng = np.random.default_rng(11)
        wide = generate_scenario(rng, L=16, gamma_total=20.0, m=3, N=10, N_P=6)
        for s in (S3, wide):
            xi = build_xi_table(FAST2, s.m, s.N - s.N_P)
            tables = build_prefix_tables(s, FAST2, xi)
            gains, realized = draw_episodes(s, FAST2, rng, 400)
            weight = xi.xi[s.N - s.N_P]
            runs = [run_prefetch_batch(s, FAST2, PrefetchPolicy.NONCAUSAL_ORACLE, gains,
                                       realized, xi=xi, prefix_tables=tables, forced_prefix=k)
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
            # The batched row of the kept prefix is that prefix's locked run.
            episodes = np.arange(gains.shape[0])
            kept = oracle.set_size - 1
            np.testing.assert_allclose(
                oracle.prefetch_energy,
                np.array([run.prefetch_energy for run in runs])[kept, episodes],
                rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(
                oracle.final_rho, np.array([run.final_rho for run in runs])[kept, episodes],
                rtol=1e-12, atol=0.0)

    def test_gain_count_validation(self):
        for gains in (np.ones((1, S3.N - 1)), np.array([[1.0, 1.0, -2.0, 1.0, 1.0]])):
            with pytest.raises(ValueError):
                traced(S3, PrefetchPolicy.NONCAUSAL_ORACLE, gains)


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
            full_set, full_energy, _ = best_prefix_set(s, FAST2, xi,
                                                       exhaustive=True)
            assert full_energy == pytest.approx(prefix_energy, rel=1e-12)
            assert full_set == prefix_set

    def test_exhaustive_search_size_limit(self):
        s = Scenario(m=2, N=5, N_P=2, p=np.full(11, 1.0 / 11),
                     gamma=np.full(11, 2.0))
        with pytest.raises(ValueError):
            best_prefix_set(s, FAST2, build_xi_table(FAST2, 2, 3),
                            exhaustive=True)

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
        result = run_prefetch_batch(S3, FAST2, PrefetchPolicy.NONCAUSAL_ORACLE,
                                    gains, realized, xi=XI3,
                                    prefix_tables=TABLES3,
                                    forced_prefix=modal_k)
        total = result.total_energy
        mean = float(total.mean())
        se = float(total.std(ddof=1)) / np.sqrt(episodes)
        formula = expected_total_energy_fast(TABLES3[modal_k - 1])
        assert abs(mean - formula) <= 3.0 * se


class TestEpisodeRunner:
    def test_no_prefetch_reduces_to_pure_demand(self):
        rng = np.random.default_rng(12)
        gains = sample_gain(FAST2, rng, (1, S3.N))
        result = traced(S3, PrefetchPolicy.NO_PREFETCH, gains, np.array([1]))
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
            result = traced(S3, policy, gains, realized)
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
            result = traced(S3, policy, gains, realized)
            rho = np.tile(S3.gamma, (30, 1))
            for n in range(S3.N_P):
                rho = rho - result.decisions[:, n]
                positive = result.decisions[:, n] > POSITIVE_BITS_EPS
                target = result.thresholds[:, n, None] * w[None, :]
                assert rho[positive] == pytest.approx(target[positive], abs=1e-9)

    def test_forced_prefix_masks_outside_tasks(self):
        rng = np.random.default_rng(15)
        gains, realized = draw_episodes(S3, FAST2, rng, 20)
        result = traced(S3, PrefetchPolicy.NONCAUSAL_ORACLE, gains, realized,
                        forced_prefix=1)
        assert priority_order(S3)[0] == 0
        assert np.all(result.decisions[:, :, 1:] == 0.0)
        assert np.all(result.slot_set_size == 1)

    def test_noncausal_thresholds_strictly_decrease_and_cap(self):
        rng = np.random.default_rng(16)
        gains, realized = draw_episodes(S3, FAST2, rng, 300)
        th = traced(S3, PrefetchPolicy.NONCAUSAL_ORACLE, gains, realized).thresholds
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
            result = traced(S3, policy, gains, realized)
            for i in range(5):
                members = sorted(order[:result.slot_set_size[i, -1]])
                rho = S3.gamma - result.decisions[i, :-1].sum(axis=0)
                g = float(gains[i, S3.N_P - 1])

                def objective(bits):
                    remain = rho[members] - bits
                    demand = float(np.sum(
                        S3.p[members] * remain ** S3.m)) * XI3.xi[d]
                    return float(bits.sum()) ** S3.m / g + demand

                executed = result.decisions[i, -1][members]
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
                result = run_prefetch_batch(s, channel, PrefetchPolicy.NONCAUSAL_ORACLE,
                                            gains, realized, xi=xi, prefix_tables=tables,
                                            forced_prefix=k, trace=True)
                active = np.all(result.decisions[:, :, members] > POSITIVE_BITS_EPS,
                                axis=(1, 2))
                checked += np.count_nonzero(active)
                multi_member += np.count_nonzero(active) if k > 1 else 0
                for i in np.flatnonzero(active):
                    rho = s.gamma.copy()
                    for n in range(1, s.N_P + 1):
                        g = float(gains[i, n - 1])
                        eta = threshold_eta(rho, n, g, tables[k - 1])
                        assert result.thresholds[i, n - 1] == pytest.approx(eta, rel=1e-12)
                        bits = result.decisions[i, n - 1]
                        expected = decision_vector(rho, eta, s)
                        assert bits[members] == pytest.approx(expected[members],
                                                              rel=1e-12)
                        assert np.all(bits[outside] == 0.0)
                        rho = rho - bits
                    eta_final = noncausal_final_threshold(s.gamma, 1, gains[i, :s.N_P],
                                                          tables[k - 1])
                    assert result.thresholds[i, -1] == pytest.approx(eta_final, rel=1e-12)
                    alpha = alpha_from_final_threshold(s, eta_final)
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
        for bad_prefix in (0, S3.L + 1):
            with pytest.raises(ValueError):
                run_prefetch_batch(S3, FAST2, PrefetchPolicy.NONCAUSAL_ORACLE,
                                   gains, realized, xi=XI3,
                                   forced_prefix=bad_prefix)

    @pytest.mark.parametrize("policy", ["aggressive", "conservative", "no-prefetch"])
    def test_forced_prefix_is_the_noncausal_oracles_alone(self, policy):
        # Locking a prefix is the oracle's one-prefix mode; any other policy
        # would run it under its own name.
        gains, realized = draw_episodes(S3, FAST2, np.random.default_rng(17), 10)
        with pytest.raises(ValueError, match="forced_prefix"):
            run_prefetch_batch(S3, FAST2, policy, gains, realized, xi=XI3,
                               prefix_tables=TABLES3, forced_prefix=1)


def dense_first_reached(kernel, level, bound, n, k):
    """Slot solve by scanning every prefix size: the search's reference.

    Builds the residual matrix and its prefix sums, forms every size's
    candidate threshold and takes the first that reaches the next member's
    ratio (or the set size ``k``).  Returns the active counts, thresholds,
    sent bits and the ``(E, L)`` candidates.
    """
    s = kernel.s
    rows = np.arange(level.size)
    rho = kernel.residuals(level, bound)
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
        xi = build_xi_table(channel, s.m, s.N - s.N_P)
        tables = build_prefix_tables(s, channel, xi)
        gains = sample_gain(channel, rng, (episodes, s.N))
        kernel = prefetch._kernel(s, xi, tables, gains)
        delta = kernel.delta[:-1]
        for n in range(1, s.N_P + 1):
            # Arbitrary states: any level from zero to above the top
            # priority, levels equal to a priority, any bound and set size.
            level = rng.uniform(0.0, 1.2 * delta[0], episodes)
            level[rng.random(episodes) < 0.15] = 0.0
            on_priority = rng.random(episodes) < 0.15
            level[on_priority] = rng.choice(delta, np.count_nonzero(on_priority))
            bound = rng.integers(0, s.L + 1, episodes)
            k = rng.integers(1, s.L + 1, episodes)
            active, eta, sent = kernel.solve(level, bound, n, k)
            ref_active, ref_eta, ref_sent, candidates = dense_first_reached(
                kernel, level, bound, n, k)
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
            held = kernel.residuals(level, bound).cumsum(axis=1)[rows, active - 1]
            gap = self.TOL * held
            assert np.all(np.abs(sent - ref_sent) <= gap)
            scale = 1.0 / gains[:, n - 1]
            slope = s.m * np.maximum(sent, ref_sent) ** (s.m - 1)
            assert np.all(np.abs(scale * sent ** s.m - scale * ref_sent ** s.m)
                          <= scale * slope * gap)

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
                                        prefix_tables=tables, trace=True)
            for i in range(gains.shape[0]):
                rho = s.gamma.copy()
                for n in range(1, N_P + 1):
                    bits = result.decisions[i, n - 1]
                    expected = decision_vector(rho, result.thresholds[i, n - 1], s)
                    np.testing.assert_allclose(bits, expected, rtol=0.0, atol=tol)
                    rho = rho - bits
                alpha = alpha_from_final_threshold(s, result.thresholds[i, -1])
                np.testing.assert_allclose(s.gamma - result.final_rho[i], alpha,
                                           rtol=0.0, atol=tol)
