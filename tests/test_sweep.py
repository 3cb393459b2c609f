"""Sweep harness: config validation, pairing, aggregation, CSV boundary."""

import io
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from livefetch.model import Scenario
from livefetch.slow import (
    expected_fetch_energy_slow,
    gain_lower_bound,
    optimal_prefetch_slow,
)
from livefetch.sweep import (
    CSV_HEADER,
    FAST_POLICIES,
    ConfigError,
    SweepConfig,
    SweepRow,
    emit_csv,
    gain_vs_shape,
    generate_scenario,
    load_rows,
    run_sweep,
)

SLOW_GAMMA = SweepConfig(param="gamma", values=(5, 10, 20), fading="slow",
                         policies=("slow-opt", "no-prefetch"), scenarios=5)


class TestSweepConfig:
    def test_defaults_mirror_the_reference_setup(self):
        cfg = SweepConfig(param="gamma", values=(20,), policies=("slow-opt",))
        assert (cfg.m, cfg.k, cfg.L, cfg.N, cfg.N_P) == (2, 2, 4, 5, 4)
        assert cfg.gamma_total == 20.0 and cfg.lam == 1.0
        assert cfg.trials == 10_000 and cfg.scenarios == 100

    @pytest.mark.parametrize("kwargs", [
        dict(param="bogus", values=(1,), policies=("slow-opt",)),
        dict(param="gamma", values=(1,), policies=("slow-opt",), fading="medium"),
        dict(param="gamma", values=(), policies=("slow-opt",)),
        dict(param="L", values=(2.5,), policies=("slow-opt",)),
        dict(param="L", values=(0,), policies=("slow-opt",)),
        dict(param="gamma", values=(-1.0,), policies=("slow-opt",)),
        dict(param="k", values=(2,), policies=("slow-opt",)),            # slow k sweep
        dict(param="k", values=(1,), policies=("noncausal",), fading="fast"),
        dict(param="gamma", values=(1,), policies=("aggressive",)),      # fast-only policy
        dict(param="gamma", values=(1,), policies=("slow-opt",), fading="fast"),
        dict(param="gamma", values=(1,), policies=()),
        dict(param="gamma", values=(1,), policies=("slow-opt",), m=6),
        dict(param="gamma", values=(1,), policies=("slow-opt",), m=2.0),
        dict(param="gamma", values=(1,), policies=("slow-opt",), k=1),
        dict(param="gamma", values=(1,), policies=("slow-opt",), slow_g=0.0),
        dict(param="gamma", values=(1,), policies=("slow-opt",), gamma_total=-2.0),
        dict(param="gamma", values=(1,), policies=("slow-opt",), lam=0.0),
        dict(param="gamma", values=(1,), policies=("slow-opt",), trials=0),
        dict(param="gamma", values=(1,), policies=("slow-opt",), scenarios=0),
        dict(param="Np", values=(6,), policies=("slow-opt",), N=5),      # N_P > N
        dict(param="Np", values=(5,), policies=("no-prefetch",), N=5),   # no demand phase
        dict(param="Np", values=(5,), policies=("noncausal",), N=5, fading="fast"),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SweepConfig(**kwargs)

    @pytest.mark.parametrize("key", ["lam", "slow_g", "gamma_total"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_scales_rejected(self, key, value):
        with pytest.raises(ConfigError):
            SweepConfig(param="gamma", values=(1,), policies=("slow-opt",), **{key: value})

    @pytest.mark.parametrize("param", ["gamma", "L"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, param, value):
        with pytest.raises(ConfigError):
            SweepConfig(param=param, values=(2, value), policies=("slow-opt",))

    def test_all_prefetch_point_allowed_for_slow_opt_only(self):
        cfg = SweepConfig(param="Np", values=(4, 5), policies=("slow-opt",), N=5)
        assert cfg.values == (4.0, 5.0)


class TestGenerateScenario:
    def test_single_task_is_deterministic(self):
        s = generate_scenario(np.random.default_rng(0), L=1, gamma_total=20.0,
                              m=2, N=5, N_P=4)
        np.testing.assert_array_equal(s.p, [1.0])
        np.testing.assert_array_equal(s.gamma, [20.0])

    def test_normalization(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = generate_scenario(rng, L=6, gamma_total=13.5, m=3, N=7, N_P=2)
            assert float(s.p.sum()) == pytest.approx(1.0, abs=1e-9)
            assert float(s.gamma.sum()) == pytest.approx(13.5, abs=1e-9)
            assert np.all(s.p > 0) and np.all(s.gamma > 0)

    def test_fixed_seed_reproduces_the_draw(self):
        a = generate_scenario(np.random.default_rng(7), L=4, gamma_total=20.0,
                              m=2, N=5, N_P=4)
        b = generate_scenario(np.random.default_rng(7), L=4, gamma_total=20.0,
                              m=2, N=5, N_P=4)
        np.testing.assert_array_equal(a.p, b.p)
        np.testing.assert_array_equal(a.gamma, b.gamma)

    def test_uniform_flag_forces_equal_tasks(self):
        s = generate_scenario(np.random.default_rng(2), L=4, gamma_total=20.0,
                              m=2, N=5, N_P=4, uniform=True)
        np.testing.assert_array_equal(s.p, np.full(4, 0.25))
        np.testing.assert_array_equal(s.gamma, np.full(4, 5.0))


class TestRunSweepSlow:
    def test_uniform_task_sweep_hits_the_closed_form_floor(self):
        cfg = SweepConfig(param="L", values=(1, 2, 3, 5),
                          policies=("slow-opt", "no-prefetch"), fading="slow",
                          uniform=True, scenarios=3, N=5, N_P=4)
        for row in run_sweep(cfg):
            L = int(row.param_value)
            s = Scenario(m=2, N=5, N_P=4, p=np.full(L, 1.0 / L),
                         gamma=np.full(L, 20.0 / L))
            if row.policy == "slow-opt":
                assert row.gain == pytest.approx(gain_lower_bound(s), rel=1e-12)
            else:
                assert row.gain == 1.0
            assert row.trials == 0
            # uniform draws repeat one scenario; spread is pure rounding
            assert row.stderr == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_energy_grows_as_the_monomial_of_total_data(self, m):
        cfg = SweepConfig(param="gamma", values=(5, 10, 20, 40, 80),
                          policies=("slow-opt",), fading="slow",
                          scenarios=20, m=m)
        rows = run_sweep(cfg)
        x = np.log([row.param_value for row in rows])
        y = np.log([row.mean_energy for row in rows])
        slope = np.polyfit(x, y, 1)[0]
        # scenario shapes are shared across sweep points, so energies scale
        # exactly and the log-log slope is the monomial order to float
        # precision, not merely within a regression tolerance
        assert slope == pytest.approx(m, abs=1e-9)

    def test_rows_sorted_by_value_then_policy(self):
        cfg = SweepConfig(param="gamma", values=(20, 5, 10),
                          policies=("slow-opt", "no-prefetch"), fading="slow",
                          scenarios=2)
        keys = [(row.param_value, row.policy) for row in run_sweep(cfg)]
        assert keys == sorted(keys)
        assert [k[0] for k in keys] == [5.0, 5.0, 10.0, 10.0, 20.0, 20.0]

    def test_prefetching_gain_exceeds_unity_on_random_scenarios(self):
        cfg = SweepConfig(param="N", values=(3, 5, 8), policies=("slow-opt",),
                          fading="slow", scenarios=10, N_P=2)
        for row in run_sweep(cfg):
            assert row.gain > 1.0
            assert row.gain_db > 0.0


class TestRunSweepFast:
    CFG = SweepConfig(param="N", values=(5,), fading="fast",
                      policies=("no-prefetch", "aggressive", "conservative",
                                "noncausal"),
                      trials=2500, scenarios=4, seed=3, N=5, N_P=3, L=3)

    def test_policy_ordering_and_gain(self):
        rows = {row.policy: row for row in run_sweep(self.CFG)}
        assert rows["noncausal"].mean_energy <= rows["aggressive"].mean_energy
        assert rows["noncausal"].mean_energy <= rows["conservative"].mean_energy
        assert rows["aggressive"].mean_energy <= rows["no-prefetch"].mean_energy
        for policy in ("noncausal", "aggressive", "conservative"):
            assert rows[policy].gain_db > 0.0
            assert rows[policy].trials == 2500
            assert rows[policy].stderr > 0.0

    def test_rows_are_paired_across_policy_subsets(self):
        # The gain and task streams are keyed by scenario index only, so a
        # policy's row does not depend on which other policies ran.
        full = {row.policy: row for row in run_sweep(self.CFG)}
        solo_cfg = SweepConfig(param="N", values=(5,), fading="fast",
                               policies=("noncausal",), trials=2500,
                               scenarios=4, seed=3, N=5, N_P=3, L=3)
        solo = run_sweep(solo_cfg)[0]
        assert solo == full["noncausal"]

    def test_deterministic_given_seed(self):
        assert run_sweep(self.CFG) == run_sweep(self.CFG)


class TestGainVsShape:
    CFG = SweepConfig(param="k", values=(2, 4, 8), fading="fast",
                      policies=("noncausal",), scenarios=10, trials=800,
                      seed=7, N=5, N_P=4, L=4)

    def test_requires_a_fast_k_sweep(self):
        with pytest.raises(ConfigError):
            gain_vs_shape(SLOW_GAMMA)

    def test_gain_decreases_with_shape_toward_the_slow_reference(self):
        rows = gain_vs_shape(self.CFG)
        fast = {row.param_value: row for row in rows if row.policy == "fast-optimal"}
        slow = {row.param_value: row for row in rows if row.policy == "slow-opt"}
        gains = [fast[k].gain_db for k in (2.0, 4.0, 8.0)]
        assert gains[0] > gains[1] > gains[2]     # common random numbers
        reference = slow[2.0].gain_db
        assert all(g > reference for g in gains)
        assert len({slow[k].gain_db for k in (2.0, 4.0, 8.0)}) == 1
        for k in (2.0, 4.0, 8.0):
            assert fast[k].trials == 800
            assert slow[k].trials == 0

    def test_slow_reference_matches_the_closed_form_mean(self):
        from livefetch.sweep import _scenario_rng

        rows = gain_vs_shape(self.CFG)
        slow = next(row for row in rows if row.policy == "slow-opt")
        energies = []
        for index in range(self.CFG.scenarios):
            s = generate_scenario(_scenario_rng(self.CFG, index), L=4,
                                  gamma_total=20.0, m=2, N=5, N_P=4)
            energies.append(expected_fetch_energy_slow(optimal_prefetch_slow(s)))
        assert slow.mean_energy == pytest.approx(float(np.mean(energies)), rel=1e-12)

    def test_k_sweep_rows_are_the_shape_sweep_rows(self):
        cfg = replace(self.CFG, policies=("no-prefetch", "noncausal"))
        swept = [row for row in run_sweep(cfg) if row.policy == "noncausal"]
        shape = [row for row in gain_vs_shape(cfg) if row.policy == "fast-optimal"]
        assert [(row.param_value, row.mean_energy, row.stderr, row.gain) for row in swept] \
            == [(row.param_value, row.mean_energy, row.stderr, row.gain) for row in shape]


@lru_cache(maxsize=None)
def unit_rows(cfg: SweepConfig) -> list:
    return run_sweep(cfg)


class TestUnits:
    """``lam`` and ``slow_g`` enter a sweep once, as the unit of its energies."""

    FAST = SweepConfig(param="Np", values=(2, 3), fading="fast", policies=FAST_POLICIES,
                       trials=40, scenarios=3, seed=9, N=5, L=3)
    SLOW = SweepConfig(param="gamma", values=(5, 20), fading="slow",
                       policies=("slow-opt", "no-prefetch"), scenarios=3, seed=9)

    @staticmethod
    def assert_scaled(rows, unit, factor):
        assert len(rows) == len(unit)
        for row, base in zip(rows, unit):
            assert row.mean_energy == pytest.approx(factor * base.mean_energy, rel=1e-15, abs=0)
            assert row.stderr == pytest.approx(factor * base.stderr, rel=1e-15, abs=0)
            assert row.mean_energy_db == pytest.approx(
                base.mean_energy_db + 10.0 * np.log10(factor), abs=1e-12)
            assert replace(row, mean_energy=0.0, mean_energy_db=0.0, stderr=0.0) \
                == replace(base, mean_energy=0.0, mean_energy_db=0.0, stderr=0.0)

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(lam=st.floats(1e-3, 1e3), slow_g=st.floats(0.1, 10.0))
    def test_energy_rows_scale_and_gain_rows_do_not(self, lam, slow_g):
        for cfg, factor in ((self.FAST, lam), (self.SLOW, lam / slow_g)):
            rows = run_sweep(replace(cfg, lam=lam, slow_g=slow_g))
            self.assert_scaled(rows, unit_rows(cfg), factor)

    def test_shape_rows_take_the_units_of_their_fading(self):
        cfg = replace(TestGainVsShape.CFG, scenarios=2, trials=50)
        rows = gain_vs_shape(replace(cfg, lam=2.5, slow_g=4.0))
        unit = gain_vs_shape(cfg)
        for policy, factor in (("fast-optimal", 2.5), ("slow-opt", 2.5 / 4.0)):
            self.assert_scaled([row for row in rows if row.policy == policy],
                               [row for row in unit if row.policy == policy], factor)


class TestCsvBoundary:
    def test_empty_rows_emit_header_only(self):
        buffer = io.StringIO()
        emit_csv([], buffer)
        assert buffer.getvalue() == ",".join(CSV_HEADER) + "\n"

    def test_round_trip_is_exact(self, tmp_path):
        rows = run_sweep(SLOW_GAMMA)
        path = tmp_path / "rows.csv"
        emit_csv(rows, path)
        assert load_rows(path) == rows

    def test_unix_line_endings_and_full_precision(self):
        rows = run_sweep(SLOW_GAMMA)
        buffer = io.StringIO()
        emit_csv(rows, buffer)
        text = buffer.getvalue()
        assert "\r" not in text
        parsed = load_rows(io.StringIO(text))
        assert parsed == rows

    def test_db_columns_are_ten_log_ten(self):
        for row in run_sweep(SLOW_GAMMA):
            assert row.mean_energy_db == pytest.approx(
                10.0 * np.log10(row.mean_energy), abs=1e-12)
            assert row.gain_db == pytest.approx(
                10.0 * np.log10(row.gain), abs=1e-12)

    def test_byte_identical_reruns(self):
        cfg = SweepConfig(param="N", values=(5,), fading="fast",
                          policies=("noncausal", "aggressive"), trials=300,
                          scenarios=2, seed=5, N=5, N_P=3, L=3)
        first, second = io.StringIO(), io.StringIO()
        emit_csv(run_sweep(cfg), first)
        emit_csv(run_sweep(cfg), second)
        assert first.getvalue() == second.getvalue()

    def test_header_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            load_rows(io.StringIO("a,b,c\n1,2,3\n"))
