"""Sweep harness: config validation, pairing, aggregation, CSV boundary."""

import io
import pathlib
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from livefetch import sweep
from livefetch.demand import build_xi_table
from livefetch.model import FastGamma, Scenario, sample_gain
from livefetch.prefetch import (
    PrefetchPolicy,
    build_prefix_tables,
    no_prefetch_energy_fast,
    run_prefetch_batch,
)
from livefetch.slow import (
    expected_fetch_energy_slow,
    gain_lower_bound,
    no_prefetch_energy_slow,
    optimal_prefetch_slow,
)
from livefetch.sweep import (
    CSV_HEADER,
    FAST_POLICIES,
    SLOW_POLICIES,
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
        dict(param="L", values=(True,), policies=("slow-opt",)),
        dict(param="Np", values=(np.True_, 2), policies=("slow-opt",)),
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
        dict(param="L", values=(3,), policies=("slow-opt",), uniform="no"),
        dict(param="L", values=(3,), policies=("slow-opt",), uniform="false"),
        dict(param="L", values=(3,), policies=("slow-opt",), uniform=1),
        dict(param="gamma", values=(1,), policies=("slow-opt",), trials=2.5),
        dict(param="gamma", values=(1,), policies=("slow-opt",), scenarios=2.5),
        dict(param="gamma", values=(1,), policies=("slow-opt",), L=2.5),
        dict(param="gamma", values=(1,), policies=("slow-opt",), L=True),
        dict(param="gamma", values=(1,), policies=("slow-opt",), N=5.5),
        dict(param="gamma", values=(1,), policies=("slow-opt",), N_P=2.0),
        dict(param="gamma", values=(1,), policies=("slow-opt",), seed=1.5),
        dict(param="gamma", values=(1,), policies=("slow-opt",), seed=-1),
        dict(param="Np", values=(6,), policies=("slow-opt",), N=5),      # N_P > N
        dict(param="Np", values=(5,), policies=("no-prefetch",), N=5),   # no demand phase
        dict(param="Np", values=(5,), policies=("noncausal",), N=5, fading="fast"),
        dict(param="gamma", values=1.0, policies=("slow-opt",)),        # not iterable
        dict(param="gamma", values=(5.0,), policies=None),
        # A repeated value or policy would write the same row twice.
        dict(param="gamma", values=(5, 5.0), policies=("slow-opt",)),
        dict(param="N", values=(5, 6, 5), policies=("slow-opt",)),
        dict(param="gamma", values=(5,), policies=("slow-opt", "slow-opt")),
        dict(param="L", values=(2,), policies=("noncausal", "aggressive", "noncausal"),
             fading="fast"),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SweepConfig(**kwargs)

    @pytest.mark.parametrize("fading, unit", [("slow", 2.5 / 4.0), ("fast", 2.5)])
    def test_unit_is_lam_over_the_gain_under_slow_fading(self, fading, unit):
        cfg = SweepConfig(param="gamma", values=(5,), policies=("no-prefetch",),
                          fading=fading, lam=2.5, slow_g=4.0)
        assert cfg.unit == unit

    @pytest.mark.parametrize("key", ["lam", "slow_g", "gamma_total"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_scales_rejected(self, key, value):
        with pytest.raises(ConfigError):
            SweepConfig(param="gamma", values=(1,), policies=("slow-opt",), **{key: value})

    @pytest.mark.parametrize("key", ["lam", "slow_g", "gamma_total"])
    @pytest.mark.parametrize("value", [True, np.True_, "2", None])
    def test_scales_are_real_numbers(self, key, value):
        # A bool or a string is not a scale: ``lam=True`` would weigh every
        # energy by one and ``lam="2"`` fail in arithmetic, not in the check.
        with pytest.raises(ConfigError, match=key):
            SweepConfig(param="gamma", values=(1,), policies=("slow-opt",), **{key: value})

    @pytest.mark.parametrize("param", ["gamma", "L", "N"])
    @pytest.mark.parametrize("value", [True, False, np.True_, "5", b"5", None])
    def test_values_are_real_numbers(self, param, value):
        with pytest.raises(ConfigError, match="real numbers"):
            SweepConfig(param=param, values=(value, 2), policies=("slow-opt",), N=20)

    @pytest.mark.parametrize("key, value", [("values", "12"), ("policies", "slow-opt")])
    def test_a_string_is_not_a_sequence(self, key, value):
        # A string would be read, and reported, character by character.
        fields = dict(param="gamma", values=(1,), policies=("slow-opt",))
        with pytest.raises(ConfigError, match=f"{key} must be a sequence, not the string"):
            SweepConfig(**{**fields, key: value})

    def test_values_of_any_iterable(self):
        # A generator is read once, not taken for an empty sweep, and an
        # array is not tested for truth.
        for values in ((v for v in [1.0, 2.0]), np.array([1.0, 2.0]), [1.0, 2.0]):
            cfg = SweepConfig(param="gamma", values=values, policies=("slow-opt",))
            assert cfg.values == (1.0, 2.0)
        for values in ((v for v in []), np.array([])):
            with pytest.raises(ConfigError, match="nonempty"):
                SweepConfig(param="gamma", values=values, policies=("slow-opt",))

    def test_the_reported_config_is_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(param="gamma", values=(True, 2), policies=("slow-opt",), lam=True,
                        slow_g=True, gamma_total=True)

    def test_numpy_reals_are_scales_and_values(self):
        cfg = SweepConfig(param="gamma", values=(np.float32(2.5), np.int64(3)),
                          policies=("slow-opt",), lam=np.float64(2.0), slow_g=np.int64(3))
        assert cfg.values == (2.5, 3.0) and (cfg.lam, cfg.slow_g) == (2.0, 3)

    @pytest.mark.parametrize("param", ["gamma", "L"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, param, value):
        with pytest.raises(ConfigError):
            SweepConfig(param=param, values=(2, value), policies=("slow-opt",))

    def test_numpy_integers_are_integers(self):
        # One integer rule (``model._integer_in``) for every count; the
        # config stores plain ints.
        cfg = SweepConfig(param="Np", values=(np.int64(2),), policies=("slow-opt",),
                          m=np.int64(2), k=np.int32(3), L=np.int64(3), N=np.int16(5),
                          N_P=np.uint8(4), trials=np.int64(5), scenarios=np.int64(2),
                          seed=np.int64(7))
        fields = ("m", "k", "L", "N", "N_P", "trials", "scenarios", "seed")
        assert [getattr(cfg, key) for key in fields] == [2, 3, 3, 5, 4, 5, 2, 7]
        assert all(type(getattr(cfg, key)) is int for key in fields)
        assert cfg.values == (2.0,)

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

    @pytest.mark.parametrize("L", [2.0, True, 0, -1])
    def test_task_count_must_be_a_positive_integer(self, L):
        # Checked before anything is drawn: the generator is left untouched.
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="must be an integer"):
            generate_scenario(rng, L=L, gamma_total=1.0, m=2, N=3, N_P=1)
        assert rng.random() == np.random.default_rng(3).random()

    def test_valid_calls_draw_the_same_scenarios(self):
        # Pinned bit for bit: a draw of three tasks, a uniform one with a
        # numpy count, a single task, and the generator's state after them.
        rng = np.random.default_rng(7)
        pinned = [
            (3, 20.0, False, ["0x1.168bd39c9057fp-2", "0x1.8fcdc0948167cp-2",
                              "0x1.59a66bceee406p-2"],
             ["0x1.9c1f91e0d2ea2p+1", "0x1.12a5f45ff4842p+2", "0x1.8fa52157d1036p+3"]),
            (np.int64(2), 1.0, True, ["0x1.0p-1"] * 2, ["0x1.0p-1"] * 2),
            (1, 5.0, False, ["0x1.0p+0"], ["0x1.4p+2"]),
        ]
        for L, gamma_total, uniform, p, gamma in pinned:
            s = generate_scenario(rng, L=L, gamma_total=gamma_total, m=2, N=5, N_P=2,
                                  uniform=uniform)
            assert s.p.tolist() == [float.fromhex(x) for x in p]
            assert s.gamma.tolist() == [float.fromhex(x) for x in gamma]
        assert rng.random() == 0.7970694287520462

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


def direct_rows(cfg: SweepConfig) -> list:
    """The rows of a non-``k`` sweep with every point simulated at its own scale.

    Each point draws its scenario at its own ``gamma_total`` from the same
    substreams as :func:`run_sweep`, and runs the policies on it directly.
    """
    rows = []
    for value in cfg.values:
        dims = cfg._dims(value)
        energies = {policy: [] for policy in cfg.policies}
        gains = {policy: [] for policy in cfg.policies}
        for index in range(cfg.scenarios):
            s = generate_scenario(sweep._scenario_rng(cfg, index), L=dims["L"],
                                  gamma_total=dims["gamma_total"], m=cfg.m,
                                  N=dims["N"], N_P=dims["N_P"])
            if cfg.fading == "slow":
                base = no_prefetch_energy_slow(s)
                scored = {"no-prefetch": base,
                          "slow-opt": expected_fetch_energy_slow(optimal_prefetch_slow(s))}
            else:
                channel = FastGamma(dims["k"])
                xi = build_xi_table(channel, s.m, s.N - s.N_P)
                tables = build_prefix_tables(s, channel, xi)
                base = no_prefetch_energy_fast(s, xi)
                episode_gains = sample_gain(
                    channel, sweep._scenario_rng(cfg, index, sweep._TAG_GAINS),
                    (cfg.trials, s.N))
                realized = sweep._scenario_rng(cfg, index, sweep._TAG_TASKS).choice(
                    s.L, size=cfg.trials, p=s.p)
                scored = {policy: float(run_prefetch_batch(
                    s, channel, PrefetchPolicy(policy), episode_gains, realized, xi=xi,
                    prefix_tables=tables).total_energy.mean()) for policy in cfg.policies}
            for policy in cfg.policies:
                energies[policy].append(scored[policy])
                gains[policy].append(base / scored[policy])
        rows += [(float(value), policy, float(np.mean(energies[policy])),
                  float(np.mean(gains[policy]))) for policy in cfg.policies]
    return sorted(rows)


class TestUnitScale:
    """Sweeps simulate at unit total data and scale each scenario by ``gamma_total**m``."""

    @pytest.mark.parametrize("cfg", [
        SweepConfig(param="gamma", values=(0.5, 5, 20, 80, 3e3), fading="fast",
                    policies=FAST_POLICIES, trials=200, scenarios=3, seed=4,
                    m=3, L=4, N=6, N_P=4),
        SweepConfig(param="gamma", values=(1e-3, 5, 20, 1e4), fading="slow",
                    policies=SLOW_POLICIES, scenarios=6, seed=4, m=4, L=5),
        SweepConfig(param="L", values=(1, 2, 5, 8), fading="fast", gamma_total=7.5,
                    policies=FAST_POLICIES, trials=200, scenarios=3, seed=5),
    ], ids=["fast-gamma", "slow-gamma", "fast-L"])
    def test_rows_match_simulating_every_point_at_its_own_scale(self, cfg):
        rows = run_sweep(cfg)
        direct = direct_rows(cfg)
        assert [(row.param_value, row.policy) for row in rows] \
            == [(value, policy) for value, policy, _, _ in direct]
        for row, (_, _, energy, gain) in zip(rows, direct):
            assert row.mean_energy == pytest.approx(energy, rel=1e-12, abs=0.0)
            assert row.gain == pytest.approx(gain, rel=1e-12, abs=0.0)

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """The policies of every ``run_prefetch_batch`` call a sweep makes."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return run_prefetch_batch(*args, **kwargs)

        monkeypatch.setattr(sweep, "run_prefetch_batch", counting)
        return calls

    def test_a_gamma_sweep_simulates_each_scenario_once(self, kernel_calls):
        cfg = SweepConfig(param="gamma", values=(5, 10, 20, 40, 80), fading="fast",
                          policies=FAST_POLICIES, trials=30, scenarios=3, seed=2)
        rows = run_sweep(cfg)
        assert len(kernel_calls) == cfg.scenarios * len(FAST_POLICIES)
        assert len(rows) == len(cfg.values) * len(FAST_POLICIES)

    def test_other_sweeps_simulate_every_point(self, kernel_calls):
        cfg = SweepConfig(param="Np", values=(1, 2, 3), fading="fast",
                          policies=("aggressive",), trials=30, scenarios=2, seed=2)
        run_sweep(cfg)
        assert len(kernel_calls) == cfg.scenarios * len(cfg.values)

    @pytest.mark.parametrize("gamma_total", [20.0, 7.3, 1e-3])
    def test_a_single_task_has_no_spread_under_slow_fading(self, gamma_total):
        # Every scenario with one task is the same stage, so the standard
        # error must be exactly zero, not a rounding residue.
        cfg = SweepConfig(param="L", values=(1, 3), fading="slow", policies=SLOW_POLICIES,
                          scenarios=7, seed=3, gamma_total=gamma_total, m=3)
        for row in run_sweep(cfg):
            if row.param_value == 1.0:
                assert row.stderr == 0.0


class TestCsvBoundary:
    def test_header_is_the_nine_row_fields_in_order(self):
        assert CSV_HEADER == ("param", "param_value", "policy", "mean_energy",
                              "mean_energy_db", "stderr", "gain", "gain_db", "trials")

    @pytest.mark.parametrize("as_path", [str, pathlib.Path])
    def test_path_round_trip_is_exact_and_utf8(self, tmp_path, as_path):
        rows = [SweepRow(param="\u03b3", param_value=5e-324, policy="r\u00e9f",
                         mean_energy=1.7976931348623157e308, mean_energy_db=0.1 + 0.2,
                         stderr=0.0, gain=1e-300, gain_db=-0.0, trials=2 ** 40),
                run_sweep(SLOW_GAMMA)[0]]
        path = tmp_path / "rows.csv"
        emit_csv(rows, as_path(path))
        assert load_rows(as_path(path)) == rows
        record = path.read_bytes().decode("utf-8").splitlines()[1]
        assert record == ("\u03b3,5e-324,r\u00e9f,1.7976931348623157e+308,"
                          "0.30000000000000004,0.0,1e-300,-0.0,1099511627776")

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
        with pytest.raises(ConfigError, match="line 1: unexpected CSV header"):
            load_rows(io.StringIO("a,b,c\n1,2,3\n"))

    def test_empty_file_rejected(self):
        with pytest.raises(ConfigError, match="line 1: the CSV is empty"):
            load_rows(io.StringIO(""))

    @pytest.mark.parametrize("cut", [1, 8, 10])
    def test_record_with_another_field_count_rejected(self, cut):
        buffer = io.StringIO()
        emit_csv(run_sweep(SLOW_GAMMA)[:2], buffer)
        head, first, second = buffer.getvalue().splitlines()
        fields = (second + ",0.5").split(",")[:cut]
        text = "\n".join([head, first, "", ",".join(fields)]) + "\n"
        with pytest.raises(ConfigError, match=f"line 4: expected 9 fields, got {cut}"):
            load_rows(io.StringIO(text))

    def test_record_with_a_bad_number_rejected(self):
        text = ",".join(CSV_HEADER) + "\ngamma,20.0,slow-opt,x,0,0,1,0,5\n"
        with pytest.raises(ConfigError, match="line 2: could not convert string to float"):
            load_rows(io.StringIO(text))


@pytest.mark.parametrize("L", [0, -2])
def test_no_task_config_rejected(L):
    # Reaches the geometry check of every sweep point: no sweep runs with no task.
    with pytest.raises(ConfigError, match="L="):
        SweepConfig(param="gamma", values=(20,), policies=("slow-opt",), L=L)
