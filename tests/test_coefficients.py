"""Demand and prefetch coefficient tables against an independent route.

The tables are chains of one map, ``u -> E[(g**(1/(m-1)) + u)**-(m-1)]``,
evaluated by a double-exponential rule.  Here every entry is rebuilt by a
scalar recursion of adaptive quadratures in the gain itself, under a pure
relative tolerance, and compared entry by entry.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from livefetch import cli, model
from livefetch.demand import build_xi_table
from livefetch.model import FastGamma, QuadratureError, Scenario, coefficient_chain
from livefetch.prefetch import build_prefix_tables, build_zeta_table
from livefetch.slow import priority_order
from livefetch.sweep import generate_scenario

RTOL = 1e-12


def quad_entry(k: int, m: int, u: float) -> float:
    """``E[(g**(1/(m-1)) + u)**-(m-1)]`` for a unit-mean Gamma(k) gain."""
    log_c = k * math.log(k) - math.lgamma(k)

    def integrand(g):
        if g <= 0.0:
            return 0.0
        return (g ** (1.0 / (m - 1)) + u) ** (-(m - 1)) * math.exp(
            log_c + (k - 1) * math.log(g) - k * g)

    return sum(integrate.quad(integrand, a, b, epsabs=0.0, epsrel=2e-14, limit=200)[0]
               for a, b in ((0.0, 1.0), (1.0, math.inf)))


def quad_chain(k: int, m: int, u: float, steps: int) -> list:
    """``steps`` entries of the recursion started from the root ``u``."""
    entries = []
    for _ in range(steps):
        entries.append(quad_entry(k, m, u))
        u = (1.0 / entries[-1]) ** (1.0 / (m - 1))
    return entries


def check_against_quadrature(s: Scenario, k: int) -> float:
    """Compare xi and every prefix table with the scalar route; the largest start."""
    channel = FastGamma(k)
    d = s.N - s.N_P
    root = 1.0 / (s.m - 1)
    xi = build_xi_table(channel, s.m, d)
    ref_xi = [k / (k - 1.0)] + quad_chain(k, s.m, ((k - 1.0) / k) ** root, d - 1)
    np.testing.assert_allclose(xi.xi[1:], ref_xi, rtol=RTOL, atol=0.0)
    u_xi = (1.0 / ref_xi[-1]) ** root
    order = priority_order(s)
    starts = []
    for size, table in enumerate(build_prefix_tables(s, channel, xi), start=1):
        mass = float(np.sum(s.p[order[:size]] ** (-root)))
        starts.append(u_xi * mass)
        ref = quad_chain(k, s.m, starts[-1], s.N_P)
        np.testing.assert_allclose(table.zeta, ref, rtol=RTOL, atol=0.0)
    return max(starts)


class TestAgainstScalarQuadrature:
    @pytest.mark.parametrize("k", [2, 3, 8, 64])
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_every_entry(self, m, k):
        s = generate_scenario(np.random.default_rng(10 * m + k), L=8, gamma_total=20.0,
                              m=m, N=10, N_P=6)
        check_against_quadrature(s, k)

    def test_wide_scenario_reaches_large_starts(self):
        # At L=64, m=5 the widest prefix starts its chain near u = 180, where
        # an absolute quadrature tolerance costs about 4e-8 relative.
        s = generate_scenario(np.random.default_rng(5), L=64, gamma_total=20.0,
                              m=5, N=10, N_P=8)
        assert check_against_quadrature(s, 2) > 100.0

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(L=st.integers(1, 16), m=st.integers(2, 5),
           k=st.sampled_from([2, 3, 8, 20, 128]), N=st.integers(2, 10),
           data=st.data())
    def test_random_scenarios(self, L, m, k, N, data):
        N_P = data.draw(st.integers(1, N - 1), label="N_P")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        uniform = data.draw(st.booleans(), label="uniform")
        s = generate_scenario(np.random.default_rng(seed), L=L, gamma_total=20.0,
                              m=m, N=N, N_P=N_P, uniform=uniform)
        check_against_quadrature(s, k)


class TestOnePath:
    @pytest.mark.parametrize("m,k,L", [(2, 2, 5), (3, 8, 16), (5, 2, 64), (4, 128, 9)])
    def test_prefix_tables_equal_single_set_tables(self, m, k, L):
        s = generate_scenario(np.random.default_rng(m + k + L), L=L, gamma_total=20.0,
                              m=m, N=10, N_P=7)
        channel = FastGamma(k)
        xi = build_xi_table(channel, m, 3)
        order = priority_order(s)
        for size, table in enumerate(build_prefix_tables(s, channel, xi), start=1):
            single = build_zeta_table(s, channel, order[:size], xi)
            assert table.task_set == single.task_set
            assert table.zeta == single.zeta
            assert table.inv_root == single.inv_root

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [2, 3, 7, 200])
    def test_first_demand_coefficient_is_exact(self, m, k):
        assert build_xi_table(FastGamma(k), m, 4).xi[1] == k / (k - 1)


@pytest.fixture
def cold_rules():
    """Empty the rule cache before and after the test."""
    model._root_gain_rule.cache_clear()
    yield
    model._root_gain_rule.cache_clear()


class TestRuleFailures:
    def test_step_cap_raises(self, monkeypatch, cold_rules):
        monkeypatch.setattr(model, "DE_MAX_HALVINGS", 0)
        with pytest.raises(QuadratureError):
            build_xi_table(FastGamma(3), 3, 4)

    def test_step_cap_exits_three(self, monkeypatch, cold_rules, capsys):
        monkeypatch.setattr(model, "DE_MAX_HALVINGS", 0)
        code = cli.main(["sweep", "--param", "gamma", "--values", "20", "--fading", "fast",
                         "--trials", "5", "--scenarios", "1"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("m, steps", [(True, 2), (1, 2), (2.0, 2), (2, 2.0), (2, True),
                                          (2, -1)],
                             ids=["bool-m", "m-below-2", "float-m", "float-steps", "bool-steps",
                                  "negative-steps"])
    def test_counts_must_be_integers(self, m, steps):
        # A float or a bool is a ValueError, not numpy's TypeError or a
        # ZeroDivisionError from 1/(m-1).
        with pytest.raises(ValueError, match="must be an integer"):
            coefficient_chain(FastGamma(2), m, [1.0], steps)

    def test_zero_steps_is_an_empty_chain(self):
        entries, roots = coefficient_chain(FastGamma(2), 3, [1.0, 2.0], 0)
        assert entries.shape == roots.shape == (2, 0)

    def test_non_finite_entry_raises(self):
        # No start that the chain accepts makes an entry non-finite, so the
        # rule's own moment is fed one.
        rule = model._root_gain_rule(3, 2)
        with pytest.raises(QuadratureError):
            model._rule_moment(rule, 3, np.array([1.0, math.nan]))

    @pytest.mark.parametrize("m, start", [(2, [-0.5]), (3, [-1.0]), (3, [1.0, math.nan]),
                                          (2, [-math.inf])],
                             ids=["negative-m2", "negative-m3", "nan", "minus-inf"])
    def test_starts_must_be_at_least_zero(self, m, start):
        # A root is a nonnegative number: a negative start once gave negative
        # entries of a positive expectation, or a QuadratureError.
        with pytest.raises(ValueError, match="start"):
            coefficient_chain(FastGamma(2), m, start, 2)

    def test_an_infinite_start_has_zero_entries(self):
        # An overflow upstream can pass an infinite root; it stays accepted.
        with np.errstate(divide="ignore"):
            entries, roots = coefficient_chain(FastGamma(2), 2, [math.inf], 2)
        assert np.all(entries == 0.0) and np.all(roots == math.inf)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_rules_build_in_the_cli_error_mode(self, m, cold_rules):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                for k in (2, 64, 200):
                    entries, _ = coefficient_chain(FastGamma(k), m, [0.5, 200.0], 3)
                    assert np.all(entries > 0.0)
