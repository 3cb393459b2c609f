"""Acceptance gate: eleven end-to-end checks, one test per criterion.

Every test recomputes its quantities from scratch (fixed seeds), prints a
single ``[criterion NN] PASS/FAIL`` line with the measured margins, and
asserts the stated tolerances.  Criterion 8's long-window preference
clause is asserted at face value; it does not hold for this construction
(the two causal policies share the exact per-slot rule, so the one that
reaches the oracle's working set sooner — aggressive — is never behind).
See README, "Acceptance status", for the analysis.
"""

import time

import numpy as np
import pytest
from scipy import integrate, stats

from livefetch.cli import main as cli_main
from livefetch.demand import (build_xi_table, demand_energy_bounds,
                              expected_demand_energy, simulate_demand_batch)
from livefetch.model import (FastGamma, Scenario, SlowFading, expect_over_gain,
                             sample_gain, to_db)
from livefetch.oracles import p5_backward_induction, slow_oracle
from livefetch.prefetch import (PrefetchPolicy, build_prefix_tables,
                                no_prefetch_energy_fast, run_prefetch_batch)
from livefetch.slow import (expected_fetch_energy_slow, gain_lower_bound,
                            optimal_prefetch_slow, prefetch_gain_slow,
                            priorities)
from livefetch.sweep import (SweepConfig, emit_csv, gain_vs_shape,
                             generate_scenario, load_rows, run_sweep)

Z99 = 2.3263478740408408            # one-sided 99% normal quantile

#: benchmark defaults shared by the fast-fading criteria
BENCH = dict(L=4, gamma_total=20.0, m=2, N=5, N_P=4)


def _report(number: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def _random_scenario(rng: np.random.Generator) -> Scenario:
    """Unconstrained shapes: L <= 5, N <= 10, m in {2,3,4}."""
    L = int(rng.integers(1, 6))
    N = int(rng.integers(2, 11))
    N_P = int(rng.integers(1, N))
    m = int(rng.choice([2, 3, 4]))
    return Scenario(m=m, N=N, N_P=N_P, p=rng.dirichlet(np.ones(L)),
                    gamma=rng.uniform(0.5, 10.0, L))


def _plan_kkt_residual(s: Scenario, plan) -> float:
    """Box-constrained stationarity residual of a slow-fading plan at unit gain.

    Interior coordinates must zero the gradient; coordinates at the lower
    box face must have a nonnegative gradient.  (The upper face gamma is
    never active at an optimum: the demand-side derivative vanishes there
    while the prefetch side stays positive.)
    """
    d = s.N - s.N_P
    grad = s.m * ((plan.alpha.sum() / s.N_P) ** (s.m - 1)
                  - s.p * ((s.gamma - plan.alpha) / d) ** (s.m - 1))
    worst = 0.0
    for l in range(s.L):
        if plan.alpha[l] <= 1e-12:
            worst = max(worst, max(0.0, -grad[l]))
        else:
            worst = max(worst, abs(grad[l]))
    return worst


def _golden_min(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    inv = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv * (b - a), a + inv * (b - a)
    while b - a > tol * (1.0 + abs(a) + abs(b)):
        if f(c) < f(d):
            b, d = d, c
            c = b - inv * (b - a)
        else:
            a, c = c, d
            d = a + inv * (b - a)
    return 0.5 * (a + b)


def test_criterion_01_slow_policy_matches_brute_force():
    """Closed-form slow-fading plans agree with an independent grid search."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_obj, worst_kkt = 0.0, 0.0
    for _ in range(200):
        s = _random_scenario(rng)
        plan = optimal_prefetch_slow(s)
        value = expected_fetch_energy_slow(plan)
        ref = slow_oracle(s)
        worst_obj = max(worst_obj, abs(value - ref.objective) / ref.objective)
        worst_kkt = max(worst_kkt, _plan_kkt_residual(s, plan))
    elapsed = time.perf_counter() - t0
    ok = worst_obj <= 1e-4 and worst_kkt < 1e-7 and elapsed < 30.0
    assert _report(1, ok,
                   f"objective rel dev {worst_obj:.2e} (<=1e-4), "
                   f"stationarity residual {worst_kkt:.2e} (<1e-7), "
                   f"{elapsed:.1f}s (<30s) over 200 scenarios")


def test_criterion_02_gain_identity_and_lower_bound():
    """Equal-task gain matches the closed bound; single-uniform families obey it.

    The bound is a theorem on the two families where one of (p, gamma) is
    uniform; doubly-skewed shapes can undershoot it (the module suite pins
    such a counterexample), so the 10^4 random draws alternate between the
    two families.
    """
    t0 = time.perf_counter()
    worst_eq = 0.0
    for L in (1, 2, 3, 4, 6, 8):
        for (N, N_P) in ((2, 1), (5, 4), (10, 3)):
            for m in (2, 3, 4):
                s = Scenario(m=m, N=N, N_P=N_P, p=np.full(L, 1.0 / L),
                             gamma=np.full(L, 20.0 / L))
                worst_eq = max(worst_eq, abs(prefetch_gain_slow(s)
                                             - gain_lower_bound(s)))
    rng = np.random.default_rng(202)
    worst_slack = np.inf
    for trial in range(10_000):
        L = int(rng.integers(1, 9))
        N = int(rng.integers(2, 11))
        N_P = int(rng.integers(1, N))
        m = int(rng.choice([2, 3, 4]))
        if trial % 2:
            p = rng.dirichlet(np.ones(L))
            gamma = np.full(L, 20.0 / L)
        else:
            p = np.full(L, 1.0 / L)
            gamma = rng.uniform(0.5, 10.0, L)
        s = Scenario(m=m, N=N, N_P=N_P, p=p, gamma=gamma)
        worst_slack = min(worst_slack,
                          prefetch_gain_slow(s) - gain_lower_bound(s))
    elapsed = time.perf_counter() - t0
    ok = worst_eq <= 1e-9 and worst_slack >= -1e-9 and elapsed < 10.0
    assert _report(2, ok,
                   f"equal-task dev {worst_eq:.2e} (<=1e-9), "
                   f"bound slack {worst_slack:.2e} (>=-1e-9), "
                   f"{elapsed:.1f}s (<10s) over 10^4 draws")


def test_criterion_03_mean_slow_gain_level():
    """Average slow-fading gain at benchmark defaults sits near 2.3 dB."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    ratios = np.empty(10_000)
    for i in range(ratios.size):
        s = generate_scenario(rng, **BENCH)
        ratios[i] = prefetch_gain_slow(s)
    mean_db = to_db(float(ratios.mean()))
    elapsed = time.perf_counter() - t0
    ok = abs(mean_db - 2.3) <= 0.4 and elapsed < 60.0
    assert _report(3, ok,
                   f"mean gain {mean_db:.3f} dB (2.3 +/- 0.4), "
                   f"{elapsed:.1f}s (<60s) over 10^4 scenarios")


def test_criterion_04_energy_scales_as_exponent_m():
    """Slow-fading mean energy vs total data size is a monomial of degree m."""
    details = []
    ok = True
    for m in (2, 3, 4):
        cfg = SweepConfig(param="gamma", values=(5, 10, 20, 40, 80),
                          policies=("slow-opt",), fading="slow",
                          scenarios=50, m=m, seed=404)
        rows = run_sweep(cfg)
        slope = np.polyfit(np.log([r.param_value for r in rows]),
                           np.log([r.mean_energy for r in rows]), 1)[0]
        ok &= abs(slope - m) <= 0.01
        details.append(f"m={m}: slope {slope:.6f}")
    assert _report(4, ok, ", ".join(details) + " (each within +/-0.01)")


def test_criterion_05_demand_coefficient_sandwich():
    """Every demand coefficient sits between its harmonic-mean and
    mean-inverse bounds, and the point-mass m=2 table is exactly 1/j.

    The upper bound is attained exactly at horizon 1 (the coefficient IS
    the mean inverse gain there), so the comparison allows ulp-level
    rounding between the two independent computations of that number.
    """
    t0 = time.perf_counter()
    worst_rel = 0.0
    for k in (2, 3, 5, 8):
        for m in (2, 3, 4, 5):
            table = build_xi_table(FastGamma(k), m, 6)
            for j in range(1, 7):
                lo, hi = demand_energy_bounds(1.0, FastGamma(k), m, j)
                below = max(0.0, lo - table.xi[j]) / lo
                above = max(0.0, table.xi[j] - hi) / hi
                worst_rel = max(worst_rel, below, above)
    slow_table = build_xi_table(SlowFading(1.0), 2, 6)
    exact = all(slow_table.xi[j] == 1.0 / j for j in range(1, 7))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-12 and exact and elapsed < 1.0
    assert _report(5, ok,
                   f"worst bound violation {worst_rel:.2e} rel (<=1e-12), "
                   f"point-mass 1/j exact: {exact}, {elapsed:.2f}s (<1s)")


def test_criterion_06_demand_simulation_matches_closed_form():
    """Monte-Carlo demand energy matches the coefficient table; the table
    satisfies the one-step optimality recursion on 2-slot instances."""
    t0 = time.perf_counter()
    table = build_xi_table(FastGamma(2), 2, 5)
    rng = np.random.default_rng(606)
    worst_z = 0.0
    for duration in range(1, 6):
        gains = sample_gain(FastGamma(2), rng, (100_000, duration))
        _, energy = simulate_demand_batch(np.full(gains.shape[0], 4.0), gains, table)
        totals = energy.sum(axis=1)
        closed = expected_demand_energy(4.0, table, duration)
        se = totals.std(ddof=1) / np.sqrt(totals.size)
        worst_z = max(worst_z, abs(totals.mean() - closed) / se)

    worst_bellman = 0.0
    for m in (2, 3):
        for k in (2, 4):
            tab = build_xi_table(FastGamma(k), m, 2)
            for beta in (1.0, 4.0):
                def stage(g):
                    def cost(b):
                        return b ** m / g + tab.xi[1] * (beta - b) ** m
                    return cost(_golden_min(cost, 0.0, beta))
                rhs = expect_over_gain(stage, FastGamma(k))
                lhs = expected_demand_energy(beta, tab, 2)
                worst_bellman = max(worst_bellman, abs(lhs - rhs) / lhs)
    elapsed = time.perf_counter() - t0
    ok = worst_z < 3.0 and worst_bellman < 1e-6
    assert _report(6, ok,
                   f"worst |z| {worst_z:.2f} (<3) at 10^5 episodes x durations 1..5, "
                   f"recursion residual {worst_bellman:.2e} (<1e-6), {elapsed:.1f}s")


def test_criterion_07_threshold_monotonicity():
    """Oracle thresholds fall strictly along every episode and start below
    the maximum prefetching priority."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    violations = 0
    head_ok = True
    for _ in range(5):
        s = generate_scenario(rng, **BENCH)
        xi = build_xi_table(FastGamma(2), s.m, s.N - s.N_P)
        tables = build_prefix_tables(s, FastGamma(2), xi)
        gains = sample_gain(FastGamma(2), rng, (2000, s.N))
        realized = rng.choice(s.L, size=2000, p=s.p)
        batch = run_prefetch_batch(s, FastGamma(2),
                                   PrefetchPolicy.NONCAUSAL_ORACLE,
                                   gains, realized, xi=xi,
                                   prefix_tables=tables, trace=True)
        diffs = np.diff(batch.thresholds, axis=1)
        violations += int(np.sum(diffs >= -1e-9))
        head_ok &= bool(np.all(batch.thresholds[:, 0]
                               < priorities(s).max() + 1e-9))
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and head_ok
    assert _report(7, ok,
                   f"monotonicity violations {violations} (=0) over 10^4 episodes, "
                   f"eta_1 below max priority: {head_ok}, {elapsed:.1f}s")


def test_criterion_08_policy_energy_orderings():
    """Paired policy orderings, near-oracle closeness on the panel sweeps,
    and the long-window preference between the two causal estimators.

    The final clause asserts conservative <= aggressive mean energy at
    N=10 with 6- and 8-slot prefetch windows.  It FAILS for this package:
    both estimators execute the same exact set-conditioned slot rule, so
    the aggressive variant — whose working set reaches the oracle's modal
    set one slot earlier — is systematically (if marginally, <0.03 dB)
    ahead.  The clause is asserted anyway rather than weakened; the README
    documents the analysis.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    policy_map = {"noncausal": PrefetchPolicy.NONCAUSAL_ORACLE,
                  "aggressive": PrefetchPolicy.AGGRESSIVE,
                  "conservative": PrefetchPolicy.CONSERVATIVE,
                  "no-prefetch": PrefetchPolicy.NO_PREFETCH}
    energies = {name: [] for name in policy_map}
    for _ in range(25):
        s = generate_scenario(rng, **BENCH)
        xi = build_xi_table(FastGamma(2), s.m, s.N - s.N_P)
        tables = build_prefix_tables(s, FastGamma(2), xi)
        gains = sample_gain(FastGamma(2), rng, (4000, s.N))
        realized = rng.choice(s.L, size=4000, p=s.p)
        for name, pol in policy_map.items():
            batch = run_prefetch_batch(s, FastGamma(2), pol, gains, realized,
                                       xi=xi, prefix_tables=tables)
            energies[name].append(batch.total_energy)
    z_scores = {}
    for low, high in (("noncausal", "aggressive"),
                      ("noncausal", "conservative"),
                      ("aggressive", "no-prefetch"),
                      ("conservative", "no-prefetch")):
        diffs = np.concatenate([hi - lo for lo, hi in
                                zip(energies[low], energies[high])])
        z_scores[f"{low}<={high}"] = (diffs.mean()
                                      / (diffs.std(ddof=1) / np.sqrt(diffs.size)))

    worst_gap = 0.0
    for param, values in (("gamma", (5, 10, 20, 40, 80)),
                          ("L", (1, 2, 4, 8)),
                          ("N", (5, 6, 8, 10))):
        cfg = SweepConfig(param=param, values=values, fading="fast",
                          policies=("aggressive", "conservative", "noncausal"),
                          trials=1500, scenarios=25, seed=808)
        rows = run_sweep(cfg)
        oracle = {r.param_value: r.mean_energy_db for r in rows
                  if r.policy == "noncausal"}
        for r in rows:
            if r.policy != "noncausal":
                worst_gap = max(worst_gap,
                                abs(r.mean_energy_db - oracle[r.param_value]))

    cfg = SweepConfig(param="Np", values=(6, 8), fading="fast", N=10,
                      policies=("aggressive", "conservative"),
                      trials=1500, scenarios=25, seed=808)
    rows = run_sweep(cfg)
    preference = {}
    for value in (6.0, 8.0):
        cons = next(r.mean_energy for r in rows
                    if r.param_value == value and r.policy == "conservative")
        aggr = next(r.mean_energy for r in rows
                    if r.param_value == value and r.policy == "aggressive")
        preference[value] = (cons, aggr)
    elapsed = time.perf_counter() - t0

    orderings_ok = all(z > Z99 for z in z_scores.values())
    closeness_ok = worst_gap <= 1.0
    preference_ok = all(cons <= aggr for cons, aggr in preference.values())
    detail = (
        "orderings z " + ", ".join(f"{k} {v:.2f}" for k, v in z_scores.items())
        + f" (each >{Z99:.2f}); worst oracle gap {worst_gap:.3f} dB (<=1); "
        + "long-window preference "
        + ", ".join(f"Np={v:g}: cons {c:.4f} vs aggr {a:.4f}"
                    for v, (c, a) in preference.items())
        + f"; {elapsed:.1f}s")
    _report(8, orderings_ok and closeness_ok and preference_ok, detail)
    assert orderings_ok, f"paired orderings not significant: {z_scores}"
    assert closeness_ok, f"causal policies stray {worst_gap:.3f} dB from oracle"
    assert preference_ok, (
        "conservative is not ahead at long windows: "
        + ", ".join(f"Np={v:g} cons {c:.4f} > aggr {a:.4f}"
                    for v, (c, a) in preference.items() if c > a))


def test_criterion_09_fast_gain_level_and_shape_sweep():
    """Fast-fading oracle gain beats the slow-fading closed bound at 99%
    confidence, and the gain falls toward the slow value as the channel
    hardens (shape k up)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    ratios = []
    for _ in range(60):
        s = generate_scenario(rng, **BENCH)
        xi = build_xi_table(FastGamma(2), s.m, s.N - s.N_P)
        tables = build_prefix_tables(s, FastGamma(2), xi)
        gains = sample_gain(FastGamma(2), rng, (1500, s.N))
        realized = rng.choice(s.L, size=1500, p=s.p)
        batch = run_prefetch_batch(s, FastGamma(2),
                                   PrefetchPolicy.NONCAUSAL_ORACLE,
                                   gains, realized, xi=xi, prefix_tables=tables)
        ratios.append(no_prefetch_energy_fast(s, xi)
                      / float(batch.total_energy.mean()))
    ratios = np.asarray(ratios)
    bound = gain_lower_bound(Scenario(m=2, N=5, N_P=4,
                                      p=np.full(4, 0.25), gamma=np.full(4, 5.0)))
    lower99 = ratios.mean() - Z99 * ratios.std(ddof=1) / np.sqrt(ratios.size)

    cfg = SweepConfig(param="k", values=(2, 4, 8, 16, 32, 64), fading="fast",
                      policies=("noncausal",), scenarios=40, trials=2000,
                      seed=909)
    rows = gain_vs_shape(cfg)
    fast = {r.param_value: r.gain_db for r in rows if r.policy == "fast-optimal"}
    slow_ref = next(r.gain_db for r in rows if r.policy == "slow-opt")
    seq = [fast[float(k)] for k in (2, 4, 8, 16, 32, 64)]
    nonincreasing = all(a >= b - 1e-9 for a, b in zip(seq, seq[1:]))
    k64_gap = abs(seq[-1] - slow_ref)
    elapsed = time.perf_counter() - t0

    ok = lower99 > bound and nonincreasing and k64_gap <= 0.2
    assert _report(9, ok,
                   f"gain 99% lower {lower99:.4f} > bound {bound:.4f}; "
                   f"shape sweep {' -> '.join(f'{v:.3f}' for v in seq)} dB "
                   f"nonincreasing: {nonincreasing}, k=64 gap to slow "
                   f"{k64_gap:.4f} dB (<=0.2); {elapsed:.1f}s")


def _binned_gain_support(k: int, bins: int):
    """Equal-probability bins of the unit-mean gain law, conditional means.

    Recomputed here by direct quadrature so the cross-check shares no
    arithmetic with the package's own binning.
    """
    edges = stats.gamma.ppf(np.linspace(0.0, 1.0, bins + 1), a=k, scale=1.0 / k)
    reps = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        num, _ = integrate.quad(
            lambda g: g * stats.gamma.pdf(g, a=k, scale=1.0 / k),
            lo, min(hi, 1e3))
        reps.append(num * bins)
    return np.array(reps), np.full(bins, 1.0 / bins)


def test_criterion_10_backward_induction_cross_check():
    """The gridded global dynamic program lands within discretization error
    of hand-solved stage problems on tiny instances."""
    t0 = time.perf_counter()
    reps, weights = _binned_gain_support(2, 16)
    xi_hat = float(np.sum(weights / reps))

    single = Scenario(m=2, N=2, N_P=1, p=np.array([1.0]), gamma=np.array([4.0]))
    exact_single = float(np.sum(weights * xi_hat * 16.0 / (1.0 + xi_hat * reps)))
    res = p5_backward_induction(single, FastGamma(2), bit_grid=41, gain_bins=16)
    rel_single = abs(res.value - exact_single) / exact_single

    pair = Scenario(m=2, N=2, N_P=1, p=np.array([0.6, 0.4]),
                    gamma=np.array([5.0, 3.0]))

    def stage_minimum(g: float) -> float:
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
                best[i] = _golden_min(line, 0.0, hi, tol=1e-10)
            if previous - objective(best) <= 1e-14 * (1.0 + previous):
                break
        return objective(best)

    exact_pair = float(np.sum(weights
                              * np.array([stage_minimum(g) for g in reps])))
    res = p5_backward_induction(pair, FastGamma(2), bit_grid=41, gain_bins=16)
    rel_pair = abs(res.value - exact_pair) / exact_pair

    uniform2 = Scenario(m=2, N=2, N_P=1, p=np.array([0.5, 0.5]),
                        gamma=np.array([4.0, 4.0]))
    rel_slow = 0.0
    for s, g in ((uniform2, 1.0), (pair, 2.0)):
        res = p5_backward_induction(s, SlowFading(g), bit_grid=41)
        exact = expected_fetch_energy_slow(optimal_prefetch_slow(s)) / g
        rel_slow = max(rel_slow, abs(res.value - exact) / exact)
    elapsed = time.perf_counter() - t0

    ok = rel_single <= 0.02 and rel_pair <= 0.02 and rel_slow <= 0.02
    assert _report(10, ok,
                   f"single-task {rel_single:.4%}, two-task {rel_pair:.4%}, "
                   f"point-mass channel {rel_slow:.4%} (each <=2%), "
                   f"{elapsed:.1f}s")


def test_criterion_11_figures_determinism_and_round_trip(tmp_path):
    """The figures command is byte-deterministic for a fixed seed and its
    CSVs survive a parse/serialize round trip exactly."""
    t0 = time.perf_counter()
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = cli_main(["figures", "--out", str(out), "--trials", "40",
                         "--scenarios", "2", "--seed", "11"])
        assert code == 0
    names = sorted(p.name for p in a.iterdir())
    identical = all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
    round_trip = True
    for n in names:
        rows = load_rows(a / n)
        echo = tmp_path / f"echo-{n}"
        emit_csv(rows, echo)
        round_trip &= echo.read_bytes() == (a / n).read_bytes()
    elapsed = time.perf_counter() - t0
    ok = len(names) == 9 and identical and round_trip
    assert _report(11, ok,
                   f"{len(names)} panels byte-identical across reruns: "
                   f"{identical}, parse/serialize round trip exact: "
                   f"{round_trip}, {elapsed:.1f}s")
