"""Independent verification routes for the prefetching policies.

Everything here recomputes optima by another route — grid search plus
coordinate descent for the slow-fading stage problem, a discretized
backward induction for small fast-fading instances, a Monte-Carlo
benchmark for the noncausal policy, and the paper's fast-fading closed
forms — sharing no arithmetic with the episode kernel they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import stats

from .model import POSITIVE_BITS_EPS, Channel, FastGamma, Scenario, SlowFading, sample_gain
from .demand import XiTable, build_xi_table, expected_demand_energy
from .prefetch import (
    PrefetchPolicy,
    ZetaTable,
    build_prefix_tables,
    build_zeta_table,
    expected_total_energy_fast,
    no_prefetch_energy_fast,
    run_prefetch_batch,
)
from .slow import priority_order

__all__ = [
    "OracleResult",
    "InductionResult",
    "BenchmarkResult",
    "slow_oracle",
    "p5_backward_induction",
    "noncausal_benchmark_energy",
    "threshold_eta",
    "decision_vector",
    "noncausal_final_threshold",
    "alpha_from_final_threshold",
    "best_prefix_set",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Brute-force solution of the slow-fading stage problem.

    After refinement the stationarity ``residual`` stays below
    ``1e-6 * m * max(1, sum(gamma))**(m-1)`` (the golden-section interval
    width times the objective's gradient scale).
    """

    objective: float
    alpha: np.ndarray
    residual: float          #: sup-norm violation of the stationarity conditions
    grid_objective: float    #: best value found on the raw grid (before refinement)
    resolution: int


@dataclass(frozen=True, eq=False)
class InductionResult:
    """Discretized dynamic-programming solution of a small fast instance."""

    value: float
    bit_grids: tuple
    gain_values: np.ndarray
    gain_weights: np.ndarray
    demand_values: tuple     #: per-task arrays, final-horizon demand value on the grid


@dataclass(frozen=True)
class BenchmarkResult:
    """Mean stage energy of a simulated policy with its standard error."""

    mean: float
    stderr: float
    trials: int


def _stage_objective(alpha, s: Scenario, g: float) -> float:
    """P3-style objective, written out independently in plain Python."""
    total = 0.0
    for a in alpha:
        total += a
    prefetch = total ** s.m / s.N_P ** (s.m - 1)
    demand = 0.0
    for i in range(s.L):
        demand += s.p[i] * (s.gamma[i] - alpha[i]) ** s.m
    demand /= (s.N - s.N_P) ** (s.m - 1)
    return s.lam / g * (prefetch + demand)


def _golden_section(fun, lo: float, hi: float, tol: float = 1e-8) -> float:
    """Minimize a unimodal function on [lo, hi] to the given interval width."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def slow_oracle(s: Scenario, g: float = 1.0, resolution: int = 21,
                refine: bool = True) -> OracleResult:
    """Brute-force minimization of the slow-fading stage energy.

    Vectorized dense grid over ``[0, gamma]^L`` (the per-axis resolution is
    capped so the grid stays below ~2e5 points), optionally refined by
    cyclic coordinate descent with golden-section line searches — the
    objective is smooth and strictly convex, so the refinement converges to
    the global optimum regardless of the starting point.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution!r}")
    if s.N == s.N_P:
        alpha = s.gamma.copy()
        value = s.lam / g * s.gamma_total ** s.m / s.N_P ** (s.m - 1)
        return OracleResult(objective=value, alpha=alpha, residual=0.0,
                            grid_objective=value, resolution=resolution)

    res_eff = max(2, min(resolution, int(2e5 ** (1.0 / s.L))))
    axes = [np.linspace(0.0, gi, res_eff) for gi in s.gamma]
    mesh = np.meshgrid(*axes, indexing="ij")
    total = np.zeros_like(mesh[0])
    demand = np.zeros_like(mesh[0])
    for i in range(s.L):
        total = total + mesh[i]
        demand = demand + s.p[i] * (s.gamma[i] - mesh[i]) ** s.m
    values = s.lam / g * (total ** s.m / s.N_P ** (s.m - 1)
                          + demand / (s.N - s.N_P) ** (s.m - 1))
    flat_best = int(np.argmin(values))
    unravel = np.unravel_index(flat_best, values.shape)
    alpha = np.array([axes[i][unravel[i]] for i in range(s.L)])
    grid_objective = float(values[unravel])

    best = grid_objective
    if refine:
        alpha = list(alpha)
        for _ in range(200):
            previous = best
            for i in range(s.L):
                def line(x, i=i):
                    trial = list(alpha)
                    trial[i] = x
                    return _stage_objective(trial, s, g)
                alpha[i] = _golden_section(line, 0.0, float(s.gamma[i]))
            best = _stage_objective(alpha, s, g)
            if previous - best <= 1e-13 * (1.0 + abs(best)):
                break
        alpha = np.array(alpha)

    # Stationarity violation of the box-constrained problem at the solution.
    total = float(alpha.sum())
    residual = 0.0
    for i in range(s.L):
        grad = s.lam / g * (s.m * total ** (s.m - 1) / s.N_P ** (s.m - 1)
                            - s.m * s.p[i] * (s.gamma[i] - alpha[i]) ** (s.m - 1)
                            / (s.N - s.N_P) ** (s.m - 1))
        edge = 1e-6 * max(1.0, float(s.gamma[i]))
        if alpha[i] <= edge:
            viol = max(0.0, -grad)
        elif alpha[i] >= s.gamma[i] - edge:
            viol = max(0.0, grad)
        else:
            viol = abs(grad)
        residual = max(residual, viol)

    return OracleResult(objective=best, alpha=np.asarray(alpha, dtype=float),
                        residual=residual, grid_objective=grid_objective,
                        resolution=res_eff)


def _gain_support(channel: Channel, bins: int) -> tuple:
    """Discrete gain support: equal-probability bins with conditional means."""
    if isinstance(channel, SlowFading):
        return np.array([channel.g]), np.array([1.0])
    if not isinstance(channel, FastGamma):
        raise TypeError(f"unknown channel model: {channel!r}")
    k = channel.k
    edges = stats.gamma.ppf(np.linspace(0.0, 1.0, bins + 1), a=k, scale=1.0 / k)
    # E[X | bin] * P(bin) for a unit-mean Gamma(k, rate k) equals the CDF
    # increment of the shape-(k+1) sibling distribution.
    upper = stats.gamma.cdf(edges, a=k + 1, scale=1.0 / k)
    reps = bins * np.diff(upper)
    weights = np.full(bins, 1.0 / bins)
    return reps, weights


def _demand_tables(s: Scenario, grid: np.ndarray, gain_values: np.ndarray,
                   gain_weights: np.ndarray, task: int) -> list:
    """Gridded demand-phase DP values for one task, horizons 0..N-N_P."""
    size = grid.size
    step = grid[1] - grid[0]
    send = (grid[:, None] - grid[None, :])
    invalid = send < 0.0
    cost = np.where(invalid, np.inf, s.lam * np.where(invalid, 0.0, send) ** s.m)
    tables = [np.where(grid > 0.0, np.inf, 0.0)]
    for _ in range(s.N - s.N_P):
        previous = tables[-1]
        value = np.zeros(size)
        for g, wt in zip(gain_values, gain_weights):
            value = value + wt * np.min(cost / g + previous[None, :], axis=1)
        tables.append(value)
    return tables


def p5_backward_induction(s: Scenario, channel: Channel, bit_grid: int = 41,
                          gain_bins: int = 16,
                          no_prefetch: bool = False) -> InductionResult:
    """Discretized exact backward induction over the whole stage.

    States are per-task residual bits on uniform grids (at most 41 points,
    at most two tasks); fast-fading gains are discretized into
    equal-probability bins represented by their conditional means.  With
    ``no_prefetch=True`` the prefetch-phase decisions are pinned to zero.
    The returned value is the expected stage energy from full residuals.
    """
    if s.L > 2:
        raise ValueError("backward induction supports at most two candidate tasks")
    if not 2 <= bit_grid <= 41:
        raise ValueError("bit_grid must lie in [2, 41]")
    if s.N == s.N_P:
        raise ValueError("backward induction requires a demand phase (N > N_P)")
    gain_values, gain_weights = _gain_support(channel, gain_bins)
    grids = tuple(np.linspace(0.0, gi, bit_grid) for gi in s.gamma)
    demand = tuple(_demand_tables(s, grids[t], gain_values, gain_weights, t)
                   for t in range(s.L))

    # Terminal layer: the task realizes right after the last prefetch slot.
    horizon = s.N - s.N_P
    if s.L == 1:
        boundary = s.p[0] * demand[0][horizon]
    else:
        boundary = (s.p[0] * demand[0][horizon][:, None]
                    + s.p[1] * demand[1][horizon][None, :])

    if s.L == 1:
        send = grids[0][:, None] - grids[0][None, :]
        invalid = send < 0.0
        power = np.where(invalid, np.inf, np.where(invalid, 0.0, send) ** s.m)
    else:
        send = (grids[0][:, None, None, None] - grids[0][None, None, :, None]
                + grids[1][None, :, None, None] - grids[1][None, None, None, :])
        invalid = ((grids[0][:, None, None, None] - grids[0][None, None, :, None] < 0.0)
                   | (grids[1][None, :, None, None] - grids[1][None, None, None, :] < 0.0))
        power = np.where(invalid, np.inf, np.where(invalid, 0.0, send) ** s.m)

    value = boundary
    for _ in range(s.N_P):
        if no_prefetch:
            continue
        new_value = np.zeros_like(value)
        if s.L == 1:
            for g, wt in zip(gain_values, gain_weights):
                new_value = new_value + wt * np.min(
                    s.lam * power / g + value[None, :], axis=1)
        else:
            flat = value.reshape(-1)
            shaped = power.reshape(bit_grid, bit_grid, -1)
            for g, wt in zip(gain_values, gain_weights):
                new_value = new_value + wt * np.min(
                    s.lam * shaped / g + flat[None, None, :], axis=2)
        value = new_value

    if s.L == 1:
        total = float(value[-1])
    else:
        total = float(value[-1, -1])
    return InductionResult(value=total, bit_grids=grids, gain_values=gain_values,
                           gain_weights=gain_weights,
                           demand_values=tuple(d[horizon] for d in demand))


def noncausal_benchmark_energy(s: Scenario, channel: Channel, trials: int = 10_000,
                               rng: Optional[np.random.Generator] = None,
                               xi: Optional[XiTable] = None,
                               prefix_tables=None) -> BenchmarkResult:
    """Mean stage energy of the noncausal-oracle policy, with standard error.

    Slow fading is deterministic up to the task realization, which is
    averaged analytically (standard error zero).  Fast fading runs a
    Monte-Carlo batch of ``trials`` episodes.
    """
    if s.N == s.N_P:
        raise ValueError("the benchmark requires a demand phase (N > N_P)")
    d = s.N - s.N_P
    if xi is None:
        xi = build_xi_table(channel, s.m, d)
    if prefix_tables is None:
        prefix_tables = build_prefix_tables(s, channel, xi)
    if isinstance(channel, SlowFading):
        gains = np.full((1, s.N), channel.g)
        batch = run_prefetch_batch(s, channel, PrefetchPolicy.NONCAUSAL_ORACLE,
                                   gains, np.zeros(1, dtype=int),
                                   xi=xi, prefix_tables=prefix_tables)
        energy = float(batch.prefetch_energy[0])
        for task in range(s.L):
            beta = float(batch.final_rho[0, task])
            energy += s.p[task] * expected_demand_energy(beta, xi, d, lam=s.lam)
        return BenchmarkResult(mean=energy, stderr=0.0, trials=1)
    if rng is None:
        raise ValueError("rng is required for fast-fading benchmarks")
    if trials < 2:
        raise ValueError("at least two trials are needed for a standard error")
    gains = sample_gain(channel, rng, (trials, s.N))
    realized = rng.choice(s.L, size=trials, p=s.p)
    batch = run_prefetch_batch(s, channel, PrefetchPolicy.NONCAUSAL_ORACLE,
                               gains, realized, xi=xi, prefix_tables=prefix_tables)
    total = batch.total_energy
    mean = float(total.mean())
    stderr = float(total.std(ddof=1) / math.sqrt(trials))
    return BenchmarkResult(mean=mean, stderr=stderr, trials=trials)


def _check_slot_state(rho: np.ndarray, slot: int, s: Scenario) -> None:
    if not 1 <= slot <= s.N_P:
        raise ValueError(f"slot {slot} outside the prefetch phase 1..{s.N_P}")
    if rho.shape != s.gamma.shape:
        raise ValueError("rho must have one entry per candidate task")
    if np.any(rho < -POSITIVE_BITS_EPS):
        raise ValueError("residual bits must be nonnegative")


def _members_array(s: Scenario, task_set) -> np.ndarray:
    members = sorted({int(i) for i in task_set})
    if not members:
        raise ValueError("task_set must be nonempty")
    if members[0] < 0 or members[-1] >= s.L:
        raise IndexError(f"task indices {members} out of range for L={s.L}")
    return np.array(members, dtype=int)


def threshold_eta(rho: np.ndarray, slot: int, g: float, s: Scenario, task_set,
                  zeta: ZetaTable, xi: XiTable) -> float:
    """Closed-form prefetch threshold at prefetch slot ``slot`` (1-based).

    ``rho`` holds the residual bits per task.  Before the final prefetch
    slot the continuation runs through the zeta coefficient at ``N - n``
    slots-to-deadline; at the final prefetch slot (``n == N_P``) it couples
    directly into the demand table:

        n < N_P:  eta = sum_S rho * u_z / ((g**(1/(m-1)) + u_z) * A)
        n == N_P: eta = sum_S rho * u_xi / (g**(1/(m-1)) + u_xi * A).

    Exact while every member of the set is interior (strictly positive
    decision); the episode kernel switches to an active-prefix solve when
    that fails.
    """
    _check_slot_state(rho, slot, s)
    if not (np.isfinite(g) and g > 0.0):
        raise ValueError(f"channel gain must be strictly positive, got {g!r}")
    idx = _members_array(s, task_set)
    root = 1.0 / (s.m - 1)
    mass = float(np.sum(s.p[idx] ** (-root)))
    residual = float(np.sum(rho[idx]))
    u_g = g ** root
    if slot < s.N_P:
        u_z = zeta.u(s.N - slot)
        return residual * u_z / ((u_g + u_z) * mass)
    u_xi = xi.inv_root[s.N - s.N_P]
    return residual * u_xi / (u_g + u_xi * mass)


def decision_vector(rho: np.ndarray, slot: int, eta: float, s: Scenario) -> np.ndarray:
    """Per-task bits to prefetch in ``slot`` under threshold ``eta``.

    Applies ``[rho - eta * p**(-1/(m-1))]+`` to *every* task; tasks whose
    priority falls below the threshold get zero on their own.  Decisions
    never exceed the residual.
    """
    _check_slot_state(rho, slot, s)
    if eta < 0.0 or not np.isfinite(eta):
        raise ValueError(f"threshold must be nonnegative and finite, got {eta!r}")
    w = s.p ** (-1.0 / (s.m - 1))
    return np.clip(rho - eta * w, 0.0, np.maximum(rho, 0.0))


def noncausal_final_threshold(rho: np.ndarray, slot: int, future_gains, s: Scenario,
                              task_set, zeta: ZetaTable, xi: XiTable) -> float:
    """Final-slot threshold computed with the remaining gains revealed.

    Given the gains of slots ``n..N_P``, the threshold the policy will end
    up applying in slot ``N_P`` is a cascade: the exact final-slot formula
    evaluated at the current residuals, damped once per intermediate slot by
    the fraction of the target-set residual that survives it,

        eta_NP = sum_S rho_n * u_xi / (u_g(N_P) + u_xi * A)
                 * prod_{k=n}^{N_P-1} u_z(N-k) / (u_g(k) + u_z(N-k)).

    At ``n == N_P`` the product is empty and this is the exact threshold.
    """
    _check_slot_state(rho, slot, s)
    gains = np.asarray(future_gains, dtype=float)
    expected = s.N_P - slot + 1
    if gains.ndim != 1 or gains.size != expected:
        raise ValueError(f"need gains for slots {slot}..{s.N_P} ({expected} values)")
    if np.any(gains <= 0.0):
        raise ValueError("all gains must be strictly positive")
    idx = _members_array(s, task_set)
    root = 1.0 / (s.m - 1)
    mass = float(np.sum(s.p[idx] ** (-root)))
    residual = float(np.sum(rho[idx]))
    u_xi = xi.inv_root[s.N - s.N_P]
    value = residual * u_xi / (gains[-1] ** root + u_xi * mass)
    for offset, k in enumerate(range(slot, s.N_P)):
        u_z = zeta.u(s.N - k)
        value *= u_z / (gains[offset] ** root + u_z)
    return value


def alpha_from_final_threshold(s: Scenario, eta_final: float) -> np.ndarray:
    """Total bits each task ends up prefetching over the whole phase.

    The slot thresholds telescope, so only the final one matters:
    ``alpha = [gamma - eta_final * p**(-1/(m-1))]+``.
    """
    if eta_final < 0.0 or not np.isfinite(eta_final):
        raise ValueError(f"threshold must be nonnegative and finite, got {eta_final!r}")
    w = s.p ** (-1.0 / (s.m - 1))
    return np.maximum(s.gamma - eta_final * w, 0.0)


def best_prefix_set(s: Scenario, channel: Channel, xi: XiTable,
                    exhaustive: bool = False) -> tuple:
    """Minimize the locked-set energy *formula* over candidate target sets.

    Searches the priority-ordered prefixes (plus the empty set); with
    ``exhaustive=True`` every subset is scanned instead (L <= 10).  Returns
    ``(task_set, energy, zeta_or_none)``.

    The formula assumes every member stays active in every prefetch slot,
    so for sets the execution would clamp it is an unattainably low bound
    and the argmin can overshoot the realizable best set; the noncausal
    policy of ``run_prefetch_batch`` scores realized executions instead.
    """
    best = (frozenset(), no_prefetch_energy_fast(s, xi), None)
    if exhaustive:
        if s.L > 10:
            raise ValueError("exhaustive subset search is limited to L <= 10")
        candidates = [tuple(i for i in range(s.L) if mask >> i & 1)
                      for mask in range(1, 1 << s.L)]
    else:
        order = priority_order(s)
        candidates = [tuple(order[:k]) for k in range(1, s.L + 1)]
    for members in candidates:
        zeta = build_zeta_table(s, channel, members, xi)
        energy = expected_total_energy_fast(s, members, zeta)
        if energy < best[1]:
            best = (frozenset(members), energy, zeta)
    return best
