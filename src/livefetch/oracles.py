"""Independent verification routes for the prefetching policies.

Everything here recomputes optima by another route — grid search plus
coordinate descent for the slow-fading stage problem, a discretized
backward induction for small fast-fading instances, and the paper's
fast-fading closed forms — sharing no arithmetic with the episode kernel
they check.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .model import POSITIVE_BITS_EPS, Channel, FastGamma, Scenario, SlowFading
from .demand import XiTable
from .prefetch import (
    ZetaTable,
    build_zeta_table,
    expected_total_energy_fast,
    no_prefetch_energy_fast,
)
from .slow import priority_order

__all__ = [
    "OracleResult",
    "InductionResult",
    "slow_oracle",
    "p5_backward_induction",
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

    The ``objective`` is per unit ``lam`` at unit gain.  After refinement
    the stationarity ``residual`` stays below
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


def _stage_objective(alpha, s: Scenario) -> float:
    """P3-style objective, written out independently in plain Python."""
    total = 0.0
    for a in alpha:
        total += a
    prefetch = total ** s.m / s.N_P ** (s.m - 1)
    demand = 0.0
    for i in range(s.L):
        demand += s.p[i] * (s.gamma[i] - alpha[i]) ** s.m
    demand /= (s.N - s.N_P) ** (s.m - 1)
    return prefetch + demand


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


def slow_oracle(s: Scenario, resolution: int = 21, refine: bool = True) -> OracleResult:
    """Brute-force minimization of the slow-fading stage energy at unit gain.

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
        value = s.gamma_total ** s.m / s.N_P ** (s.m - 1)
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
    values = total ** s.m / s.N_P ** (s.m - 1) + demand / (s.N - s.N_P) ** (s.m - 1)
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
                    return _stage_objective(trial, s)
                alpha[i] = _golden_section(line, 0.0, float(s.gamma[i]))
            best = _stage_objective(alpha, s)
            if previous - best <= 1e-13 * (1.0 + abs(best)):
                break
        alpha = np.array(alpha)

    # Stationarity violation of the box-constrained problem at the solution.
    total = float(alpha.sum())
    residual = 0.0
    for i in range(s.L):
        grad = (s.m * total ** (s.m - 1) / s.N_P ** (s.m - 1)
                - s.m * s.p[i] * (s.gamma[i] - alpha[i]) ** (s.m - 1) / (s.N - s.N_P) ** (s.m - 1))
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


def _backward_steps(grids: tuple, m: int, value: np.ndarray, slots: int,
                    gain_values: np.ndarray, gain_weights: np.ndarray) -> np.ndarray:
    """``slots`` steps of the gridded recursion backward from ``value``.

    States are the row-major flattened product of ``grids``.  A step may
    lower every task's residual to any grid point at or below it, at cost
    ``send**m / g`` for each gain ``g``, with ``send`` the bits sent.
    Only those feasible ``(state, next)`` pairs are enumerated: the
    nonzeros of the Kronecker product of the per-task ``<=`` masks, which
    come grouped by state (every group holds at least the state itself),
    so one ``minimum.reduceat`` per gain takes every state's minimum.
    """
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
    cost = send ** m
    value = value.reshape(-1)
    for _ in range(slots):
        ahead = value[following]
        new = np.zeros_like(value)
        for g, wt in zip(gain_values, gain_weights):
            new = new + wt * np.minimum.reduceat(cost / g + ahead, starts)
        value = new
    return value


def p5_backward_induction(s: Scenario, channel: Channel, bit_grid: int = 41,
                          gain_bins: int = 16,
                          no_prefetch: bool = False) -> InductionResult:
    """Discretized backward induction over the whole stage.

    States are per-task residual bits on uniform grids (at most 41 points,
    at most two tasks); fast-fading gains are discretized into
    equal-probability bins represented by their conditional means.  With
    ``no_prefetch=True`` the prefetch-phase decisions are pinned to zero.
    It returns the expected stage energy per unit ``lam`` from full residuals.

    The value is not a certified bound on the causal optimum.  The grid
    restricts the decisions, which raises it; the conditional-mean gains
    understate ``E[1/g]`` (for ``FastGamma(2)`` at 16 bins the binned mean
    of ``1/g`` is 1.810 instead of 2.0), which lowers it.  It can therefore
    lie below the noncausal benchmark.
    """
    if s.L > 2:
        raise ValueError("backward induction supports at most two candidate tasks")
    for name, count in (("bit_grid", bit_grid), ("gain_bins", gain_bins)):
        if not isinstance(count, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {count!r}")
    if not 2 <= bit_grid <= 41:
        raise ValueError("bit_grid must lie in [2, 41]")
    if gain_bins < 1:
        raise ValueError(f"gain_bins must be at least 1, got {gain_bins!r}")
    if s.N == s.N_P:
        raise ValueError("backward induction requires a demand phase (N > N_P)")
    gain_values, gain_weights = _gain_support(channel, gain_bins)
    grids = tuple(np.linspace(0.0, gi, bit_grid) for gi in s.gamma)
    # Demand phase per task, from "every bit fetched" at the deadline.
    demand = tuple(_backward_steps((grid,), s.m, np.where(grid > 0.0, np.inf, 0.0),
                                   s.N - s.N_P, gain_values, gain_weights)
                   for grid in grids)
    # Terminal layer: the task realizes right after the last prefetch slot.
    boundary = functools.reduce(np.add.outer, [p * d for p, d in zip(s.p, demand)])
    value = _backward_steps(grids, s.m, boundary, 0 if no_prefetch else s.N_P,
                            gain_values, gain_weights)
    return InductionResult(value=float(value[-1]), bit_grids=grids, gain_values=gain_values,
                           gain_weights=gain_weights, demand_values=demand)


def _check_residuals(rho: np.ndarray, s: Scenario) -> None:
    if rho.shape != s.gamma.shape:
        raise ValueError("rho must have one entry per candidate task")
    if np.any(rho < -POSITIVE_BITS_EPS):
        raise ValueError("residual bits must be nonnegative")


def _set_sums(rho: np.ndarray, slot: int, zeta: ZetaTable) -> tuple:
    """Check a slot state; the table set's inverse-probability mass and residual total."""
    s = zeta.scenario
    if not 1 <= slot <= s.N_P:
        raise ValueError(f"slot {slot} outside the prefetch phase 1..{s.N_P}")
    _check_residuals(rho, s)
    idx = np.array(zeta.task_set)
    return float(np.sum(s.p[idx] ** (-1.0 / (s.m - 1)))), float(np.sum(rho[idx]))


def threshold_eta(rho: np.ndarray, slot: int, g: float, zeta: ZetaTable) -> float:
    """Closed-form prefetch threshold at prefetch slot ``slot`` (1-based).

    ``rho`` holds the residual bits per task; the scenario, the target set
    ``S`` and the demand table come from ``zeta``.  Before the final
    prefetch slot the continuation runs through the zeta coefficient at
    ``N - n`` slots-to-deadline; at the final prefetch slot (``n == N_P``)
    it couples directly into the demand table:

        n < N_P:  eta = sum_S rho * u_z / ((g**(1/(m-1)) + u_z) * A)
        n == N_P: eta = sum_S rho * u_xi / (g**(1/(m-1)) + u_xi * A).

    Exact while every member of the set is interior (strictly positive
    decision); the episode kernel switches to an active-prefix solve when
    that fails.
    """
    mass, residual = _set_sums(rho, slot, zeta)
    if not (np.isfinite(g) and g > 0.0):
        raise ValueError(f"channel gain must be strictly positive, got {g!r}")
    s = zeta.scenario
    u_g = g ** (1.0 / (s.m - 1))
    if slot < s.N_P:
        u_z = zeta.u(s.N - slot)
        return residual * u_z / ((u_g + u_z) * mass)
    u_xi = zeta.xi.inv_root[s.N - s.N_P]
    return residual * u_xi / (u_g + u_xi * mass)


def decision_vector(rho: np.ndarray, eta: float, s: Scenario) -> np.ndarray:
    """Per-task bits to prefetch in a slot under threshold ``eta``.

    Applies ``[rho - eta * p**(-1/(m-1))]+`` to *every* task; tasks whose
    priority falls below the threshold get zero on their own.  Decisions
    never exceed the residual.
    """
    _check_residuals(rho, s)
    if eta < 0.0 or not np.isfinite(eta):
        raise ValueError(f"threshold must be nonnegative and finite, got {eta!r}")
    w = s.p ** (-1.0 / (s.m - 1))
    return np.clip(rho - eta * w, 0.0, np.maximum(rho, 0.0))


def noncausal_final_threshold(rho: np.ndarray, slot: int, future_gains,
                              zeta: ZetaTable) -> float:
    """Final-slot threshold computed with the remaining gains revealed.

    Given the gains of slots ``n..N_P``, the threshold the policy will end
    up applying in slot ``N_P`` is a cascade: the exact final-slot formula
    evaluated at the current residuals, damped once per intermediate slot by
    the fraction of the target-set residual that survives it,

        eta_NP = sum_S rho_n * u_xi / (u_g(N_P) + u_xi * A)
                 * prod_{k=n}^{N_P-1} u_z(N-k) / (u_g(k) + u_z(N-k)).

    At ``n == N_P`` the product is empty and this is the exact threshold.
    """
    mass, residual = _set_sums(rho, slot, zeta)
    s = zeta.scenario
    gains = np.asarray(future_gains, dtype=float)
    expected = s.N_P - slot + 1
    if gains.ndim != 1 or gains.size != expected:
        raise ValueError(f"need gains for slots {slot}..{s.N_P} ({expected} values)")
    if not np.all(gains > 0.0):
        raise ValueError("all gains must be strictly positive")
    root = 1.0 / (s.m - 1)
    u_xi = zeta.xi.inv_root[s.N - s.N_P]
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
        energy = expected_total_energy_fast(zeta)
        if energy < best[1]:
            best = (frozenset(members), energy, zeta)
    return best
