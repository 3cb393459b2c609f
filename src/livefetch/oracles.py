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
from dataclasses import dataclass

import numpy as np

from .model import (
    POSITIVE_BITS_EPS,
    Channel,
    FastGamma,
    QuadratureError,
    Scenario,
    SlowFading,
    _integer_in,
    _real,
)
from .demand import XiTable
from .prefetch import (
    ZetaTable,
    build_prefix_tables,
    expected_total_energy_fast,
    no_prefetch_energy_fast,
)

__all__ = [
    "OracleResult",
    "InductionResult",
    "slow_oracle",
    "p5_backward_induction",
    "threshold_eta",
    "decision_vector",
    "noncausal_final_threshold",
    "best_prefix_set",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: A golden-section search stops once its bracket is at most this wide.
_GOLDEN_TOL = 1e-8

#: The slow oracle's grid holds at most this many points.
_GRID_CAP = 2e5

#: The gain quantiles take at most this many Newton steps and stop once a
#: step moves every one by at most ``_QUANTILE_STEP_TOL`` relative (Newton's
#: error then squares to rounding level).
_QUANTILE_ITERATIONS, _QUANTILE_STEP_TOL = 100, 1e-12


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


def _stage_objective(alpha, s: Scenario):
    """P3-style objective, written out independently in plain Python.

    ``alpha`` holds one amount per task, each a float or, for a whole grid
    at once, an array of the grid's shape.
    """
    total = 0.0
    for a in alpha:
        total += a
    prefetch = total ** s.m / s.N_P ** (s.m - 1)
    demand = 0.0
    for i in range(s.L):
        demand += s.p[i] * (s.gamma[i] - alpha[i]) ** s.m
    demand /= (s.N - s.N_P) ** (s.m - 1)
    return prefetch + demand


def _golden_section(fun, lo: float, hi: float) -> float:
    """Minimize a unimodal function on [lo, hi] to an interval width of ``_GOLDEN_TOL``."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > _GOLDEN_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def slow_oracle(s: Scenario, resolution: int = 21) -> OracleResult:
    """Brute-force minimization of the slow-fading stage energy at unit gain.

    Vectorized dense grid over ``[0, gamma]^L`` (the per-axis resolution is
    capped so the grid stays below ``_GRID_CAP`` points), refined by cyclic
    coordinate descent with golden-section line searches — the objective is
    smooth and strictly convex, so the refinement converges to the global
    optimum regardless of the starting point.  A grid needs two points per
    axis, so ``L >= 18`` tasks (``2**18 > _GRID_CAP``) raise ``ValueError``
    unless ``N == N_P``, where the plan is prefetching everything.
    """
    if not _integer_in(resolution, 2):
        raise ValueError(f"resolution must be an integer of at least 2, got {resolution!r}")
    if s.N == s.N_P:
        alpha = s.gamma.copy()
        value = s.gamma_total ** s.m / s.N_P ** (s.m - 1)
        return OracleResult(objective=value, alpha=alpha, residual=0.0,
                            grid_objective=value, resolution=resolution)

    if 2 ** s.L > _GRID_CAP:
        raise ValueError(f"a grid over {s.L} tasks has at least 2**{s.L} points, "
                         f"more than {_GRID_CAP:g}")
    res_eff = min(resolution, int(_GRID_CAP ** (1.0 / s.L)))
    axes = [np.linspace(0.0, gi, res_eff) for gi in s.gamma]
    values = _stage_objective(np.meshgrid(*axes, indexing="ij"), s)
    flat_best = int(np.argmin(values))
    unravel = np.unravel_index(flat_best, values.shape)
    alpha = [axes[i][unravel[i]] for i in range(s.L)]
    grid_objective = float(values[unravel])

    best = grid_objective
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

    return OracleResult(objective=best, alpha=alpha, residual=residual,
                        grid_objective=grid_objective, resolution=res_eff)


def _erlang_head(k: int, x: np.ndarray) -> np.ndarray:
    """``e**(-k x) (k x)**k / k!`` at ``x > 0``, the gap ``F_k(x) - E[g 1{g <= x}]``.

    Written as ``exp(k (log x - x + 1)) k**k e**-k / k!`` so that the large
    terms of the plain logarithm do not cancel.
    """
    return np.exp(k * (np.log(x) - (x - 1.0)) + (k * math.log(k) - k - math.lgamma(k + 1)))


def _erlang_cdf(k: int, x: np.ndarray) -> tuple:
    """CDF and survival function of the unit-mean Gamma(k) gain at ``x > 0``, and the head.

    With ``y = k x`` the CDF is the Poisson tail ``sum_{j>=k} e**-y y**j / j!``
    and the survival function the finite rest.  Below ``y = k`` the CDF is
    summed from its first term ``t_k`` upward, above it the survival function
    from ``t_{k-1}`` downward; either holds at most about half the mass, its
    term ratios stay below one, and the other function is its complement.
    The terms are summed until they fall below 1e-18 of the first.
    """
    y = k * x
    lower = y < k
    terms, bound = 0, 1.0
    while bound > 1e-18:
        terms += 1
        bound *= k / (k + terms)
    n = np.arange(1, terms + 1)[:, None]
    ratio = np.where(lower, y / (k + n), np.maximum(k - n, 0) / y)
    head = _erlang_head(k, x)
    tail = head * (1.0 + np.cumprod(ratio, axis=0).sum(axis=0)) * np.where(lower, 1.0, k / y)
    return np.where(lower, tail, 1.0 - tail), np.where(lower, 1.0 - tail, tail), head


def _gain_support(channel: Channel, bins: int) -> tuple:
    """Discrete gain support: equal-probability bins with conditional means."""
    if isinstance(channel, SlowFading):
        return np.array([channel.g]), np.array([1.0])
    if not isinstance(channel, FastGamma):
        raise TypeError(f"unknown channel model: {channel!r}")
    return np.array(_erlang_bins(channel.k, bins)), np.full(bins, 1.0 / bins)


@functools.lru_cache(maxsize=None)
def _erlang_bins(k: int, bins: int) -> tuple:
    """Conditional means of ``bins`` equal-probability bins of the unit-mean Gamma(k) gain.

    The gain is an Erlang law, so no special function is needed.  The
    inner bin edges solve ``F_k(x) = i / bins`` by Newton's method from the
    mode, kept inside the bracket the residual signs give (``F_k`` is
    convex below the mode and concave above it, so the steps approach each
    root from one side).  The partial mean is ``E[g 1{g <= x}] = F_k(x) -
    head(x)``, so a bin's conditional mean is ``1 - bins * (head(upper) -
    head(lower))``, with ``head`` zero at both ends.  Raises
    :class:`QuadratureError` if the edges do not settle within
    ``_QUANTILE_ITERATIONS`` steps or are not finite.  Cached: the
    induction asks for the same bins at every window.
    """
    i = np.arange(1, bins)
    below, above = i / bins, (bins - i) / bins
    x = np.full(i.size, (k - 1) / k)
    lo, hi = np.zeros_like(x), np.full_like(x, np.inf)
    for _ in range(_QUANTILE_ITERATIONS):
        cdf, survival, head = _erlang_cdf(k, x)
        residual = np.where(below <= 0.5, cdf - below, above - survival)
        lo, hi = np.where(residual < 0.0, x, lo), np.where(residual < 0.0, hi, x)
        step = x - residual * x / (k * head)
        inside = (step >= lo) & (step <= hi)
        step = np.where(inside, step, np.where(np.isfinite(hi), 0.5 * (lo + hi), 2.0 * x))
        settled = np.abs(step - x) <= _QUANTILE_STEP_TOL * step
        x = step
        if np.all(settled):
            break
    else:
        raise QuadratureError(f"Gamma({k}) quantiles for {bins} bins did not settle "
                              f"in {_QUANTILE_ITERATIONS} steps", residual=float("nan"))
    if not np.all(np.isfinite(x)):
        raise QuadratureError(f"Gamma({k}) quantiles for {bins} bins are not finite",
                              residual=float("nan"))
    heads = np.concatenate([[0.0], _erlang_head(k, x), [0.0]])
    return tuple((1.0 - bins * np.diff(heads)).tolist())


def _backward_steps(grids: tuple, m: int, value: np.ndarray, slots: int,
                    gain_values: np.ndarray, gain_weights: np.ndarray) -> np.ndarray:
    """``slots`` steps of the gridded recursion backward from ``value``.

    States are the row-major flattened product of ``grids``.  A step may
    lower every task's residual to any grid point at or below it, at cost
    ``send**m / g`` for each gain ``g``, with ``send`` the bits sent.
    Only the feasible ``(state, next)`` pairs of :func:`_transitions` are
    visited, grouped by state, so one ``minimum.reduceat`` takes every
    state's minimum for every gain.

    Every next state lies at or before its state in row-major order, so
    the steps run as a wavefront: the blocks of :func:`_block_bounds` go in
    order, and each runs all ``slots`` steps once the blocks before it are
    done.  A block divides its costs by each gain once, for every slot,
    and its buffers stay in cache.  Each entry sees the same float
    operations as one slot at a time over all states, with the gain bins
    summed in their order, so the result is bitwise the same.

    Each block first drops every pair that can never beat staying put
    (:func:`_stay_bound_prune`), bitwise without effect on any minimum.
    Write ``V_n`` for ``values[n]`` and ``fl`` for rounding to nearest.

    - Rounded division and the rounded addition of a value ``V >= 0`` are
      monotone, and ``g <= max(gain_values)``, so at every gain bin a
      pair's step ``fl(fl(cost / g) + V_n(next))`` is at least
      ``fl(cost / max(gain_values))``.
    - The stay pair (``next == state``, cost 0) is worth exactly
      ``V_n(state)`` at every gain bin, so every minimum is at most that.
    - ``V_{n+1}`` weighs the ``B`` bins' minima and sums them in order.
      With ``u = 2**-53``, the weights (each bin's share ``1/B``, rounded)
      sum to at most ``1 + u``, and each product and each of the ``B - 1``
      additions rounds up by a factor of at most ``1 + u``, so
      ``V_{n+1} <= (1 + u)**(B+1) * V_n <= (1 + (B+2) u) * V_n``.  Hence
      ``V_n <= U = V_0 * (1 + (B+2) u)**slots``; the code bounds ``U`` from
      above with a margin of two (``(1 + 2 (B+2) u)**slots``, exact but for
      the power, then rounded up to the next float).
    - A pair with ``fl(cost / max(gain_values)) > U(state)`` therefore lies
      strictly above the stay pair at every gain bin and slot: no minimum
      changes a bit.  ``U = inf`` (the demand grids' terminal values)
      keeps every pair.
    """
    cost, following, starts = _transitions(m, *(grid.tobytes() for grid in grids))
    values = np.empty((slots + 1, starts.size))
    values[0] = value.reshape(-1)
    bounds = _block_bounds(starts, cost.size)
    ends = np.append(starts, cost.size)
    growth = (1.0 + 2.0 * (gain_values.size + 2) * 2.0 ** -53) ** slots
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        a, b = ends[lo], ends[hi]
        with np.errstate(over="ignore"):
            stay_bound = np.nextafter(values[0, lo:hi] * growth, np.inf)
        kept, next_kept, local = _stay_bound_prune(
            cost[a:b], following[a:b], starts[lo:hi] - a, stay_bound, gain_values.max())
        scaled = kept / gain_values[:, None]
        step = np.empty_like(scaled)
        for n in range(slots):
            np.add(scaled, values[n].take(next_kept), out=step)
            least = np.minimum.reduceat(step, local, axis=1)
            least *= gain_weights[:, None]
            values[n + 1, lo:hi] = np.add.accumulate(least)[-1]
    return values[-1]


def _stay_bound_prune(cost: np.ndarray, following: np.ndarray, local: np.ndarray,
                      stay_bound: np.ndarray, top_gain: float) -> tuple:
    """One block's pairs that may beat staying put, and the offsets of their groups.

    ``local`` holds the offset of each state's first pair and ``stay_bound``
    its bound ``U`` on every value the steps reach (see
    :func:`_backward_steps`).  A pair is dropped when ``cost / top_gain``
    exceeds its state's ``U``.  The stay pair costs nothing, so every state
    keeps at least it and no group is empty.
    """
    keep = cost / top_gain <= np.repeat(stay_bound, np.diff(np.append(local, cost.size)))
    before = np.concatenate([[0], np.cumsum(keep)])
    return cost[keep], following[keep], before[local]


#: The backward steps run in blocks of whole state groups of about this many
#: feasible pairs (512 KiB of float64 per buffer at 16 gain bins), so that a
#: block's scaled costs stay in cache through every slot.
_BLOCK_PAIRS = 2 ** 12


def _block_bounds(starts: np.ndarray, pairs: int) -> np.ndarray:
    """State offsets that cut the groups at ``starts`` into consecutive blocks.

    A block ends before the first group that starts at or after the next
    multiple of ``_BLOCK_PAIRS``, so no group is split and every block's
    groups but the last start within ``_BLOCK_PAIRS`` pairs of its first.
    """
    cuts = np.searchsorted(starts, np.arange(_BLOCK_PAIRS, pairs, _BLOCK_PAIRS))
    return np.unique(np.concatenate([[0], cuts, [starts.size]]))


@functools.lru_cache(maxsize=4)
def _transitions(m: int, *grids: bytes) -> tuple:
    """Feasible ``(state, next)`` pairs of the product of ``grids`` (float64 bytes).

    Returns the pairs' costs ``send**m``, their next states and the offset
    of every state's group.  The pairs are the nonzeros of the Kronecker
    product of the per-task ``<=`` masks, in its order: grouped by state
    (every group holds at least the state itself) and by next state within
    a group.  They are built one task at a time, each pair so far with each
    of the task's own, and stably sorted by state, so the product's dense
    mask is never formed.  Cached on the grids' values and ``m``, as
    read-only arrays: the windows of one scenario shape share them, and one
    induction asks for three (the two tasks' demand grids and their
    product).
    """
    state, following, send = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp), np.zeros(1)
    for grid in (np.frombuffer(grid) for grid in grids):
        here, there = np.nonzero(grid[None, :] <= grid[:, None])
        state = (state[:, None] * grid.size + here).ravel()
        order = np.argsort(state, kind="stable")
        state = state[order]
        following = (following[:, None] * grid.size + there).ravel()[order]
        send = (send[:, None] + grid[here] - grid[there]).ravel()[order]
    starts = np.searchsorted(state, np.arange(state[-1] + 1))
    cost = send ** m
    for array in (cost, following, starts):
        array.flags.writeable = False
    return cost, following, starts


def p5_backward_induction(s: Scenario, channel: Channel, bit_grid: int = 41,
                          gain_bins: int = 16) -> InductionResult:
    """Discretized backward induction over the whole stage.

    States are per-task residual bits on uniform grids (at most 41 points,
    at most two tasks); fast-fading gains are discretized into
    equal-probability bins represented by their conditional means.  The
    value with no prefetching is ``sum(p * demand[-1] for p, demand in
    zip(s.p, result.demand_values))``, the demand values at full residuals.
    It returns the expected stage energy per unit ``lam`` from full residuals
    and raises ``FloatingPointError`` if that value is not finite (the
    transition costs ``send**m`` overflow, for instance).

    The steps run over cache-sized blocks of states in row-major order, all
    slots of a block at a time; that is valid because no task's residual
    rises, so every next state comes at or before its state.  Each block
    divides its costs by each gain once per call, not once per slot, and
    the result is bitwise the one of stepping slot by slot.  Each block
    also drops, once, the transitions whose cost at the best gain already
    exceeds a bound on the value of sending nothing; they can never be a
    minimum, so that too changes no bit.

    The value is not a certified bound on the causal optimum.  The grid
    restricts the decisions, which raises it; the conditional-mean gains
    understate ``E[1/g]`` (for ``FastGamma(2)`` at 16 bins the binned mean
    of ``1/g`` is 1.810 instead of 2.0), which lowers it.  It can therefore
    lie below the noncausal benchmark.
    """
    if s.L > 2:
        raise ValueError("backward induction supports at most two candidate tasks")
    if not _integer_in(bit_grid, 2, 41):
        raise ValueError(f"bit_grid must be an integer in [2, 41], got {bit_grid!r}")
    if not _integer_in(gain_bins, 1):
        raise ValueError(f"gain_bins must be an integer of at least 1, got {gain_bins!r}")
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
    boundary = _backward_steps(grids, s.m, boundary, s.N_P, gain_values, gain_weights)
    value = float(boundary.reshape(-1)[-1])
    if not np.isfinite(value):
        raise FloatingPointError(f"backward induction value is not finite: {value!r}")
    return InductionResult(value=value, bit_grids=grids, gain_values=gain_values,
                           gain_weights=gain_weights, demand_values=demand)


def _check_residuals(rho, s: Scenario) -> np.ndarray:
    """``rho`` as a float array, after checking it holds valid residual bits of ``s``.

    A residual may fall below zero, or above its task's data size, by
    rounding, by at most ``POSITIVE_BITS_EPS`` of that size, so the check
    does not depend on the scale of the data.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != s.gamma.shape:
        raise ValueError("rho must have one entry per candidate task")
    if not np.all((rho >= -POSITIVE_BITS_EPS * s.gamma) & (rho < np.inf)):
        raise ValueError("residual bits must be finite and nonnegative")
    if not np.all(rho <= (1.0 + POSITIVE_BITS_EPS) * s.gamma):
        raise ValueError("residual bits must not exceed their task's data size")
    return rho


def _set_sums(rho: np.ndarray, slot: int, zeta: ZetaTable) -> tuple:
    """Check a slot state; the table set's inverse-probability mass and residual total."""
    s = zeta.scenario
    if not _integer_in(slot, 1, s.N_P):
        raise ValueError(f"slot must be an integer in 1..{s.N_P}, got {slot!r}")
    rho = _check_residuals(rho, s)
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
    if not (_real(g) and np.isfinite(g) and g > 0.0):
        raise ValueError(f"channel gain must be a finite, strictly positive number, got {g!r}")
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
    never exceed the residual.  The slot thresholds telescope, so at the
    full residuals ``s.gamma`` and the final threshold this gives the bits
    each task is sent over the whole phase.
    """
    rho = _check_residuals(rho, s)
    if not (_real(eta) and np.isfinite(eta) and eta >= 0.0):
        raise ValueError(f"threshold must be a nonnegative, finite number, got {eta!r}")
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
    if not np.all((gains > 0.0) & (gains < np.inf)):
        raise ValueError("all gains must be finite and strictly positive")
    root = 1.0 / (s.m - 1)
    u_xi = zeta.xi.inv_root[s.N - s.N_P]
    value = residual * u_xi / (gains[-1] ** root + u_xi * mass)
    for offset, k in enumerate(range(slot, s.N_P)):
        u_z = zeta.u(s.N - k)
        value *= u_z / (gains[offset] ** root + u_z)
    return value


def best_prefix_set(s: Scenario, channel: Channel, xi: XiTable) -> tuple:
    """Minimize the locked-set energy *formula* over candidate target sets.

    Searches the priority-ordered prefixes (plus the empty set), scoring
    the tables of :func:`~livefetch.prefetch.build_prefix_tables` (one
    coefficient chain for all of them).  Returns ``(task_set, energy,
    zeta_or_none)``.

    The formula assumes every member stays active in every prefetch slot,
    so for sets the execution would clamp it is an unattainably low bound
    and the argmin can overshoot the realizable best set; the noncausal
    policy of ``run_prefetch_batch`` scores realized executions instead.
    """
    best = (frozenset(), no_prefetch_energy_fast(s, xi), None)
    for zeta in build_prefix_tables(s, channel, xi):
        energy = expected_total_energy_fast(zeta)
        if energy < best[1]:
            best = (frozenset(zeta.task_set), energy, zeta)
    return best
