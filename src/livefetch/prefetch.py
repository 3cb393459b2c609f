"""Threshold-based live prefetching under fast fading.

During the ``N_P`` prefetch slots the device observes the current gain and
decides how many bits of each candidate task to push.  The optimal causal
policy is a soft water-filling: task ``l`` receives

    s_n(l) = [rho_n(l) - eta_n * p(l)**(-1/(m-1))]+

where ``rho_n`` are the residual bits and the threshold ``eta_n`` depends on
the gain, the slot and a second family of backward coefficients ``zeta``
(one table per candidate target set ``S``).  Thresholds only fall, so an
episode's whole phase state is one water level and the largest working set
so far.  One vectorized slot step executes every prefetch slot of every
policy: it sends the stage-optimal slot total and solves for the threshold
over the members' already sorted ratios, which coincides with the closed forms in :mod:`livefetch.oracles` whenever every
member of ``S`` is active.  The policies differ only in the priority prefix
the step works on: the noncausal oracle runs every locked prefix against
the revealed gains and keeps the best-scoring one per episode,
``forced_prefix`` locks one prefix, and the two causal estimators (an
optimistic and a pessimistic guess of the final-slot threshold) regrow the
set every slot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence

import numpy as np

from .model import Channel, Scenario, expect_over_gain
from .demand import XiTable, build_xi_table, simulate_demand_batch
from .slow import priorities, priority_order

__all__ = [
    "PrefetchPolicy",
    "ZetaTable",
    "BatchResult",
    "build_zeta_table",
    "build_prefix_tables",
    "expected_total_energy_fast",
    "no_prefetch_energy_fast",
    "run_prefetch_batch",
]


class PrefetchPolicy(enum.Enum):
    """Prefetch-phase behaviours available to the episode runners."""

    AGGRESSIVE = "aggressive"          #: causal, optimistic final-threshold estimate
    CONSERVATIVE = "conservative"      #: causal, pessimistic final-threshold estimate
    NONCAUSAL_ORACLE = "noncausal"     #: sees all prefetch-phase gains upfront
    NO_PREFETCH = "no-prefetch"        #: skips the prefetch phase entirely


@dataclass(frozen=True)
class ZetaTable:
    """Backward coefficients of the prefetch phase for one target set.

    ``value(j)`` is the coefficient with ``j`` slots remaining before the
    deadline, tabulated for ``j = N-N_P+1 .. N`` (the prefetch phase);
    ``u(j)`` caches ``(1/value(j))**(1/(m-1))``.  The boundary entry couples
    into the demand table through the set's inverse-probability mass
    ``A = sum_S p**(-1/(m-1))``.
    """

    task_set: tuple
    channel: Channel
    m: int
    first_index: int
    zeta: tuple
    inv_root: tuple
    inv_prob_mass: float
    xi: XiTable

    @property
    def last_index(self) -> int:
        return self.first_index + len(self.zeta) - 1

    def value(self, slots_to_deadline: int) -> float:
        if not self.first_index <= slots_to_deadline <= self.last_index:
            raise ValueError(
                f"zeta index {slots_to_deadline} outside [{self.first_index}, {self.last_index}]")
        return self.zeta[slots_to_deadline - self.first_index]

    def u(self, slots_to_deadline: int) -> float:
        if not self.first_index <= slots_to_deadline <= self.last_index:
            raise ValueError(
                f"zeta index {slots_to_deadline} outside [{self.first_index}, {self.last_index}]")
        return self.inv_root[slots_to_deadline - self.first_index]


def build_zeta_table(s: Scenario, channel: Channel, task_set: Iterable[int],
                     xi: XiTable) -> ZetaTable:
    """Tabulate the prefetch coefficients for a candidate target set.

    The recursion runs upward in slots-to-deadline ``j``; the boundary entry
    (``j = N - N_P + 1``, the final prefetch slot) couples into the demand
    coefficients through the set's inverse-probability mass,

        zeta = E[ (g**(1/(m-1)) + u_xi * A)**-(m-1) ],
        u_xi = (1/xi[N-N_P])**(1/(m-1)),  A = sum_S p**(-1/(m-1)),

    and deeper entries reuse the demand-style recursion with the previous
    zeta in place of xi.
    """
    members = tuple(sorted({int(i) for i in task_set}))
    if not members:
        raise ValueError("task_set must be nonempty")
    if members[0] < 0 or members[-1] >= s.L:
        raise IndexError(f"task indices {members} out of range for L={s.L}")
    if s.N == s.N_P:
        raise ValueError("zeta coefficients require a demand phase (N > N_P)")
    d = s.N - s.N_P
    if xi.horizon < d or xi.m != s.m or xi.channel != channel:
        raise ValueError("xi table does not match the scenario/channel")
    root = 1.0 / (s.m - 1)
    mass = float(np.sum(s.p[list(members)] ** (-root)))
    u_prev = xi.inv_root[d] * mass
    zeta = []
    inv_root = []
    for _ in range(d + 1, s.N + 1):
        value = expect_over_gain(
            lambda x: (x ** root + u_prev) ** (-(s.m - 1)), channel)
        zeta.append(value)
        inv_root.append((1.0 / value) ** root)
        u_prev = inv_root[-1]
    return ZetaTable(task_set=members, channel=channel, m=s.m, first_index=d + 1,
                     zeta=tuple(zeta), inv_root=tuple(inv_root),
                     inv_prob_mass=mass, xi=xi)


def build_prefix_tables(s: Scenario, channel: Channel, xi: XiTable) -> list:
    """Zeta tables for every priority-ordered prefix (sizes 1..L)."""
    order = priority_order(s)
    return [build_zeta_table(s, channel, order[:k], xi) for k in range(1, s.L + 1)]


def expected_total_energy_fast(s: Scenario, task_set,
                               zeta: Optional[ZetaTable] = None,
                               xi: Optional[XiTable] = None) -> float:
    """Expected stage energy of the threshold policy locked to a target set.

        lam * (sum_S gamma)**m * zeta_N(S)
            + lam * xi[N-N_P] * sum_{l not in S} p(l) * gamma(l)**m.

    Tasks outside the set are fetched purely on demand.  With an empty set
    this is the pure no-prefetch energy (pass ``xi`` explicitly then).
    """
    members = sorted({int(i) for i in task_set})
    if members and (members[0] < 0 or members[-1] >= s.L):
        raise IndexError(f"task indices {members} out of range for L={s.L}")
    if members:
        if zeta is None:
            raise ValueError("a zeta table for the target set is required")
        if tuple(members) != zeta.task_set:
            raise ValueError("zeta table was built for a different target set")
        xi = zeta.xi
    if xi is None:
        raise ValueError("an xi table is required when the target set is empty")
    d = s.N - s.N_P
    outside = np.setdiff1d(np.arange(s.L), np.array(members, dtype=int))
    demand = float(np.sum(s.p[outside] * s.gamma[outside] ** s.m)) if outside.size else 0.0
    energy = s.lam * xi.xi[d] * demand
    if members:
        prefetched = float(np.sum(s.gamma[members]))
        energy += s.lam * prefetched ** s.m * zeta.value(s.N)
    return energy


def no_prefetch_energy_fast(s: Scenario, xi: XiTable) -> float:
    """Expected stage energy when all fetching waits for the demand phase."""
    return expected_total_energy_fast(s, (), xi=xi)


@dataclass(frozen=True)
class BatchResult:
    """Vectorized episode statistics (one entry per episode)."""

    policy: PrefetchPolicy
    prefetch_energy: np.ndarray
    demand_energy: np.ndarray
    realized: np.ndarray
    set_size: np.ndarray            #: final working-set size (0 for no-prefetch)
    beta: np.ndarray                #: residual bits of the realized task
    final_rho: np.ndarray           #: (E, L) residual bits per task, original order
    thresholds: Optional[np.ndarray] = None     #: (E, N_P) if traced
    decisions: Optional[np.ndarray] = None      #: (E, N_P, L) if traced, original order
    slot_set_size: Optional[np.ndarray] = None  #: (E, N_P) working-set sizes if traced

    @property
    def total_energy(self) -> np.ndarray:
        return self.prefetch_energy + self.demand_energy


@dataclass
class _Phase:
    """Prefetch-phase state per episode: the water level and the set bound.

    In priority order, task ``l`` holds ``w(l) * level`` if ``l < bound``
    and ``delta(l) > level``, and exactly ``gamma(l)`` otherwise.  This
    holds because thresholds only fall: each slot sends a positive total
    below the members' residual.  A causal set rule leaves out only tasks
    that would get no bits, because both causal estimates are at most the
    executed threshold (the conservative one is the all-active formula, a
    lower bound once members clamp; the aggressive one lies below it since
    ``u_z > u_xi * A``): a task left out has ``delta <= eta_hat <= eta``.
    """

    level: np.ndarray                     #: (E,) last slot's threshold
    bound: np.ndarray                     #: (E,) largest working set so far
    energy: np.ndarray                    #: (E,) prefetch energy
    set_size: np.ndarray                  #: (E,) final working-set size
    thresholds: Optional[np.ndarray]      #: (E, N_P) when traced
    slot_set_size: Optional[np.ndarray]   #: (E, N_P) when traced

    def record(self, n: int, k, eta: np.ndarray) -> None:
        """Move to slot ``n``'s threshold on the size-``k`` sets."""
        self.level = eta
        self.bound = np.maximum(self.bound, k)
        self.set_size[:] = k
        if self.thresholds is not None:
            self.thresholds[:, n - 1] = eta
            self.slot_set_size[:, n - 1] = k

    def keep(self, other: "_Phase", better: np.ndarray) -> None:
        """Replace the episodes flagged in ``better`` by ``other``'s."""
        for field in fields(self):
            mine = getattr(self, field.name)
            if mine is not None:
                mask = better.reshape(better.shape + (1,) * (mine.ndim - 1))
                setattr(self, field.name, np.where(mask, getattr(other, field.name), mine))


@dataclass(frozen=True)
class _Kernel:
    """Per-batch constants of the prefetch phase, tasks in priority order."""

    s: Scenario
    gam: np.ndarray        #: (L,) data sizes
    w: np.ndarray          #: (L,) probability weights p**(-1/(m-1))
    delta: np.ndarray      #: (L,) priorities gamma * p**(1/(m-1)), non-increasing
    cum_w: np.ndarray      #: (L+1,) prefix sums of w, from 0
    u_zeta: np.ndarray     #: [k-1, n-1]: u of the size-k prefix table at N-n to go
    u_xi: float
    gains: np.ndarray      #: (E, N) all gains
    u_gain: np.ndarray     #: (E, N_P) prefetch-phase gains**(1/(m-1))
    trace: bool

    def start(self) -> _Phase:
        episodes = self.gains.shape[0]
        traced = np.zeros((episodes, self.s.N_P)) if self.trace else None
        return _Phase(level=np.full(episodes, self.delta[0]),
                      bound=np.zeros(episodes, dtype=int), energy=np.zeros(episodes),
                      set_size=np.zeros(episodes, dtype=int), thresholds=traced,
                      slot_set_size=None if traced is None else traced.astype(int))

    def residuals(self, level: np.ndarray, bound: np.ndarray) -> np.ndarray:
        """Bits each task still holds at water ``level`` under set ``bound``."""
        level, bound = level[..., None], bound[..., None]
        clamped = (np.arange(self.s.L) < bound) & (self.delta > level)
        return np.where(clamped, level * self.w, self.gam)

    def prefix_residuals(self, phase: _Phase) -> np.ndarray:
        """(E, L+1) residual totals of the priority prefixes of size 0..L."""
        rho = self.residuals(phase.level, phase.bound)
        return np.concatenate([np.zeros((rho.shape[0], 1)), np.cumsum(rho, axis=1)], axis=1)

    def slot(self, phase: _Phase, n: int, k, cum_rho: np.ndarray) -> np.ndarray:
        """Execute prefetch slot ``n`` on the size-``k`` prefixes; returns the threshold.

        Before the final slot the continuation depends on the members'
        residual total ``R`` only, so the slot sends the stage-optimal total
        ``R * u_g / (u_g + u_c)``; the final slot's stage problem is exactly
        separable, its optimum the fixed point with ``eta * u_g / u_xi`` in
        place of that total.  The members' ratios ``rho/w = min(delta, level)``
        are already sorted, so the threshold is the candidate of the first
        prefix that reaches the next member's ratio.  Updates ``phase``.
        """
        s = self.s
        rows = np.arange(cum_rho.shape[0])
        k = np.broadcast_to(k, rows.shape)
        u_g = self.u_gain[:, n - 1]
        if n == s.N_P:
            candidates = cum_rho[:, 1:] / (self.cum_w[1:] + (u_g / self.u_xi)[:, None])
        else:
            total = cum_rho[rows, k] * u_g / (u_g + self.u_zeta[k - 1, n - 1])
            candidates = (cum_rho[:, 1:] - total[:, None]) / self.cum_w[1:]
        following = np.minimum(np.append(self.delta[1:], -np.inf), phase.level[:, None])
        reached = (candidates >= following) | (np.arange(1, s.L + 1) >= k[:, None])
        active = np.argmax(reached, axis=1) + 1
        eta = np.maximum(candidates[rows, active - 1], 0.0)
        sent = cum_rho[rows, active] - eta * self.cum_w[active]
        phase.energy += s.lam * sent ** s.m / self.gains[:, n - 1]
        phase.record(n, k, eta)
        return eta

    def locked(self, k: int) -> _Phase:
        """The prefetch phase with the size-``k`` priority prefix locked."""
        phase = self.start()
        for n in range(1, self.s.N_P + 1):
            self.slot(phase, n, k, self.prefix_residuals(phase))
        return phase

    def causal(self, policy: PrefetchPolicy) -> _Phase:
        """The prefetch phase with the working set regrown every slot.

        Each slot starts from the tasks that got positive bits in the
        previous slot and takes the smallest priority prefix, at least that
        large, whose estimated final threshold admits exactly as many tasks
        as it holds (the full set if none does).  The estimates are

            aggressive:   R * u_xi / (u_g + u_z(N-n))
            conservative: R * u_z(N-n) / ((u_g + u_z(N-n)) * A)

        with ``A`` the prefix's inverse-probability mass; at the final slot
        both are the exact ``R * u_xi / (u_g + u_xi * A)``.  A threshold
        admits the tasks whose priority exceeds it.
        """
        s, u_xi, mass = self.s, self.u_xi, self.cum_w[1:]
        phase = self.start()
        rows = np.arange(self.gains.shape[0])
        sizes = np.arange(1, s.L + 1)
        positive = np.zeros(rows.size, dtype=int)
        for n in range(1, s.N_P + 1):
            u_g = self.u_gain[:, n - 1, None]
            cum_rho = self.prefix_residuals(phase)
            residual = cum_rho[:, 1:]
            if n == s.N_P:
                eta_hat = residual * u_xi / (u_g + u_xi * mass)
            elif policy is PrefetchPolicy.AGGRESSIVE:
                eta_hat = residual * u_xi / (u_g + self.u_zeta[:, n - 1])
            else:
                u_z = self.u_zeta[:, n - 1]
                eta_hat = residual * u_z / ((u_g + u_z) * mass)
            admitted = np.searchsorted(-self.delta, -eta_hat)
            match = (admitted == sizes) & (sizes >= positive[:, None])
            first = np.argmax(match, axis=1)
            k = np.where(match[rows, first], first + 1, s.L)
            eta = self.slot(phase, n, k, cum_rho)
            positive = np.minimum(k, np.searchsorted(-self.delta, -eta))
        return phase


def run_prefetch_batch(s: Scenario, channel: Channel, policy: PrefetchPolicy,
                       gains: np.ndarray, realized: np.ndarray, *,
                       xi: Optional[XiTable] = None,
                       prefix_tables: Optional[Sequence[ZetaTable]] = None,
                       forced_prefix: Optional[int] = None,
                       trace: bool = False) -> BatchResult:
    """Simulate whole stages: prefetch phase, realization, demand phase.

    ``gains`` has shape ``(episodes, N)`` and ``realized`` holds the task
    index per episode; sharing them across policies yields paired samples.
    ``policy`` may also be given by its value (``"aggressive"``, ...).
    The noncausal oracle executes every priority prefix against the
    revealed prefetch gains and keeps, per episode, the one with the lowest
    realized prefetch energy plus expected demand energy of its residuals
    (ties go to the smaller prefix).  ``forced_prefix`` locks the target set
    to the priority prefix of that size for every episode instead.  The
    demand phase always runs the xi-policy.  ``trace`` fills the per-slot
    thresholds, decisions and working-set sizes.
    """
    policy = PrefetchPolicy(policy)
    if s.N == s.N_P:
        raise ValueError("fast-fading episodes require a demand phase (N > N_P)")
    gains = np.asarray(gains, dtype=float)
    realized = np.asarray(realized, dtype=int)
    if gains.ndim != 2 or gains.shape[1] != s.N:
        raise ValueError(f"gains must have shape (episodes, {s.N})")
    if realized.shape != (gains.shape[0],):
        raise ValueError("realized must hold one task index per episode")
    if np.any(gains <= 0.0):
        raise ValueError("all gains must be strictly positive")
    if np.any((realized < 0) | (realized >= s.L)):
        raise IndexError("realized task index out of range")
    if forced_prefix is not None and not 1 <= forced_prefix <= s.L:
        raise ValueError(f"forced_prefix must lie in 1..{s.L}")
    d = s.N - s.N_P
    if xi is None:
        xi = build_xi_table(channel, s.m, d)
    if prefix_tables is None and policy is not PrefetchPolicy.NO_PREFETCH:
        prefix_tables = build_prefix_tables(s, channel, xi)

    episodes = gains.shape[0]
    root = 1.0 / (s.m - 1)
    order = np.array(priority_order(s))
    inv_order = np.argsort(order)
    prob = s.p[order]
    w = prob ** (-root)
    u_zeta = np.zeros((s.L, max(s.N_P - 1, 1)))
    if policy is not PrefetchPolicy.NO_PREFETCH and s.N_P > 1:
        for k in range(1, s.L + 1):
            u_zeta[k - 1] = [prefix_tables[k - 1].u(s.N - n) for n in range(1, s.N_P)]
    kernel = _Kernel(s=s, gam=s.gamma[order], w=w, delta=priorities(s)[order],
                     cum_w=np.concatenate([[0.0], np.cumsum(w)]), u_zeta=u_zeta,
                     u_xi=xi.inv_root[d], gains=gains,
                     u_gain=gains[:, :s.N_P] ** root, trace=trace)

    if policy is PrefetchPolicy.NO_PREFETCH:
        phase = kernel.start()
    elif forced_prefix is not None:
        phase = kernel.locked(forced_prefix)
    elif policy is PrefetchPolicy.NONCAUSAL_ORACLE:
        demand_weight = s.lam * xi.xi[d]
        for k in range(1, s.L + 1):
            candidate = kernel.locked(k)
            rho = kernel.residuals(candidate.level, candidate.bound)
            score = candidate.energy + demand_weight * (prob * rho ** s.m).sum(axis=1)
            if k == 1:
                phase, best = candidate, score
            else:
                better = score < best
                phase.keep(candidate, better)
                best = np.where(better, score, best)
    else:
        phase = kernel.causal(policy)

    final_rho = kernel.residuals(phase.level, phase.bound)[:, inv_order]
    decisions = None
    if trace:
        pad = ((0, 0), (1, 0))
        held = kernel.residuals(np.pad(phase.thresholds, pad, constant_values=kernel.delta[0]),
                                np.maximum.accumulate(np.pad(phase.slot_set_size, pad), axis=1))
        decisions = (held[:, :-1] - held[:, 1:])[:, :, inv_order]
    beta = final_rho[np.arange(episodes), realized]
    _, demand = simulate_demand_batch(beta, gains[:, s.N_P:], xi, lam=s.lam)
    return BatchResult(policy=policy, prefetch_energy=phase.energy,
                       demand_energy=np.cumsum(demand, axis=1)[:, -1],
                       realized=realized, set_size=phase.set_size, beta=beta,
                       final_rho=final_rho, thresholds=phase.thresholds,
                       decisions=decisions, slot_set_size=phase.slot_set_size)
