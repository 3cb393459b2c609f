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
policy: it sends the stage-optimal slot total and finds the threshold by
bisection over the priority prefixes, whose residual totals are closed
forms in the water level; it coincides with the closed forms in
:mod:`livefetch.oracles` whenever every member of ``S`` is active.  The
policies differ only in the priority prefix the step works on: the
noncausal oracle runs all ``L`` locked prefixes as one batch against the
revealed gains and keeps the best-scoring one per episode,
``forced_prefix`` locks one prefix for the noncausal oracle, and the two
causal estimators (an optimistic and a pessimistic guess of the final-slot
threshold) regrow the set every slot.  No threshold depends on the energy
coefficient ``lam``, so every energy here is per unit ``lam``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence

import numpy as np

# ``expect_over_gain`` stays importable here: perfbench's tracer and its
# smoke test look for it on this module.
from .model import Channel, Scenario, coefficient_chain, expect_over_gain  # noqa: F401
from .demand import XiTable, build_xi_table, simulate_demand_batch
from .slow import _task_members, priorities, priority_order

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

    The table owns what it was built from: its ``scenario``, its sorted
    ``task_set`` and the demand table ``xi`` it continues.  ``value(j)`` is
    the coefficient with ``j`` slots remaining before the deadline,
    tabulated for ``j = N-N_P+1 .. N`` (the prefetch phase); ``u(j)``
    caches ``(1/value(j))**(1/(m-1))``.  The boundary entry couples into
    the demand table through the set's inverse-probability mass
    ``A = sum_S p**(-1/(m-1))``.
    """

    scenario: Scenario
    task_set: tuple
    zeta: tuple
    inv_root: tuple
    xi: XiTable

    @property
    def first_index(self) -> int:
        return self.scenario.N - self.scenario.N_P + 1

    @property
    def last_index(self) -> int:
        return self.scenario.N

    def value(self, slots_to_deadline: int) -> float:
        return self.zeta[self._offset(slots_to_deadline)]

    def u(self, slots_to_deadline: int) -> float:
        return self.inv_root[self._offset(slots_to_deadline)]

    def _offset(self, slots_to_deadline: int) -> int:
        if not self.first_index <= slots_to_deadline <= self.last_index:
            raise ValueError(
                f"zeta index {slots_to_deadline} outside [{self.first_index}, {self.last_index}]")
        return slots_to_deadline - self.first_index


def build_zeta_table(s: Scenario, channel: Channel, task_set: Iterable[int],
                     xi: XiTable) -> ZetaTable:
    """Tabulate the prefetch coefficients for a candidate target set.

    The recursion runs upward in slots-to-deadline ``j``; the boundary entry
    (``j = N - N_P + 1``, the final prefetch slot) couples into the demand
    coefficients through the set's inverse-probability mass,

        zeta = E[ (g**(1/(m-1)) + u_xi * A)**-(m-1) ],
        u_xi = (1/xi[N-N_P])**(1/(m-1)),  A = sum_S p**(-1/(m-1)),

    and deeper entries reuse the demand-style recursion with the previous
    zeta in place of xi: one :func:`~livefetch.model.coefficient_chain`
    from ``u_xi * A``.
    """
    return _zeta_tables(s, channel, [tuple(_task_members(s, task_set))], xi)[0]


def build_prefix_tables(s: Scenario, channel: Channel, xi: XiTable) -> list:
    """Zeta tables for every priority-ordered prefix (sizes 1..L).

    All ``L`` chains advance together, one vectorized step per slot; each
    table equals :func:`build_zeta_table` on its prefix bit for bit.
    """
    return _zeta_tables(s, channel, _prefix_sets(s), xi)


def _prefix_sets(s: Scenario) -> list:
    """The priority prefixes of sizes ``1..L``, each a sorted tuple."""
    order = priority_order(s)
    return [tuple(sorted(order[:k])) for k in range(1, s.L + 1)]


def _check_xi(s: Scenario, channel: Channel, xi: XiTable) -> None:
    """Raise ``ValueError`` unless ``xi`` is a demand table of ``s`` under ``channel``."""
    if s.N == s.N_P:
        raise ValueError("the fast-fading prefetch phase requires a demand phase (N > N_P)")
    if xi.channel != channel or xi.m != s.m or xi.horizon < s.N - s.N_P:
        raise ValueError("xi table does not match the scenario/channel")


def _zeta_tables(s: Scenario, channel: Channel, sets: list, xi: XiTable) -> list:
    """Zeta tables of the given sorted, valid target sets."""
    _check_xi(s, channel, xi)
    root = 1.0 / (s.m - 1)
    masses = [float(np.sum(s.p[list(members)] ** (-root))) for members in sets]
    entries, roots = coefficient_chain(channel, s.m, xi.inv_root[s.N - s.N_P] * np.array(masses),
                                       s.N_P)
    return [ZetaTable(scenario=s, task_set=members, zeta=tuple(zeta),
                      inv_root=tuple(inv_root), xi=xi)
            for members, zeta, inv_root in zip(sets, entries.tolist(), roots.tolist())]


def expected_total_energy_fast(zeta: ZetaTable) -> float:
    """Expected stage energy of the threshold policy locked to the table's set ``S``.

        (sum_S gamma)**m * zeta_N(S)
            + xi[N-N_P] * sum_{l not in S} p(l) * gamma(l)**m

    per unit ``lam``.  Tasks outside the set are fetched purely on demand.
    """
    s, members = zeta.scenario, list(zeta.task_set)
    outside = np.setdiff1d(np.arange(s.L), members)
    demand = float(np.sum(s.p[outside] * s.gamma[outside] ** s.m))
    energy = zeta.xi.xi[s.N - s.N_P] * demand
    return energy + float(np.sum(s.gamma[members])) ** s.m * zeta.value(s.N)


def no_prefetch_energy_fast(s: Scenario, xi: XiTable) -> float:
    """Expected stage energy when all fetching waits for the demand phase.

        xi[N-N_P] * sum_l p(l) * gamma(l)**m  per unit ``lam``.
    """
    _check_xi(s, xi.channel, xi)
    return xi.xi[s.N - s.N_P] * float(np.sum(s.p * s.gamma ** s.m))


@dataclass(frozen=True)
class BatchResult:
    """Vectorized episode statistics per unit ``lam`` (one entry per episode)."""

    policy: PrefetchPolicy
    prefetch_energy: np.ndarray
    demand_energy: np.ndarray
    realized: np.ndarray
    set_size: np.ndarray            #: final working-set size (0 for no-prefetch)
    final_rho: np.ndarray           #: (E, L) residual bits per task, original order
    thresholds: Optional[np.ndarray] = None     #: (E, N_P) if traced
    decisions: Optional[np.ndarray] = None      #: (E, N_P, L) if traced, original order
    slot_set_size: Optional[np.ndarray] = None  #: (E, N_P) working-set sizes if traced

    @property
    def total_energy(self) -> np.ndarray:
        return self.prefetch_energy + self.demand_energy

    @property
    def beta(self) -> np.ndarray:
        """Residual bits of the realized task."""
        return self.final_rho[np.arange(self.realized.size), self.realized]


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
    The arrays are ``(E,)``, or ``(L, E)`` while every locked prefix runs
    at once (row ``k-1`` locks the size-``k`` prefix).
    """

    level: np.ndarray                     #: last slot's threshold
    bound: np.ndarray                     #: largest working set so far
    energy: np.ndarray                    #: prefetch energy
    set_size: np.ndarray                  #: final working-set size
    thresholds: Optional[np.ndarray]      #: (..., N_P) when traced
    slot_set_size: Optional[np.ndarray]   #: (..., N_P) when traced

    def record(self, n: int, k, eta: np.ndarray) -> None:
        """Move to slot ``n``'s threshold on the size-``k`` sets."""
        self.level = eta
        self.bound = np.maximum(self.bound, k)
        self.set_size[:] = k
        if self.thresholds is not None:
            self.thresholds[..., n - 1] = eta
            self.slot_set_size[..., n - 1] = k

    def pick(self, rows: np.ndarray) -> None:
        """Keep, for episode ``e`` of an ``(L, E)`` state, row ``rows[e]``."""
        episodes = np.arange(rows.size)
        for field in fields(self):
            value = getattr(self, field.name)
            if value is not None:
                setattr(self, field.name, value[rows, episodes])


@dataclass(frozen=True)
class _Kernel:
    """Per-batch constants of the prefetch phase, tasks in priority order."""

    s: Scenario
    order: np.ndarray      #: (L,) task indices in priority order
    gam: np.ndarray        #: (L,) data sizes
    prob: np.ndarray       #: (L,) task probabilities
    w: np.ndarray          #: (L,) probability weights p**(-1/(m-1))
    delta: np.ndarray      #: (L+1,) priorities gamma/w, non-increasing, then -inf
    cum_w: np.ndarray      #: (L+1,) prefix sums of w, from 0
    span: np.ndarray       #: (L+1, L+1): [c, j] = sum of gamma over c <= l < j
    u_zeta: np.ndarray     #: [k-1, n-1]: u of the size-k prefix table at N-n to go
    u_xi: float
    demand_weight: float   #: xi[N-N_P]
    gains: np.ndarray      #: (E, N) all gains
    u_gain: np.ndarray     #: (E, N_P) prefetch-phase gains**(1/(m-1))
    trace: bool

    def start(self, shape: tuple) -> _Phase:
        traced = np.zeros(shape + (self.s.N_P,)) if self.trace else None
        return _Phase(level=np.full(shape, self.delta[0]), bound=np.zeros(shape, dtype=int),
                      energy=np.zeros(shape), set_size=np.zeros(shape, dtype=int),
                      thresholds=traced,
                      slot_set_size=None if traced is None else traced.astype(int))

    def residuals(self, level: np.ndarray, bound: np.ndarray) -> np.ndarray:
        """Bits each task still holds at water ``level`` under set ``bound``."""
        level, bound = level[..., None], bound[..., None]
        clamped = (np.arange(self.s.L) < bound) & (self.delta[:-1] > level)
        return np.where(clamped, level * self.w, self.gam)

    def above(self, level: np.ndarray) -> np.ndarray:
        """Number of tasks whose priority exceeds ``level``."""
        return (-self.delta[:-1]).searchsorted(-level)

    def clamped(self, level: np.ndarray, bound: np.ndarray) -> np.ndarray:
        """Count ``c`` of the leading tasks held at the water level."""
        return np.minimum(bound, self.above(level))

    def totals(self, level, c, j) -> np.ndarray:
        """Residual totals of the size-``j`` prefixes with ``c`` tasks at ``level``."""
        return level * np.minimum(self.cum_w[j], self.cum_w[c]) + self.span[c, j]

    def solve(self, level: np.ndarray, bound: np.ndarray, n: int, k):
        """Prefetch slot ``n`` on the size-``k`` prefixes: active count, threshold, sent bits.

        Before the final slot the continuation depends on the members'
        residual total ``R_k`` only, so the slot sends the stage-optimal total
        ``T = R_k * u_g / (u_g + u_c)`` and an active prefix of size ``j``
        has the threshold ``(R_j - T) / W_j``; the final slot's stage problem
        is exactly separable, its threshold ``R_j / (W_j + u_g / u_xi)``.
        The active prefix is the first whose threshold reaches the next
        member's ratio ``f_j = min(delta, level)``, i.e. ``R_j - f_j * W_j``
        reaches ``T`` (or ``f_j * u_g / u_xi``).  That left side never
        decreases in ``j`` and ``f_j`` never increases, so the first reached
        prefix is found by bisection over ``[c, k]``; below the clamped
        count ``c`` no prefix is reached while the members hold bits.
        """
        c = self.clamped(level, bound)
        u_g = self.u_gain[:, n - 1]
        if n == self.s.N_P:
            total, spare = 0.0, u_g / self.u_xi
        else:
            total = self.totals(level, c, k) * u_g / (u_g + self.u_zeta[k - 1, n - 1])
            spare = 0.0
        lo = np.minimum(np.maximum(c, 1), k)
        active = np.maximum(lo, k)
        for _ in range(int((active - lo).max(initial=0)).bit_length()):
            mid = (lo + active) // 2
            eta = (self.totals(level, c, mid) - total) / (self.cum_w[mid] + spare)
            reached = eta >= np.minimum(self.delta[mid], level)
            active = np.where(reached, mid, active)
            lo = np.where(reached, lo, mid + 1)
        held = self.totals(level, c, active)
        eta = np.maximum((held - total) / (self.cum_w[active] + spare), 0.0)
        return active, eta, held - eta * self.cum_w[active]

    def slot(self, phase: _Phase, n: int, k) -> np.ndarray:
        """Execute prefetch slot ``n`` on the size-``k`` prefixes; returns the threshold."""
        _, eta, sent = self.solve(phase.level, phase.bound, n, k)
        phase.energy += sent ** self.s.m / self.gains[:, n - 1]
        phase.record(n, k, eta)
        return eta

    def locked(self, k) -> _Phase:
        """The prefetch phase with the size-``k`` priority prefix locked.

        ``k`` is a size or an ``(L, 1)`` column of sizes, one row each.
        """
        phase = self.start(np.broadcast_shapes(np.shape(k), self.gains.shape[:1]))
        for n in range(1, self.s.N_P + 1):
            self.slot(phase, n, k)
        return phase

    def noncausal(self) -> _Phase:
        """Every locked prefix at once, keeping the best-scoring one per episode.

        A prefix scores its realized prefetch energy plus the expected
        demand energy of its residuals, ``xi * sum p * rho**m``.  The
        ``c`` clamped tasks hold ``w * level`` and ``p * w**m = w``, so the
        sum is ``level**m * W_c`` plus the tail sum of ``p * gamma**m``.
        ``argmin`` keeps the first minimum: ties go to the smaller prefix.
        """
        s = self.s
        phase = self.locked(np.arange(1, s.L + 1)[:, None])
        tail = np.append(np.cumsum((self.prob * self.gam ** s.m)[::-1])[::-1], 0.0)
        c = self.clamped(phase.level, phase.bound)
        score = phase.energy + self.demand_weight * (phase.level ** s.m * self.cum_w[c] + tail[c])
        phase.pick(np.argmin(score, axis=0))
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
        phase = self.start(self.gains.shape[:1])
        rows = np.arange(self.gains.shape[0])
        sizes = np.arange(1, s.L + 1)
        positive = np.zeros(rows.size, dtype=int)
        for n in range(1, s.N_P + 1):
            u_g = self.u_gain[:, n - 1, None]
            clamped = self.clamped(phase.level, phase.bound)[:, None]
            residual = self.totals(phase.level[:, None], clamped, sizes)
            if n == s.N_P:
                eta_hat = residual * u_xi / (u_g + u_xi * mass)
            elif policy is PrefetchPolicy.AGGRESSIVE:
                eta_hat = residual * u_xi / (u_g + self.u_zeta[:, n - 1])
            else:
                u_z = self.u_zeta[:, n - 1]
                eta_hat = residual * u_z / ((u_g + u_z) * mass)
            admitted = self.above(eta_hat)
            match = (admitted == sizes) & (sizes >= positive[:, None])
            first = np.argmax(match, axis=1)
            k = np.where(match[rows, first], first + 1, s.L)
            eta = self.slot(phase, n, k)
            positive = np.minimum(k, self.above(eta))
        return phase


def _kernel(s: Scenario, xi: XiTable, prefix_tables: Optional[Sequence[ZetaTable]],
            gains: np.ndarray, trace: bool = False) -> _Kernel:
    """The batch constants; ``prefix_tables`` may be ``None`` when no slot runs."""
    d = s.N - s.N_P
    root = 1.0 / (s.m - 1)
    order = np.array(priority_order(s))
    gam, prob = s.gamma[order], s.p[order]
    w = prob ** (-root)
    # Summing each row from its own start keeps the unclamped part of a
    # prefix total free of the cancellation in a difference of prefix sums.
    ahead = np.arange(s.L) >= np.arange(s.L + 1)[:, None]
    span = np.cumsum(np.where(ahead, gam, 0.0), axis=1)
    u_zeta = np.zeros((s.L, max(s.N_P - 1, 1)))
    if prefix_tables is not None and s.N_P > 1:
        u_zeta[:] = [table.inv_root[s.N_P - 2::-1] for table in prefix_tables]
    return _Kernel(s=s, order=order, gam=gam, prob=prob, w=w,
                   delta=np.append(priorities(s)[order], -np.inf),
                   cum_w=np.concatenate([[0.0], np.cumsum(w)]),
                   span=np.concatenate([np.zeros((s.L + 1, 1)), span], axis=1),
                   u_zeta=u_zeta, u_xi=xi.inv_root[d], demand_weight=xi.xi[d],
                   gains=gains,
                   u_gain=gains[:, :s.N_P] ** root, trace=trace)


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
    revealed prefetch gains, all ``L`` of them as one ``(L, episodes)``
    batch, and keeps, per episode, the one with the lowest realized
    prefetch energy plus expected demand energy of its residuals (ties go
    to the smaller prefix).  With ``forced_prefix`` it locks the target
    set to the priority prefix of that size for every episode instead; any
    other policy rejects ``forced_prefix``.  The demand phase always runs
    the xi-policy.  ``trace`` fills the per-slot thresholds, decisions and
    working-set sizes.  Energies are per unit ``lam``.

    ``xi`` (built when omitted) must be the demand table of ``channel`` and
    ``s.m`` with a horizon of at least ``N - N_P``, and ``prefix_tables``
    (built when omitted and needed) the ``L`` priority prefixes of this
    very ``s`` under this ``xi``; otherwise ``ValueError``.
    """
    policy = PrefetchPolicy(policy)
    if xi is None:
        xi = build_xi_table(channel, s.m, s.N - s.N_P)
    _check_xi(s, channel, xi)
    if prefix_tables is not None:
        built = [(table.scenario, table.task_set, table.xi) for table in prefix_tables]
        if built != [(s, members, xi) for members in _prefix_sets(s)]:
            raise ValueError("prefix_tables are not the priority prefixes of s under xi")
    gains = np.asarray(gains, dtype=float)
    realized = np.asarray(realized, dtype=int)
    if gains.ndim != 2 or gains.shape[1] != s.N:
        raise ValueError(f"gains must have shape (episodes, {s.N})")
    if realized.shape != (gains.shape[0],):
        raise ValueError("realized must hold one task index per episode")
    if not np.all(gains > 0.0):
        raise ValueError("all gains must be strictly positive")
    if np.any((realized < 0) | (realized >= s.L)):
        raise IndexError("realized task index out of range")
    if forced_prefix is not None and policy is not PrefetchPolicy.NONCAUSAL_ORACLE:
        raise ValueError(f"only the noncausal policy takes forced_prefix, not {policy.value}")
    if forced_prefix is not None and not 1 <= forced_prefix <= s.L:
        raise ValueError(f"forced_prefix must lie in 1..{s.L}")
    if policy is PrefetchPolicy.NO_PREFETCH:
        prefix_tables = None
    elif prefix_tables is None:
        prefix_tables = build_prefix_tables(s, channel, xi)
    kernel = _kernel(s, xi, prefix_tables, gains, trace)

    episodes = gains.shape[0]
    if policy is PrefetchPolicy.NO_PREFETCH:
        phase = kernel.start((episodes,))
    elif forced_prefix is not None:
        phase = kernel.locked(forced_prefix)
    elif policy is PrefetchPolicy.NONCAUSAL_ORACLE:
        phase = kernel.noncausal()
    else:
        phase = kernel.causal(policy)

    inv_order = np.argsort(kernel.order)
    final_rho = kernel.residuals(phase.level, phase.bound)[:, inv_order]
    decisions = None
    if trace:
        pad = ((0, 0), (1, 0))
        held = kernel.residuals(np.pad(phase.thresholds, pad, constant_values=kernel.delta[0]),
                                np.maximum.accumulate(np.pad(phase.slot_set_size, pad), axis=1))
        decisions = (held[:, :-1] - held[:, 1:])[:, :, inv_order]
    _, demand = simulate_demand_batch(final_rho[np.arange(episodes), realized],
                                      gains[:, s.N_P:], xi)
    return BatchResult(policy=policy, prefetch_energy=phase.energy,
                       demand_energy=np.cumsum(demand, axis=1)[:, -1],
                       realized=realized, set_size=phase.set_size,
                       final_rho=final_rho, thresholds=phase.thresholds,
                       decisions=decisions, slot_set_size=phase.slot_set_size)
