"""Threshold-based live prefetching under fast fading.

During the ``N_P`` prefetch slots the device observes the current gain and
decides how many bits of each candidate task to push.  The optimal causal
policy is a soft water-filling: task ``l`` receives

    s_n(l) = [rho_n(l) - eta_n * p(l)**(-1/(m-1))]+

where ``rho_n`` are the residual bits and the threshold ``eta_n`` depends on
the gain, the slot and a second family of backward coefficients ``zeta``
(one table per candidate target set ``S``).  Thresholds only fall and a
causal set leaves out only tasks at or below them, so an episode's whole
phase state is its water level.  One vectorized slot step executes every
prefetch slot of every policy: it sends the stage-optimal slot total and
finds the threshold by bisecting the priority prefixes above the count of
tasks held at the water level, whose residual totals are closed forms in
the water level; it coincides with the closed forms in
:mod:`livefetch.oracles` whenever every member of ``S`` is active.  The
policies differ only in the priority prefix the step works on, so one slot
loop runs them all, each policy a rule for the prefix size: the noncausal
oracle scores every locked prefix against the revealed gains in closed
form and locks the best one per episode, and the two causal estimators
(an optimistic and a pessimistic guess of the final-slot threshold)
regrow the set every slot, scanning up from the count of tasks held at
the water level.  The loop runs on the whole batch; only the noncausal
scorer runs in cache-sized blocks of episodes, and its last slot's search
stops at the block's reach: a size that every episode reaches at its
largest sent total, and so at every prefix's.  No threshold depends on
the energy coefficient ``lam``, so every energy here is per unit
``lam``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

# ``expect_over_gain`` stays importable here: perfbench's tracer and its
# smoke test look for it on this module.
from .model import (  # noqa: F401
    Channel, Scenario, _integer_in, coefficient_chain, expect_over_gain)
from .demand import XiTable, build_xi_table, simulate_demand_batch
from .slow import _finite_energy, _task_members, priorities, priority_order

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


#: The noncausal oracle scores its prefixes in blocks of episodes whose
#: ``(L, episodes)`` arrays hold at most this many entries (64 KiB of
#: float64, half of glibc's default mmap threshold), so that the scorer's
#: temporaries stay in cache and come from the heap, reused block to block
#: without fresh page faults.  No other array of the prefetch phase is
#: ``(L, episodes)``.
_BLOCK_ENTRIES = 2 ** 13


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
        if not _integer_in(slots_to_deadline, self.first_index, self.last_index):
            raise ValueError(f"zeta index must be an integer in "
                             f"{self.first_index}..{self.last_index}, got {slots_to_deadline!r}")
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
    An energy that overflows is a numerical failure (``FloatingPointError``).
    """
    s, members = zeta.scenario, list(zeta.task_set)
    outside = np.setdiff1d(np.arange(s.L), members)
    demand = float(np.sum(s.p[outside] * s.gamma[outside] ** s.m))
    energy = zeta.xi.xi[s.N - s.N_P] * demand
    return _finite_energy(energy + np.sum(s.gamma[members]) ** s.m * zeta.value(s.N))


def no_prefetch_energy_fast(s: Scenario, xi: XiTable) -> float:
    """Expected stage energy when all fetching waits for the demand phase.

        xi[N-N_P] * sum_l p(l) * gamma(l)**m  per unit ``lam``.

    An energy that overflows is a numerical failure (``FloatingPointError``).
    """
    _check_xi(s, xi.channel, xi)
    return _finite_energy(xi.xi[s.N - s.N_P] * np.sum(s.p * s.gamma ** s.m))


@dataclass(frozen=True)
class BatchResult:
    """Vectorized episode statistics per unit ``lam`` (one entry per episode).

    The result stores its ``scenario``, its energies, the realized tasks
    and each slot's threshold and working-set size.  ``final_rho``,
    ``beta``, ``set_size`` and ``decisions`` derive from that record, the
    residual views by the one checked rule :func:`_residuals`.
    """

    scenario: Scenario
    policy: PrefetchPolicy
    prefetch_energy: np.ndarray
    demand_energy: np.ndarray
    realized: np.ndarray
    thresholds: np.ndarray          #: (E, N_P) each slot's threshold
    slot_set_size: np.ndarray       #: (E, N_P) each slot's working-set size (0 for no-prefetch)

    @property
    def total_energy(self) -> np.ndarray:
        return self.prefetch_energy + self.demand_energy

    @property
    def final_rho(self) -> np.ndarray:
        """``(E, L)`` residual bits per task."""
        return _residuals(self.scenario, self.thresholds[:, -1:], self.slot_set_size[:, -1:],
                          np.arange(self.scenario.L))

    @property
    def beta(self) -> np.ndarray:
        """Residual bits of the realized task."""
        return _residuals(self.scenario, self.thresholds[:, -1], self.slot_set_size[:, -1],
                          self.realized)

    @property
    def set_size(self) -> np.ndarray:
        """Final working-set size."""
        return self.slot_set_size[:, -1]

    @property
    def decisions(self) -> np.ndarray:
        """``(E, N_P, L)`` bits each slot sends to each task."""
        pad = ((0, 0), (1, 0), (0, 0))
        held = _residuals(self.scenario, np.pad(self.thresholds[..., None], pad),
                          np.pad(self.slot_set_size[..., None], pad), np.arange(self.scenario.L))
        return held[:, :-1] - held[:, 1:]


def _residuals(s: Scenario, level, size, task) -> np.ndarray:
    """Bits task ``task`` of ``s`` holds at water ``level`` after a slot on ``size`` tasks.

    A task holds its whole ``gamma`` if it is not among the ``size`` first
    in priority order or its priority is at most ``level``, and ``level *
    p**(-1/(m-1))`` otherwise (see :meth:`_Kernel.phase`).  The arguments
    broadcast; ``task`` holds task indices.  A NaN level compares false, so
    it leaves the members' residuals NaN rather than whole.  This is the
    one residual check: bits that come out negative or not finite are a
    numerical failure (``FloatingPointError``).
    """
    rank = np.empty(s.L, dtype=int)
    rank[priority_order(s)] = np.arange(s.L)
    whole = (rank[task] >= size) | (priorities(s)[task] <= level)
    held = np.where(whole, s.gamma[task], level * (s.p ** -(1.0 / (s.m - 1)))[task])
    if not np.all((held >= 0.0) & (held < np.inf)):
        raise FloatingPointError("residual bits came out negative or not finite")
    return held


@dataclass(frozen=True)
class _Kernel:
    """Per-batch constants of the prefetch phase, tasks in priority order.

    :meth:`phase` holds the one slot loop; a policy only chooses each
    slot's prefix size, and :meth:`step` executes the slot.  Each slot rule
    is written once: :meth:`clamp` gives the slot's clamped state,
    :meth:`totals` the prefix totals in it, :meth:`total_and_spare` the
    slot's total and spare, :meth:`reached` the test that the step's
    search and the scorer's reach share, and ``span`` is the only
    ``(L+1)**2`` table.  Only the noncausal oracle's
    :meth:`prefix_scores` crosses episodes with sizes, on ``(L, E)`` arrays
    with the episodes on the last axis; the causal set rule
    (:meth:`regrown`) reads one ``(E,)`` row of sizes per round.
    """

    s: Scenario
    tail: np.ndarray       #: (L+1,) suffix sums of p * gamma**m, then 0
    delta: np.ndarray      #: (L+1,) priorities gamma/w, non-increasing, then -inf
    cum_w: np.ndarray      #: (L+1,) prefix sums of w, from 0
    span: np.ndarray       #: ((L+1)**2,) [c*(L+1) + j] = sum of gamma over c <= l < j
    u_zeta: np.ndarray     #: [k-1, n-1]: u of the size-k prefix at N-n to go (u_xi*A_k at n = N_P)
    u_xi: float
    demand_weight: float   #: xi[N-N_P]
    gains: np.ndarray      #: (E, N) all gains
    u_gain: np.ndarray     #: (E, N_P) prefetch-phase gains**(1/(m-1))

    def above(self, level: np.ndarray) -> np.ndarray:
        """Number of tasks whose priority exceeds ``level``."""
        return np.searchsorted(-self.delta[:-1], -level)

    def clamp(self, level, c) -> tuple:
        """A slot's clamped state: the row offset ``c * (L+1)`` and the share ``level * cum_w[c]``.

        The first ``c`` tasks hold ``level * w``; the slot computes this
        pair once and hands it to :meth:`regrown`, :meth:`totals` and
        :meth:`step`.
        """
        return c * (self.s.L + 1), level * self.cum_w.take(c)

    def totals(self, clamp: tuple, j) -> np.ndarray:
        """Residual totals of the size-``j`` prefixes in the :meth:`clamp` state ``clamp``.

        The clamped share plus the rest of the prefix's data sizes,
        ``span`` at ``c * (L+1) + j``.  Only sizes ``j >= c`` are prefix
        totals (see :meth:`phase`).
        """
        row, share = clamp
        return share + self.span.take(row + j)

    def total_and_spare(self, held, n: int, k) -> tuple:
        """Slot ``n``'s ``total`` and ``spare`` for :meth:`step` on the size-``k`` prefixes.

        ``held`` is the members' residual total ``R_k``.  Before the final
        slot the continuation depends on ``R_k`` only, so the slot sends the
        stage-optimal ``total = R_k * u_g / (u_g + u_z)`` with ``spare =
        0``; the final slot's stage problem is exactly separable, ``total =
        0`` and ``spare = u_g / u_xi``, and ``held`` is not read.
        """
        u_g = self.u_gain[:, n - 1]
        if n == self.s.N_P:
            return 0.0, u_g / self.u_xi
        return held * u_g / (u_g + self.u_zeta[k - 1, n - 1]), 0.0

    def reached(self, level, clamp: tuple, j, total, spare) -> np.ndarray:
        """Whether the size-``j`` prefix's threshold reaches the next member's ratio.

        The threshold is ``(R_j - total) / (W_j + spare)`` and the ratio
        ``min(delta[j], level)``.  In rounded arithmetic the test is
        monotone non-increasing in ``total``: the subtraction and the
        division by the same positive denominator are both monotone.
        """
        eta = (self.totals(clamp, j) - total) / (self.cum_w.take(j) + spare)
        return eta >= np.minimum(self.delta.take(j), level)

    def step(self, level, c, clamp: tuple, k, total, spare):
        """One prefetch slot on the size-``k`` prefixes: active count, threshold, sent bits.

        ``c`` is the state's clamped count, ``clamp`` its :meth:`clamp`
        pair and ``k >= max(c, 1)`` (proved in :meth:`phase`), and an
        active prefix of size ``j`` has the threshold ``(R_j - total) /
        (W_j + spare)``; the caller passes :meth:`total_and_spare`, so that
        the slot loop and :meth:`prefix_scores` share this step.  The active
        prefix is the first :meth:`reached` one: its threshold reaches the
        next member's ratio ``f_j = min(delta, level)``, i.e. ``R_j - f_j *
        W_j`` reaches ``total + f_j * spare``.  The left side never
        decreases in ``j`` and ``f_j`` never increases, so the first reached
        prefix is found by bisecting ``[max(c, 1), k]`` (``k`` broadcast to
        the episodes' shape); below the clamped count ``c`` no prefix is
        reached while the members hold bits.  Each probe at ``(lo +
        active) // 2`` halves a bracket of ``w`` sizes beyond its first to
        at most ``w // 2``, so the search takes at most ``bit_length(max(k
        - max(c, 1)))`` rounds; an episode whose bracket is one prefix
        re-tests it and changes nothing.  Every size the step reads is at
        least ``c``, so the clamped share of :meth:`totals` holds at each of
        them.
        """
        lo = np.maximum(c, 1)
        active = np.maximum(lo, k)
        while (lo < active).any():
            mid = (lo + active) // 2
            reached = self.reached(level, clamp, mid, total, spare)
            np.copyto(active, mid, where=reached)
            np.copyto(lo, mid + 1, where=~reached)
        held = self.totals(clamp, active)
        mass = self.cum_w.take(active)
        eta = np.maximum((held - total) / (mass + spare), 0.0)
        return active, eta, held - eta * mass

    def phase(self, policy: PrefetchPolicy) -> tuple:
        """The prefetch phase of the batch under ``policy``: the one slot loop.

        Returns the prefetch energy ``(E,)`` and each slot's threshold and
        prefix size ``(N_P, E)``.  Within the loop an episode's state is its
        water level (the last threshold) alone.  After a slot on the
        size-``k`` prefix, task ``l`` in priority order holds
        ``w(l) * level`` if ``l < k`` and ``delta(l) > level``, and exactly
        ``gamma(l)`` otherwise, so the next slot's clamped count is
        ``c = min(k, above(level))`` (``k = 0`` before the first slot).
        This holds because thresholds only fall (each slot sends a positive
        total below the members' residual), because no size drops a clamped
        task (every size is at least ``c``) and because no task left out of
        the prefix is above the new level.  A locked prefix never changes
        size.  A causal rule picks the least size ``k_n >= max(c, 1)``
        whose estimate ``eta_hat`` admits exactly ``k_n`` tasks (``L`` if
        none does), so every task outside the prefix has
        ``delta <= delta[k_n] <= eta_hat <= eta_n``: both causal estimates
        are at most the executed threshold (the conservative one is the
        all-active formula, a lower bound once members clamp; the
        aggressive one lies below it since ``u_z >= u_xi * A``, with
        equality in the final slot, where both rules take it).  So
        ``above(eta_n) <= k_n``, and a bound on the largest size so far
        would clamp no other task.

        Every :meth:`step` runs with ``k >= max(c, 1)``, so every size it
        and :meth:`totals` read is at least ``c``.  A locked prefix has ``k
        >= 1`` and ``c = min(k, above(level)) <= k``.  A causal size is
        where :meth:`regrown`'s scan stops, and the scan starts at ``max(c,
        1)`` and only steps up.  The noncausal scorer (:meth:`prefix_scores`)
        steps from ``c = 0`` with ``k >= 1``.

        Each slot takes its clamped count ``c`` and its :meth:`clamp` pair
        once, the policy's prefix size ``k`` with the members' residual
        total, the slot's :meth:`total_and_spare` and one :meth:`step`;
        no-prefetch runs no slot.  The noncausal oracle locks one size per
        episode: the prefix with the least :meth:`prefix_scores` (the first
        minimum, so ties go to the smaller prefix), so its energies,
        thresholds and sizes are the loop's on that prefix.  Only the
        scorer builds ``(L, E)`` arrays, so only it runs in blocks of
        ``_BLOCK_ENTRIES // L`` episodes; every score is an episode's own,
        so the blocks change no bit.  The causal policies
        regrow the size every slot (:meth:`regrown`, which also returns the
        residual total at the size it picks) from the tasks that got
        positive bits in the previous slot, the leading ``c``: the count
        above this slot's water level is the count above the last slot's
        threshold.
        """
        s, episodes = self.s, self.gains.shape[0]
        causal = policy is not PrefetchPolicy.NONCAUSAL_ORACLE
        if causal:
            k = np.zeros(episodes, dtype=int)
        else:
            size = max(1, _BLOCK_ENTRIES // s.L)
            k = np.concatenate([
                np.argmin(replace(self, gains=self.gains[start:start + size],
                                  u_gain=self.u_gain[start:start + size]).prefix_scores(), axis=0)
                for start in range(0, max(episodes, 1), size)]) + 1
        level, energy = np.full(episodes, self.delta[0]), np.zeros(episodes)
        sizes, thresholds = np.zeros((s.N_P, episodes), dtype=int), np.zeros((s.N_P, episodes))
        slots = 0 if policy is PrefetchPolicy.NO_PREFETCH else s.N_P
        for n in range(1, slots + 1):
            c = np.minimum(k, self.above(level))
            clamp = self.clamp(level, c)
            if causal:
                k, held = self.regrown(policy, c, clamp, n)
            else:
                held = self.totals(clamp, k) if n < s.N_P else None
            _, level, sent = self.step(level, c, clamp, k, *self.total_and_spare(held, n, k))
            energy += sent ** s.m / self.gains[:, n - 1]
            thresholds[n - 1], sizes[n - 1] = level, k
        return energy, thresholds, sizes

    def prefix_scores(self) -> np.ndarray:
        """The noncausal score of every locked prefix size, ``(L, E)``.

        A prefix scores its realized prefetch energy plus the expected
        demand energy of its residuals, ``xi * sum p * rho**m``.  Locked to
        size ``k``, every slot before the last sends exactly ``T = R * u_g /
        (u_g + u_z)``: its threshold ``(R_j - T) / W_j`` is never negative,
        since ``T < R``.  So the members' residual total follows the chain
        ``R <- R - T`` (:meth:`total_and_spare`) whatever the water level.
        All bits sent so far came from the clamped tasks, which lead the
        prefix, so the last slot's threshold is one :meth:`step` from the
        full residuals (``level = delta[0]``, ``c = 0``) with the bits
        already sent, ``T_k = R_0 - R``, as its total and ``u_g / u_xi`` as
        its spare, and that slot sends ``eta * u_g / u_xi``.

        That step's :meth:`reached` test depends on the prefix only through
        ``T_k``, and is monotone non-increasing in it.  So a size that every
        episode reaches at its largest total ``max_k T_k`` is reached at
        every ``T_k``, and no prefix's first reached size lies above it.
        The block's reach is the least such size among ``1, 2, 4, ...``
        below ``L`` (``L`` if none is), each tested on one ``(E,)`` row,
        and the step bisects ``[1, min(k, reach)]`` in place of ``[1, k]``:
        the same first reached sizes in ``bit_length(reach - 1)`` rounds.
        The rounds follow the widest bracket, so a reach per episode would
        save no more: the largest one, rounded up to a power of two, is
        this one and has the same ``bit_length``.

        The ``c`` clamped tasks then hold ``w * eta`` and ``p * w**m = w``,
        so the demand sum is ``eta**m * W_c`` plus the tail sum of ``p *
        gamma**m``.  The scores equal the slot loop's on each locked prefix
        to rounding (the tests bound it at 1e-14 relative).
        """
        s, episodes = self.s, self.gains.shape[0]
        k = np.arange(1, s.L + 1)[:, None]
        first = self.span.take(k)
        held, energy = first, 0.0
        for n in range(1, s.N_P):
            sent, _ = self.total_and_spare(held, n, k)
            energy = energy + sent ** s.m / self.gains[:, n - 1]
            held = held - sent
        _, spare = self.total_and_spare(held, s.N_P, k)
        level, total = self.delta[0], first - held
        # Nothing is clamped, so every probe reads row 0 of ``span`` plus a
        # zero share: the scalar pair ``unclamped``, not an (L, E) gather.
        unclamped, largest, reach = self.clamp(level, 0), total.max(axis=0), 1
        while reach < s.L and not self.reached(level, unclamped, reach, largest, spare).all():
            reach *= 2
        c = np.zeros((s.L, episodes), dtype=int)
        _, eta, _ = self.step(level, c, unclamped, np.minimum(k, reach), total, spare)
        energy = energy + (eta * spare) ** s.m / self.gains[:, s.N_P - 1]
        c = np.minimum(k, self.above(eta))
        return energy + self.demand_weight * (eta ** s.m * self.cum_w[c] + self.tail[c])

    def regrown(self, policy: PrefetchPolicy, c, clamp: tuple, n: int) -> tuple:
        """The causal set rule: slot ``n``'s prefix size and its residual total, per episode.

        The size is the smallest, at least ``max(c, 1)`` for the clamped
        count ``c``, whose estimated final threshold admits exactly as many
        tasks as the prefix holds (the full set if none does).  The
        estimates are

            aggressive:   R * u_xi / (u_g + u_z(N-n))
            conservative: R * u_z(N-n) / ((u_g + u_z(N-n)) * A)

        with ``R`` the prefix's residual total in the :meth:`clamp` state
        ``clamp`` (:meth:`totals`) and ``A`` its inverse-probability mass.
        At the final slot ``u_z(N-N_P)`` is ``u_xi * A``, the root that the
        prefix's zeta chain starts from (``u_zeta``'s last column), and both
        rules take the aggressive formula, there the exact ``R * u_xi /
        (u_g + u_xi * A)``.  A threshold admits the tasks whose priority
        exceeds it; ``delta`` does not increase and ends in ``-inf``, so the
        size-``j`` estimate admits exactly ``j`` tasks when ``delta[j-1] >
        eta_hat >= delta[j]``: two comparisons, not a count.  The
        conservative ``u_z`` depends on the size, so that test is not
        monotone in ``j`` and no search over it is exact.  So the rule
        scans: every episode starts at ``max(c, 1)`` and steps up one size
        per round while its estimate does not admit and its size is below
        ``L``.  A round reads one ``(E,)`` row of sizes, and a stopped
        episode's re-test changes nothing; the scan takes one round more
        than the largest step of an episode, at most ``L``.  The last round
        read every episode's ``R`` at the size returned, and that ``R`` is
        returned with it.
        """
        s, u_xi, u_g, u_zeta = self.s, self.u_xi, self.u_gain[:, n - 1], self.u_zeta[:, n - 1]
        j = np.maximum(c, 1)
        while True:
            below = j - 1
            residual, u_z = self.totals(clamp, j), u_zeta.take(below)
            if policy is PrefetchPolicy.AGGRESSIVE or n == s.N_P:
                eta_hat = residual * u_xi / (u_g + u_z)
            else:
                eta_hat = residual * u_z / ((u_g + u_z) * self.cum_w.take(j))
            admits = (self.delta.take(below) > eta_hat) & (self.delta.take(j) <= eta_hat)
            grow = ~admits & (j < s.L)
            if not grow.any():
                return j, residual
            j = j + grow


def _kernel(s: Scenario, xi: XiTable, prefix_tables: Optional[Sequence[ZetaTable]],
            gains: np.ndarray) -> _Kernel:
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
    cum_w = np.concatenate([[0.0], np.cumsum(w)])
    u_zeta = np.zeros((s.L, s.N_P))
    u_zeta[:, -1] = xi.inv_root[d] * cum_w[1:]
    if prefix_tables is not None and s.N_P > 1:
        u_zeta[:, :-1] = [table.inv_root[s.N_P - 2::-1] for table in prefix_tables]
    delta = np.append(priorities(s)[order], -np.inf)
    tail = np.append(np.cumsum((prob * gam ** s.m)[::-1])[::-1], 0.0)
    return _Kernel(s=s, tail=tail, delta=delta, cum_w=cum_w,
                   span=np.concatenate([np.zeros((s.L + 1, 1)), span], axis=1).ravel(),
                   u_zeta=u_zeta, u_xi=xi.inv_root[d], demand_weight=xi.xi[d],
                   gains=gains, u_gain=gains[:, :s.N_P] ** root)


def run_prefetch_batch(s: Scenario, channel: Channel, policy: PrefetchPolicy,
                       gains: np.ndarray, realized: np.ndarray, *,
                       xi: Optional[XiTable] = None,
                       prefix_tables: Optional[Sequence[ZetaTable]] = None) -> BatchResult:
    """Simulate whole stages: prefetch phase, realization, demand phase.

    ``gains`` has shape ``(episodes, N)`` and ``realized`` holds the task
    index per episode; sharing them across policies yields paired samples.
    ``policy`` may also be given by its value (``"aggressive"``, ...).
    The noncausal oracle scores every priority prefix against the
    revealed prefetch gains by its realized prefetch energy plus the
    expected demand energy of its residuals, all ``L`` of them in closed
    form on ``(L, episodes)`` blocks (of at most ``2**13 // L`` episodes,
    which changes no result), and runs, per episode, the one of least
    score (ties go to the smaller prefix) through the slot loop.  The slot
    loop runs once on the whole batch; the causal policies scan up the
    prefix sizes from the count of tasks held at the water level.  The
    demand phase always runs the xi-policy on the realized task's
    residual, the one residual per episode the batch computes.  The result
    stores the energies and every slot's threshold and working-set size.
    Energies are per unit ``lam``.

    ``xi`` (built when omitted) must be the demand table of ``channel`` and
    ``s.m`` with a horizon of at least ``N - N_P``, and ``prefix_tables``
    (built when omitted and needed) the ``L`` priority prefixes of this
    very ``s`` under this ``xi``, every gain must be finite and positive,
    and every task index a whole number (bools and strings are not);
    otherwise ``ValueError``.  A threshold or an energy that comes out not
    finite, and residual bits that come out negative or not finite, are a
    numerical failure (``FloatingPointError``), raised where computed.
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
    realized = np.asarray(realized)
    if gains.ndim != 2 or gains.shape[1] != s.N:
        raise ValueError(f"gains must have shape (episodes, {s.N})")
    if realized.shape != (gains.shape[0],):
        raise ValueError("realized must hold one task index per episode")
    if not np.all((gains > 0.0) & (gains < np.inf)):
        raise ValueError("all gains must be finite and strictly positive")
    if realized.dtype.kind not in "iuf" or not np.all(np.floor(realized) == realized):
        raise ValueError("realized task indices must be whole numbers")
    if np.any((realized < 0) | (realized >= s.L)):
        raise IndexError("realized task index out of range")
    realized = realized.astype(int)
    if policy is PrefetchPolicy.NO_PREFETCH:
        prefix_tables = None
    elif prefix_tables is None:
        prefix_tables = build_prefix_tables(s, channel, xi)
    kernel = _kernel(s, xi, prefix_tables, gains)
    prefetch, thresholds, sizes = kernel.phase(policy)
    if not (np.all(np.isfinite(thresholds)) and np.all(np.isfinite(prefetch))):
        raise FloatingPointError("a prefetch threshold or energy is not finite")
    _, demand = simulate_demand_batch(_residuals(s, thresholds[-1], sizes[-1], realized),
                                      gains[:, s.N_P:], xi)
    # Summed slot by slot, in the order of ``np.cumsum(demand, axis=1)``.
    demand_energy = demand[:, 0].copy()
    for energy in demand.T[1:]:
        demand_energy += energy
    if not np.all(np.isfinite(demand_energy)):
        raise FloatingPointError("a demand energy is not finite")
    return BatchResult(scenario=s, policy=policy, prefetch_energy=prefetch,
                       demand_energy=demand_energy, realized=realized,
                       thresholds=thresholds.T, slot_set_size=sizes.T)
