"""Optimal prefetching under slow fading.

With a constant gain the stage-energy minimization decouples: the optimal
prefetched amounts have a closed form driven by each task's *priority*
``gamma * p**(1/(m-1))``, and the prefetch target set is found by growing a
priority-ordered prefix until the implied amounts are consistent with it.
All quantities here are deterministic; Monte-Carlo enters only through the
random scenarios fed in by the harness.  A stage costs ``lam / g`` times its
energy at unit gain and the plan depends on neither, so every energy here
is per unit ``lam`` at unit gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import Scenario

__all__ = [
    "PrefetchPlan",
    "priorities",
    "priority_order",
    "total_prefetched_bits",
    "optimal_prefetch_slow",
    "slot_allocation_slow",
    "expected_fetch_energy_slow",
    "no_prefetch_energy_slow",
    "gain_lower_bound",
    "prefetch_gain_slow",
]


@dataclass(frozen=True, eq=False)
class PrefetchPlan:
    """Solution of the slow-fading prefetch problem for its ``scenario``.

    ``alpha[l]`` is the number of bits of task ``l`` pushed during the
    prefetch phase.
    """

    scenario: Scenario
    alpha: np.ndarray

    @property
    def task_set(self) -> frozenset:
        """Exactly the tasks with positive ``alpha``."""
        return frozenset(int(i) for i in np.flatnonzero(self.alpha > 0.0))

    @property
    def alpha_sigma(self) -> float:
        """Total prefetched bits."""
        return float(self.alpha.sum())


def priorities(s: Scenario) -> np.ndarray:
    """Prefetch priority ``gamma * p**(1/(m-1))`` of every task."""
    return s.gamma * s.p ** (1.0 / (s.m - 1))


def priority_order(s: Scenario) -> list:
    """Task indices sorted by descending priority; ties broken by index."""
    delta = priorities(s)
    return sorted(range(s.L), key=lambda i: (-delta[i], i))


def _task_members(s: Scenario, task_set: Iterable[int]) -> list:
    """The distinct task indices of ``task_set`` in ascending order.

    Raises ``ValueError`` on an empty set and ``IndexError`` on an index
    outside ``0 .. L-1``.
    """
    members = sorted({int(i) for i in task_set})
    if not members:
        raise ValueError("task_set must be nonempty")
    if members[0] < 0 or members[-1] >= s.L:
        raise IndexError(f"task indices {members} out of range for L={s.L}")
    return members


def total_prefetched_bits(s: Scenario, task_set: Iterable[int]) -> float:
    """Total prefetched bits implied by a candidate target set.

    For a set ``S`` of tasks assumed to receive positive prefetch, the
    stationarity conditions collapse to

        alpha_sigma = sum_S gamma / (1 + ((N-N_P)/N_P) * sum_S p**(-1/(m-1))).

    Requires ``N > N_P``; with ``N == N_P`` everything is prefetched and the
    caller should short-circuit to ``alpha = gamma``.
    """
    members = _task_members(s, task_set)
    if s.N == s.N_P:
        raise ValueError("N == N_P leaves no demand phase; prefetch everything instead")
    idx = np.array(members)
    ratio = (s.N - s.N_P) / s.N_P
    inv_prob = float(np.sum(s.p[idx] ** (-1.0 / (s.m - 1))))
    return float(np.sum(s.gamma[idx])) / (1.0 + ratio * inv_prob)


def optimal_prefetch_slow(s: Scenario) -> PrefetchPlan:
    """Closed-form optimal prefetch amounts for a constant-gain stage.

    Grows the priority-ordered candidate prefix one task at a time; for each
    prefix the implied total uniquely determines every task's thresholded
    amount ``[gamma - p**(-1/(m-1)) * ((N-N_P)/N_P) * alpha_sigma]+``, and the
    prefix is accepted once exactly its members come out positive.  A task
    comes out positive iff its priority exceeds ``((N-N_P)/N_P) *
    alpha_sigma``, a test that scales with the data.  The optimal amounts do
    not depend on the gain or on ``lam``.
    """
    if s.N == s.N_P:
        return PrefetchPlan(scenario=s, alpha=s.gamma.copy())
    order = priority_order(s)
    delta = priorities(s)
    w = s.p ** (-1.0 / (s.m - 1))
    ratio = (s.N - s.N_P) / s.N_P
    for rank in range(1, s.L + 1):
        alpha_sigma = total_prefetched_bits(s, order[:rank])
        member = delta > ratio * alpha_sigma
        if int(np.count_nonzero(member)) == rank:
            break
    return PrefetchPlan(scenario=s, alpha=np.where(
        member, np.maximum(s.gamma - w * ratio * alpha_sigma, 0.0), 0.0))


def slot_allocation_slow(plan: PrefetchPlan, realized: int) -> np.ndarray:
    """Per-slot bit loads of the plan's scenario once task ``realized`` runs next.

    Under a constant gain, convexity makes equal splitting optimal in both
    phases: ``alpha_sigma / N_P`` bits in each prefetch slot, then
    ``beta / (N - N_P)`` in each demand slot.  Returns an array of length
    ``N``; the demand part is empty when ``N == N_P``.
    """
    s = plan.scenario
    if not 0 <= realized < s.L:
        raise IndexError(f"realized task {realized} out of range for L={s.L}")
    loads = np.empty(s.N)
    loads[:s.N_P] = plan.alpha_sigma / s.N_P
    if s.N > s.N_P:
        beta = float(s.gamma[realized] - plan.alpha[realized])
        loads[s.N_P:] = beta / (s.N - s.N_P)
    return loads


def expected_fetch_energy_slow(plan: PrefetchPlan) -> float:
    """Expected stage energy of a plan, per unit ``lam`` at unit gain.

    Sum of the prefetch-phase energy and the probability-weighted demand
    energy of the plan's scenario, each phase equally split over its slots:

        alpha_sigma**m / N_P**(m-1)
            + sum_l p[l] * (gamma[l]-alpha[l])**m / (N-N_P)**(m-1).
    """
    s = plan.scenario
    prefetch = plan.alpha_sigma ** s.m / s.N_P ** (s.m - 1)
    beta = s.gamma - plan.alpha
    if s.N > s.N_P:
        demand = float(np.sum(s.p * beta ** s.m)) / (s.N - s.N_P) ** (s.m - 1)
    else:
        if np.any(beta > 1e-12 * s.gamma):
            raise ValueError("N == N_P leaves no demand phase, but the plan leaves bits unfetched")
        demand = 0.0
    return prefetch + demand


def no_prefetch_energy_slow(s: Scenario) -> float:
    """Expected stage energy per unit ``lam`` at unit gain without prefetching."""
    if s.N == s.N_P:
        raise ValueError("no-prefetch strategy is infeasible when N == N_P")
    return float(np.sum(s.p * s.gamma ** s.m)) / (s.N - s.N_P) ** (s.m - 1)


def gain_lower_bound(s: Scenario) -> float:
    """Guaranteed energy-reduction factor of optimal prefetching.

    The no-prefetch to optimal energy ratio is at least

        [(N - N_P * (1 - L**(-m/(m-1)))) / (N - N_P)]**(m-1),

    with equality exactly for uniform tasks (equal ``p`` and equal
    ``gamma``).  Undefined for ``N == N_P`` (the ratio is unbounded).
    """
    if s.N == s.N_P:
        raise ValueError("gain is unbounded when N == N_P")
    shrink = 1.0 - float(s.L) ** (-s.m / (s.m - 1.0))
    return ((s.N - s.N_P * shrink) / (s.N - s.N_P)) ** (s.m - 1)


def prefetch_gain_slow(s: Scenario) -> float:
    """Ratio of no-prefetch to optimal expected energy (constant gain).

    Both energies scale with ``lam / g``, so the gain depends on neither.
    """
    return no_prefetch_energy_slow(s) / expected_fetch_energy_slow(optimal_prefetch_slow(s))
