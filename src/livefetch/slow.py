"""Optimal prefetching under slow fading.

With a constant gain the stage-energy minimization decouples: the optimal
prefetched amounts have a closed form driven by each task's *priority*
``gamma * p**(1/(m-1))``, and the prefetch target set is found by growing a
priority-ordered prefix until the implied amounts are consistent with it.
All quantities here are deterministic; Monte-Carlo enters only through the
random scenarios fed in by the harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import Scenario

__all__ = [
    "PrefetchPlan",
    "priority",
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
    """Solution of the slow-fading prefetch problem.

    ``alpha[l]`` is the number of bits of task ``l`` pushed during the
    prefetch phase, ``task_set`` exactly the tasks with positive ``alpha``
    and ``alpha_sigma`` their total.
    """

    alpha: np.ndarray
    task_set: frozenset
    alpha_sigma: float

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        positive = {int(i) for i in np.flatnonzero(alpha > 0.0)}
        if positive != set(self.task_set):
            raise ValueError("task_set must contain exactly the tasks with positive alpha")
        total = float(alpha.sum())
        if abs(total - self.alpha_sigma) > 1e-9 * max(abs(total), abs(self.alpha_sigma)):
            raise ValueError("alpha_sigma is inconsistent with alpha")


def priorities(s: Scenario) -> np.ndarray:
    """Prefetch priority ``gamma * p**(1/(m-1))`` of every task."""
    return s.gamma * s.p ** (1.0 / (s.m - 1))


def priority(s: Scenario, task: int) -> float:
    """Prefetch priority of a single task (0-based index)."""
    if not 0 <= task < s.L:
        raise IndexError(f"task index {task} out of range for L={s.L}")
    return float(s.gamma[task] * s.p[task] ** (1.0 / (s.m - 1)))


def priority_order(s: Scenario) -> list:
    """Task indices sorted by descending priority; ties broken by index."""
    delta = priorities(s)
    return sorted(range(s.L), key=lambda i: (-delta[i], i))


def total_prefetched_bits(s: Scenario, task_set: Iterable[int]) -> float:
    """Total prefetched bits implied by a candidate target set.

    For a set ``S`` of tasks assumed to receive positive prefetch, the
    stationarity conditions collapse to

        alpha_sigma = sum_S gamma / (1 + ((N-N_P)/N_P) * sum_S p**(-1/(m-1))).

    Requires ``N > N_P``; with ``N == N_P`` everything is prefetched and the
    caller should short-circuit to ``alpha = gamma``.
    """
    members = sorted({int(i) for i in task_set})
    if not members:
        raise ValueError("task_set must be nonempty")
    if members[0] < 0 or members[-1] >= s.L:
        raise IndexError(f"task indices {members} out of range for L={s.L}")
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
        alpha = s.gamma.copy()
        return PrefetchPlan(alpha=alpha, task_set=frozenset(range(s.L)),
                            alpha_sigma=float(alpha.sum()))
    order = priority_order(s)
    delta = priorities(s)
    w = s.p ** (-1.0 / (s.m - 1))
    ratio = (s.N - s.N_P) / s.N_P
    for rank in range(1, s.L + 1):
        alpha_sigma = total_prefetched_bits(s, order[:rank])
        member = delta > ratio * alpha_sigma
        if int(np.count_nonzero(member)) == rank:
            break
    alpha = np.where(member, np.maximum(s.gamma - w * ratio * alpha_sigma, 0.0), 0.0)
    task_set = frozenset(int(i) for i in np.flatnonzero(alpha > 0.0))
    return PrefetchPlan(alpha=alpha, task_set=task_set, alpha_sigma=float(alpha.sum()))


def slot_allocation_slow(plan: PrefetchPlan, s: Scenario, realized: int) -> np.ndarray:
    """Per-slot bit loads once task ``realized`` turns out to run next.

    Under a constant gain, convexity makes equal splitting optimal in both
    phases: ``alpha_sigma / N_P`` bits in each prefetch slot, then
    ``beta / (N - N_P)`` in each demand slot.  Returns an array of length
    ``N``; the demand part is empty when ``N == N_P``.
    """
    if not 0 <= realized < s.L:
        raise IndexError(f"realized task {realized} out of range for L={s.L}")
    loads = np.empty(s.N)
    loads[:s.N_P] = plan.alpha_sigma / s.N_P
    if s.N > s.N_P:
        beta = float(s.gamma[realized] - plan.alpha[realized])
        loads[s.N_P:] = beta / (s.N - s.N_P)
    return loads


def expected_fetch_energy_slow(s: Scenario, g: float, plan: PrefetchPlan) -> float:
    """Expected stage energy of a plan under constant gain ``g``.

    Sum of the prefetch-phase energy and the probability-weighted demand
    energy, each phase equally split over its slots:

        (lam/g) * [alpha_sigma**m / N_P**(m-1)
                   + sum_l p[l] * (gamma[l]-alpha[l])**m / (N-N_P)**(m-1)].
    """
    if not (np.isfinite(g) and g > 0.0):
        raise ValueError(f"channel gain must be strictly positive, got {g!r}")
    prefetch = plan.alpha_sigma ** s.m / s.N_P ** (s.m - 1)
    beta = s.gamma - plan.alpha
    if s.N > s.N_P:
        demand = float(np.sum(s.p * beta ** s.m)) / (s.N - s.N_P) ** (s.m - 1)
    else:
        if np.any(beta > 1e-12 * s.gamma):
            raise ValueError("N == N_P leaves no demand phase, but the plan leaves bits unfetched")
        demand = 0.0
    return s.lam / g * (prefetch + demand)


def no_prefetch_energy_slow(s: Scenario, g: float) -> float:
    """Expected stage energy when all fetching waits for the demand phase."""
    if s.N == s.N_P:
        raise ValueError("no-prefetch strategy is infeasible when N == N_P")
    if not (np.isfinite(g) and g > 0.0):
        raise ValueError(f"channel gain must be strictly positive, got {g!r}")
    return s.lam / g * float(np.sum(s.p * s.gamma ** s.m)) / (s.N - s.N_P) ** (s.m - 1)


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


def prefetch_gain_slow(s: Scenario, g: float) -> float:
    """Ratio of no-prefetch to optimal expected energy (constant gain).

    The gain is scale-free: ``g`` and ``lam`` cancel between numerator and
    denominator.
    """
    plan = optimal_prefetch_slow(s)
    return no_prefetch_energy_slow(s, g) / expected_fetch_energy_slow(s, g, plan)
