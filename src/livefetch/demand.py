"""Causal demand-phase fetching under fast fading.

Once the next task is revealed, its residual ``beta`` bits must be fetched
within the remaining slots while the gain varies i.i.d. from slot to slot.
Dynamic programming gives an optimal policy that is linear in the residual:
with ``j`` slots to go and gain ``g``, send

    beta * g**(1/(m-1)) / (g**(1/(m-1)) + (1/xi[j-1])**(1/(m-1)))

where the coefficients ``xi[j]`` obey a backward recursion in the number of
remaining slots and also give the optimal expected energy in closed form,
``xi[j] * beta**m`` per unit ``lam``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (
    Channel,
    coefficient_chain,
    mean_gain,
    mean_inverse_gain,
)

__all__ = [
    "XiTable",
    "build_xi_table",
    "expected_demand_energy",
    "demand_energy_bounds",
    "simulate_demand_batch",
]


@dataclass(frozen=True)
class XiTable:
    """Backward coefficients of the optimal causal demand scheduler.

    ``xi[j]`` is the energy coefficient with ``j`` slots remaining
    (``xi[0]`` is an infinite sentinel: no slots left).  ``inv_root[j]``
    caches ``(1/xi[j])**(1/(m-1))`` with the sentinel mapped to exactly 0,
    which is the only way ``xi[0]`` enters the recursion.
    """

    channel: Channel
    m: int
    xi: tuple
    inv_root: tuple

    @property
    def horizon(self) -> int:
        return len(self.xi) - 1


@lru_cache(maxsize=None)
def _xi_cached(channel: Channel, m: int, horizon: int) -> XiTable:
    xi, inv_root = [float("inf")], [0.0]
    if horizon >= 1:
        xi.append(mean_inverse_gain(channel))
        inv_root.append((1.0 / xi[1]) ** (1.0 / (m - 1)))
    entries, roots = coefficient_chain(channel, m, inv_root[-1:], max(horizon - 1, 0))
    return XiTable(channel=channel, m=m, xi=tuple(xi + entries[0].tolist()),
                   inv_root=tuple(inv_root + roots[0].tolist()))


def build_xi_table(channel: Channel, m: int, horizon: int) -> XiTable:
    """Tabulate the demand coefficients for horizons ``0..horizon``.

    The recursion starts from the exact ``xi[1] = E[1/g]`` (a single slot
    must flush everything) and proceeds as

        xi[j] = E[ (g**(1/(m-1)) + (1/xi[j-1])**(1/(m-1)))**-(m-1) ],

    one :func:`~livefetch.model.coefficient_chain` from ``xi[1]``'s root.

    For a constant gain it collapses to ``xi[j] = 1 / (g * j**(m-1))``,
    i.e. equal splitting over the remaining slots.
    """
    if not isinstance(m, (int, np.integer)) or not 2 <= m <= 5:
        raise ValueError(f"monomial order m must be an integer in [2, 5], got {m!r}")
    if not isinstance(horizon, (int, np.integer)) or horizon < 0:
        raise ValueError(f"horizon must be a nonnegative integer, got {horizon!r}")
    return _xi_cached(channel, int(m), int(horizon))


def expected_demand_energy(beta: float, table: XiTable, duration: int) -> float:
    """Optimal expected demand energy per unit ``lam``: ``xi[duration] * beta**m``."""
    if beta < 0.0 or not np.isfinite(beta):
        raise ValueError(f"beta must be nonnegative, got {beta!r}")
    if duration == 0:
        if beta > 0.0:
            raise ValueError("positive residual with zero demand slots is infeasible")
        return 0.0
    if not 1 <= duration <= table.horizon:
        raise ValueError(f"duration={duration} outside the table horizon {table.horizon}")
    return table.xi[duration] * beta ** table.m


def demand_energy_bounds(beta: float, channel: Channel, m: int, duration: int) -> tuple:
    """Closed-form sandwich for the optimal expected demand energy per unit ``lam``.

    Jensen arguments in the two directions give

        beta**m / (E[g] * duration**(m-1))
            <= E*  <= E[1/g] * beta**m / duration**(m-1),

    with the upper bound tight at ``duration == 1``.
    """
    if beta < 0.0 or not np.isfinite(beta):
        raise ValueError(f"beta must be nonnegative, got {beta!r}")
    if not isinstance(duration, (int, np.integer)) or duration < 1:
        raise ValueError(f"duration must be a positive integer, got {duration!r}")
    scale = beta ** m / duration ** (m - 1)
    return (scale / mean_gain(channel), scale * mean_inverse_gain(channel))


def simulate_demand_batch(beta: np.ndarray, gains: np.ndarray, table: XiTable) -> tuple:
    """Run the xi-policy on many episodes at once: ``(bits, energy)``.

    ``beta`` holds one residual per episode and ``gains`` the demand-phase
    gains in slot order, shape ``(episodes, duration)``, which both outputs
    share; energies are ``bits**m / g`` per unit ``lam``.  The final slot
    flushes the whole residual, so each episode's bits sum to its ``beta``.
    Raises ``ValueError`` unless the shapes agree, every gain is positive,
    every ``beta`` is finite and nonnegative, and ``1 <= duration <=
    table.horizon``.
    """
    beta = np.asarray(beta, dtype=float)
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 2 or beta.shape != gains.shape[:1]:
        raise ValueError("gains must have shape (episodes, duration) and beta (episodes,)")
    duration = gains.shape[1]
    if not 1 <= duration <= table.horizon:
        raise ValueError(f"duration={duration} outside the table horizon {table.horizon}")
    if not np.all(gains > 0.0):
        raise ValueError("all gains must be strictly positive")
    if not np.all((beta >= 0.0) & (beta < np.inf)):
        raise ValueError("residual bits must be finite and nonnegative")
    root = 1.0 / (table.m - 1)
    bits, energy = np.empty_like(gains), np.empty_like(gains)
    residual = beta.copy()
    for slot in range(duration):
        remaining = duration - slot
        g = gains[:, slot]
        if remaining == 1:
            sent = residual.copy()
        else:
            u_g = g ** root
            sent = residual * u_g / (u_g + table.inv_root[remaining - 1])
        bits[:, slot] = sent
        energy[:, slot] = sent ** table.m / g
        residual -= sent
    return bits, energy
