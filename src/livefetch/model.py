"""Core system model: fetching scenarios, fading channels and the energy law.

A *scenario* describes one stage of a live-prefetching system: while the
current task is still computing, the device may prefetch input bits for the
``L`` candidate next tasks over ``N_P`` slots; once the next task is revealed,
the remaining bits must be fetched within the ``N - N_P`` slots left before
the deadline.  Transmitting ``b`` bits in a slot with channel power gain ``g``
costs ``lam * b**m / g`` energy units, where ``m`` is the monomial order of
the power-rate model.  No decision depends on the energy coefficient
``lam``, so the library computes every energy per unit ``lam``; the sweep
harness and the command line scale their output by it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

__all__ = [
    "Scenario",
    "SlowFading",
    "FastGamma",
    "Channel",
    "QuadratureError",
    "sample_gain",
    "mean_gain",
    "mean_inverse_gain",
    "expect_over_gain",
    "coefficient_chain",
    "to_db",
]

#: Probabilities may be off unity by at most this much.
PROB_TOL = 1e-9

#: Residual bits may fall below zero by at most this fraction of their
#: task's data size (rounding in the caller's arithmetic).
POSITIVE_BITS_EPS = 1e-12

#: Absolute tolerance demanded from the gain-expectation quadrature.
QUAD_ABS_TOL = 1e-8


#: The Gamma-model rule halves its step at most ``DE_MAX_HALVINGS`` times,
#: until a halving changes it by at most ``DE_STEP_TOL`` relative, and drops
#: the nodes that can contribute less than ``DE_PRUNE`` of any entry.
DE_STEP_TOL, DE_MAX_HALVINGS, DE_PRUNE = 1e-8, 6, 1e-20


class QuadratureError(ArithmeticError):
    """Gain-expectation quadrature failed to reach the required tolerance.

    Carries the estimated ``residual`` (the error estimate of the
    integrator, or ``nan`` if the value itself was non-finite).
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _integer_in(value, low: int, high: float = math.inf) -> bool:
    """Whether ``value`` is an integer, not a bool, in ``low..high``."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and low <= value <= high)


def _real(value) -> bool:
    """Whether ``value`` is a real number: a ``numbers.Real`` and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Scenario:
    """Parameters of one fetching stage.

    Parameters
    ----------
    m : int
        Monomial order of the energy law, integer in [2, 5].
    N : int
        Total slots between consecutive task arrivals.
    N_P : int
        Prefetching slots (1 <= N_P <= N); the last ``N - N_P`` slots form
        the demand phase.
    p : array_like
        Probability ``p[l]`` that candidate task ``l`` (0-based) runs next.
        Strictly positive, sums to one.
    gamma : array_like
        Input data size of each candidate task, strictly positive.
    """

    m: int
    N: int
    N_P: int
    p: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        if not _integer_in(self.m, 2, 5):
            raise ValueError(f"monomial order m must be an integer in [2, 5], got {self.m!r}")
        if not _integer_in(self.N, 1):
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        if not _integer_in(self.N_P, 1, self.N):
            raise ValueError(f"N_P must satisfy 1 <= N_P <= N, got N_P={self.N_P!r}, N={self.N!r}")
        p = _readonly(self.p)
        gamma = _readonly(self.gamma)
        if p.ndim != 1 or gamma.shape != p.shape or p.size == 0:
            raise ValueError("p and gamma must be 1-d arrays of equal, nonzero length")
        if not np.all(p > 0.0):
            raise ValueError("all task probabilities must be strictly positive")
        if abs(float(p.sum()) - 1.0) > PROB_TOL:
            raise ValueError(f"task probabilities must sum to 1, got {float(p.sum())!r}")
        if np.any(gamma <= 0.0) or not np.all(np.isfinite(gamma)):
            raise ValueError("all task data sizes must be strictly positive and finite")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "N_P", int(self.N_P))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "gamma", gamma)

    @property
    def L(self) -> int:
        """Number of candidate tasks."""
        return self.p.size

    @property
    def gamma_total(self) -> float:
        """Total data size across candidates."""
        return float(self.gamma.sum())


@dataclass(frozen=True)
class SlowFading:
    """Block-fading channel whose gain is constant over the whole stage."""

    g: float

    def __post_init__(self):
        if not (_real(self.g) and np.isfinite(self.g) and self.g > 0.0):
            raise ValueError(f"slow-fading gain must be a strictly positive real number, "
                             f"not a bool, got {self.g!r}")


@dataclass(frozen=True)
class FastGamma:
    """I.i.d. per-slot gain with a unit-mean Gamma distribution.

    The gain density is ``k**k * x**(k-1) * exp(-k*x) / (k-1)!`` for shape
    ``k`` (an integer >= 2 so that ``E[1/g] = k/(k-1)`` is finite).  Larger
    ``k`` concentrates the gain around its mean of one.
    """

    k: int

    def __post_init__(self):
        if not _integer_in(self.k, 2):
            raise ValueError(f"shape parameter k must be an integer >= 2, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))

    def pdf(self, x: float) -> float:
        """Density of the gain at ``x > 0``."""
        k = self.k
        if x <= 0.0:
            return 0.0
        return math.exp(k * math.log(k) + (k - 1) * math.log(x) - k * x - math.lgamma(k))


Channel = Union[SlowFading, FastGamma]


def sample_gain(channel: Channel, rng: np.random.Generator, size=None):
    """Draw channel gains: the constant ``g`` or i.i.d. Gamma(k, 1/k) variates."""
    if isinstance(channel, SlowFading):
        if size is None:
            return channel.g
        return np.full(size, channel.g)
    if isinstance(channel, FastGamma):
        return rng.gamma(shape=channel.k, scale=1.0 / channel.k, size=size)
    raise TypeError(f"unknown channel model: {channel!r}")


def mean_gain(channel: Channel) -> float:
    """``E[g]``: the constant gain, or exactly one for the Gamma model."""
    if isinstance(channel, SlowFading):
        return channel.g
    if isinstance(channel, FastGamma):
        return 1.0
    raise TypeError(f"unknown channel model: {channel!r}")


def mean_inverse_gain(channel: Channel) -> float:
    """``E[1/g]``: ``1/g`` for slow fading, ``k/(k-1)`` for the Gamma model."""
    if isinstance(channel, SlowFading):
        return 1.0 / channel.g
    if isinstance(channel, FastGamma):
        return channel.k / (channel.k - 1.0)
    raise TypeError(f"unknown channel model: {channel!r}")


def expect_over_gain(f: Callable[[float], float], channel: Channel) -> float:
    """Expectation ``E[f(g)]`` under the channel's gain distribution.

    Slow fading evaluates ``f`` at the constant gain.  For the Gamma model
    the integral is computed by scipy's adaptive quadrature on (0, inf); a
    :class:`QuadratureError` is raised if the reported absolute error
    exceeds ``QUAD_ABS_TOL`` or the value is non-finite.  No library path
    calls it: it is the independent scalar route the tables are checked
    against, and it is the only place the package imports scipy.  scipy
    is not a dependency of the package; it comes with the ``test`` extra
    (``pip install -e .[test]``), and without it this function raises
    ``ImportError``.
    """
    if isinstance(channel, SlowFading):
        return float(f(channel.g))
    if not isinstance(channel, FastGamma):
        raise TypeError(f"unknown channel model: {channel!r}")
    from scipy import integrate

    def integrand(x: float) -> float:
        return f(x) * channel.pdf(x)

    value, abserr = integrate.quad(integrand, 0.0, np.inf,
                                   epsabs=1e-10, epsrel=1e-10, limit=200)
    if not np.isfinite(value):
        raise QuadratureError(
            f"gain expectation diverged (value={value!r})", residual=float("nan"))
    if abserr > QUAD_ABS_TOL:
        raise QuadratureError(
            f"gain expectation residual {abserr:.3e} exceeds {QUAD_ABS_TOL:.1e}",
            residual=abserr)
    return float(value)


@lru_cache(maxsize=None)
def _root_gain_rule(m: int, k: int) -> tuple:
    """Nodes ``s_i`` and weights ``w_i``: ``E[f(g**(1/(m-1)))] ~ sum w_i f(s_i)``.

    In ``s = g**(1/(m-1))`` the Gamma(k) density has no kink at 0; in
    ``x = log g = (m-1) log s`` it is proportional to ``exp(k * (x - e**x))``,
    peaked at ``s = 1`` with width about ``1/((m-1) sqrt(k))`` in ``s``.  The
    double-exponential substitution ``s = exp(pi/2 sinh t)`` (Takahasi &
    Mori, Publ. RIMS 9, 1974) gives a trapezoidal rule in ``t`` whose error
    about squares each time its step halves.  The step starts at the peak's
    width in ``t`` and halves until the rule settles on probes at ``u`` = 0,
    1 and 1000; the weights are normalised to sum to one.
    """
    # An entry is at least (1 + u)**-(m-1) (Jensen; E[s] <= 1), so a node can
    # contribute at most w * exp(max(0, -x)) of it.  As e**x - 1 - x >=
    # x**2 / (2 + |x|) and log cosh t < 4 on the window below, that is less
    # than DE_PRUNE wherever |x| > x_max.
    b = 4.0 - math.log(DE_PRUNE)
    x_max = (b / 2 + 1 + math.sqrt((b / 2 + 1) ** 2 + 2 * b * (k - 1))) / (k - 1)
    t_max = math.asinh(x_max / ((m - 1) * math.pi / 2))
    h = min(0.125, 2.0 / (math.pi * (m - 1) * math.sqrt(k)))
    previous, change = None, float("nan")
    for _ in range(DE_MAX_HALVINGS + 1):
        t = np.arange(-math.floor(t_max / h), math.floor(t_max / h) + 1) * h
        x = (m - 1) * math.pi / 2 * np.sinh(t)
        log_w = k * (x - np.expm1(x)) + np.log(np.cosh(t))
        log_w -= math.log(np.exp(log_w).sum())
        keep = log_w + np.maximum(-x, 0.0) >= math.log(DE_PRUNE)
        rule = (_readonly(np.exp(x[keep] / (m - 1))), _readonly(np.exp(log_w[keep])))
        values = _rule_moment(rule, m, np.array([0.0, 1.0, 1e3]))
        if previous is not None:
            change = float(np.max(np.abs(values / previous - 1.0)))
            if change <= DE_STEP_TOL:
                return rule
        previous, h = values, h / 2
    raise QuadratureError(f"Gamma({k}) rule for m={m} still changed by {change:.3e} "
                          f"at step {2 * h:.3e}", residual=change)


def _rule_moment(rule: tuple, m: int, u: np.ndarray) -> np.ndarray:
    s, w = rule
    values = (w * (s + u[..., None]) ** (-(m - 1))).sum(axis=-1)
    if not np.all(np.isfinite(values)):
        raise QuadratureError(f"gain expectation is not finite: {values!r}",
                              residual=float("nan"))
    return values


def coefficient_chain(channel: Channel, m: int, start, steps: int) -> tuple:
    """``steps`` iterations of the coefficient map from every root in ``start``.

    A step takes a root ``u >= 0`` to the entry ``c = E[(g**(1/(m-1)) +
    u)**-(m-1)]`` and on to the root ``(1/c)**(1/(m-1))``.  Returns the
    entries and the roots, each ``(len(start), steps)``.  Slow fading is
    exact; the Gamma model sums a double-exponential rule built once per
    ``(m, k)``, whose terms are all positive, so the relative error (about
    1e-15) does not depend on ``u``.  Raises :class:`QuadratureError` if
    the rule's step does not settle or an entry is not finite, and
    ``ValueError`` unless ``m >= 2`` and ``steps >= 0`` are integers and
    every start is at least 0 (NaN is not).
    """
    if not _integer_in(m, 2):
        raise ValueError(f"monomial order m must be an integer of at least 2, got {m!r}")
    if not _integer_in(steps, 0):
        raise ValueError(f"steps must be an integer of at least 0, got {steps!r}")
    u = np.array(start, dtype=float)
    if not np.all(u >= 0.0):
        raise ValueError(f"every start root must be at least 0, got {start!r}")
    if isinstance(channel, SlowFading):
        rule = (np.array([channel.g ** (1.0 / (m - 1))]), np.array([1.0]))
    elif isinstance(channel, FastGamma):
        rule = _root_gain_rule(m, channel.k)
    else:
        raise TypeError(f"unknown channel model: {channel!r}")
    entries, roots = np.empty((u.size, steps)), np.empty((u.size, steps))
    for j in range(steps):
        entries[:, j] = _rule_moment(rule, m, u)
        u = roots[:, j] = (1.0 / entries[:, j]) ** (1.0 / (m - 1))
    return entries, roots


def to_db(energy_ratio: float) -> float:
    """Express a positive energy ratio in decibels (``10*log10``).

    The ratio is always computed, so one that is not both finite and
    strictly positive (an upstream overflow or underflow) raises
    ``FloatingPointError``.
    """
    if not (np.isfinite(energy_ratio) and energy_ratio > 0.0):
        raise FloatingPointError(f"ratio must be finite and strictly positive, "
                                 f"got {energy_ratio!r}")
    return 10.0 * math.log10(energy_ratio)
