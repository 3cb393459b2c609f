"""A fixed reference computation that gauges the host's current speed.

On a shared host the same single-threaded work can take twice as long from
one minute, or one second, to the next (other tenants on the same physical
core and memory).  ``run.py`` times this reference computation on the
benchmark's CPU right before and after every repetition and reports the
workload's wall time in units of it.  The reference uses only Python, numpy
and scipy, never livefetch, so a change to the library moves the workload
and not the unit.  Its parts follow what the workloads spend their time on:
interpreter loops, small matrix products, adaptive quadrature of a Python
integrand (as ``expect_over_gain``), prefix sums and selections over an
(episodes, tasks) array (as the episode kernel) and a min-plus reduction
over an array larger than the cache (as the backward induction).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy import integrate

_RNG = np.random.default_rng(12345)
_SMALL = _RNG.random((64, 64))
_RHO = _RNG.random((2000, 8))
_GAINS = _RNG.random((2000, 10)) + 0.1
_ROWS = np.arange(2000)
_LARGE = _RNG.random((41, 41, 400))
_LARGE_ROW = _RNG.random(400)
# Preallocated result of the min-plus reduction: fresh memory of this size
# would be page-faulted in every call, and the cost of a page fault on a
# shared host varies far more than the speed of the arithmetic.
_LARGE_SUM = np.empty_like(_LARGE)
_LARGE_MIN = np.empty((41, 41))


def _gamma_pdf(x: float, k: float = 2.0) -> float:
    if x <= 0.0:
        return 0.0
    return math.exp(k * math.log(k) + (k - 1) * math.log(x) - k * x - math.lgamma(k))


def _interpreter() -> None:
    acc = 0.0
    for i in range(15_000):
        acc += (i % 7) * 0.5


def _small_products() -> None:
    for _ in range(30):
        _SMALL @ _SMALL


def _quadrature() -> None:
    for c in (0.5, 1.5, 2.5):
        integrate.quad(lambda x, c=c: (1.0 + c * x) ** -2.0 * _gamma_pdf(x),
                       0.0, np.inf, epsabs=1e-10, epsrel=1e-10, limit=200)


def _episode_kernel() -> None:
    rho = _RHO.copy()
    for n in range(10):
        prefix = np.concatenate([np.zeros((2000, 1)), np.cumsum(rho, axis=1)], axis=1)
        k_sel = np.argmin(prefix[:, 1:] / _GAINS[:, n:n + 1], axis=1)
        level = prefix[_ROWS, k_sel]
        bits = np.where(rho > 0.3, np.maximum(rho - level[:, None] * 0.01, 0.0), 0.0)
        rho = rho - bits * 0.1
        np.count_nonzero(bits > 1e-9, axis=1)


def _min_plus() -> None:
    np.multiply(_LARGE, 0.5, out=_LARGE_SUM)
    np.add(_LARGE_SUM, _LARGE_ROW[None, None, :], out=_LARGE_SUM)
    np.min(_LARGE_SUM, axis=2, out=_LARGE_MIN)


PARTS = (_interpreter, _small_products, _quadrature, _episode_kernel, _min_plus)


def unit_time(seconds: float) -> float:
    """Median time of one reference unit (every part once, about 10 ms on a
    2.1 GHz core) over a window of about ``seconds``.  The median ignores
    the odd unit that an interrupt or a burst of contention stretches."""
    times = []
    end = time.perf_counter() + seconds
    while len(times) < 5 or time.perf_counter() < end:
        start = time.perf_counter()
        for part in PARTS:
            part()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
