"""Monte-Carlo experiment harness: parameter sweeps over random scenarios.

A sweep varies one system parameter over a population of random
scenarios, each drawn from per-scenario seeded substreams and evaluated at
every sweep point (so that points share scenario shapes and episode noise —
paired comparisons), and reports per-policy mean energies and prefetching
gains.  The gain of a policy is the ratio of the closed-form no-prefetch
energy to the policy's mean energy, averaged over scenarios, and is also
reported in decibels.  Scenarios are drawn and simulated at unit total
data and reused across the points of a ``gamma`` sweep; each scenario's
energy is scaled by ``gamma_total ** m``.  Energies are scored per unit
``lam`` (at unit gain for slow fading) and scaled once per row.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional, Sequence

import numpy as np
# numpy loads ``numpy.random`` lazily; importing it here keeps that cost
# in the import rather than in the first sweep.
from numpy.random import SeedSequence, default_rng

from .model import FastGamma, Scenario, _integer_in, _real, sample_gain, to_db
from .slow import (
    expected_fetch_energy_slow,
    no_prefetch_energy_slow,
    optimal_prefetch_slow,
)
from .demand import build_xi_table
from .prefetch import (
    PrefetchPolicy,
    build_prefix_tables,
    no_prefetch_energy_fast,
    run_prefetch_batch,
)

__all__ = [
    "ConfigError",
    "SweepConfig",
    "SweepRow",
    "CSV_HEADER",
    "generate_scenario",
    "run_sweep",
    "gain_vs_shape",
    "emit_csv",
    "load_rows",
]

SWEEP_PARAMS = ("gamma", "L", "N", "Np", "k")
FADINGS = ("slow", "fast")

SLOW_POLICIES = ("slow-opt", "no-prefetch")
FAST_POLICIES = tuple(policy.value for policy in PrefetchPolicy)

# Seed-stream tags: scenario shapes, episode gains, task realizations.
_TAG_SCENARIO = 11
_TAG_GAINS = 22
_TAG_TASKS = 33


class ConfigError(ValueError):
    """Invalid sweep configuration or config file."""


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of one sweep.

    ``param`` selects the swept quantity (total data ``gamma``, task count
    ``L``, deadline ``N``, prefetch window ``Np`` or the fast-fading shape
    ``k``); all other fields hold the fixed baseline.
    """

    param: str
    values: tuple
    policies: tuple
    fading: str = "slow"
    m: int = 2
    k: int = 2
    slow_g: float = 1.0
    gamma_total: float = 20.0
    L: int = 4
    N: int = 5
    N_P: int = 4
    lam: float = 1.0
    trials: int = 10_000
    scenarios: int = 100
    seed: int = 0
    uniform: bool = False

    def __post_init__(self):
        if self.param not in SWEEP_PARAMS:
            raise ConfigError(f"param must be one of {SWEEP_PARAMS}, got {self.param!r}")
        if self.fading not in FADINGS:
            raise ConfigError(f"fading must be one of {FADINGS}, got {self.fading!r}")
        scales = {key: getattr(self, key) for key in ("slow_g", "gamma_total", "lam")}
        bad = [key for key, v in scales.items() if not (_real(v) and math.isfinite(v) and v > 0)]
        if bad:
            raise ConfigError(f"{', '.join(bad)} must be finite and strictly positive "
                              "(a real number, not a bool or a string)")
        for key in ("values", "policies"):
            items = getattr(self, key)
            if isinstance(items, str):
                raise ConfigError(f"{key} must be a sequence, not the string {items!r}")
            try:
                object.__setattr__(self, key, tuple(items))
            except TypeError:
                raise ConfigError(f"{key} must be a sequence, got {items!r}") from None
        values = self.values
        if not values:
            raise ConfigError("values must be nonempty")
        if not all(_real(v) for v in values):
            raise ConfigError(f"{self.param} values must be real numbers, got {values!r}")
        values = tuple(float(v) for v in values)
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{self.param} values must be finite, got {values!r}")
        if self.param in ("L", "N", "Np", "k"):
            if any(not v.is_integer() or v < 1 for v in values):
                raise ConfigError(f"{self.param} values must be positive integers")
        if self.param == "k" and (self.fading != "fast" or any(v < 2 for v in values)):
            raise ConfigError("a k sweep requires fast fading and k >= 2")
        if self.param == "gamma" and any(v <= 0 for v in values):
            raise ConfigError("gamma values must be strictly positive")
        object.__setattr__(self, "values", values)
        allowed = SLOW_POLICIES if self.fading == "slow" else FAST_POLICIES
        unknown = [p for p in self.policies if p not in allowed]
        if not self.policies or unknown:
            raise ConfigError(
                f"policies for {self.fading} fading must be a nonempty subset of "
                f"{allowed}, got {self.policies!r}")
        for key in ("values", "policies"):
            items = getattr(self, key)
            if len(set(items)) < len(items):
                raise ConfigError(f"{key} must not repeat an entry, got {items!r}")
        if not _integer_in(self.m, 2, 5):
            raise ConfigError(f"m must be an integer in [2, 5], got {self.m!r}")
        if not _integer_in(self.k, 2):
            raise ConfigError(f"k must be an integer >= 2, got {self.k!r}")
        if not isinstance(self.uniform, bool):
            raise ConfigError(f"uniform must be True or False, got {self.uniform!r}")
        counts = {key: getattr(self, key)
                  for key in ("L", "N", "N_P", "trials", "scenarios", "seed")}
        if not all(_integer_in(value, -math.inf) for value in counts.values()) or self.seed < 0:
            raise ConfigError(f"{', '.join(counts)} must be integers and seed >= 0, got {counts}")
        for key, value in dict(counts, m=self.m, k=self.k).items():
            object.__setattr__(self, key, int(value))
        if self.trials < 1 or self.scenarios < 1:
            raise ConfigError("trials and scenarios must be at least 1")
        for value in values:
            self._dims(value)  # raises ConfigError on inconsistent geometry

    @property
    def unit(self) -> float:
        """The unit of reported energies: ``lam``, over ``slow_g`` under slow fading."""
        return self.lam / self.slow_g if self.fading == "slow" else self.lam

    def _dims(self, value: float) -> dict:
        dims = {"L": self.L, "N": self.N, "N_P": self.N_P,
                "gamma_total": self.gamma_total, "k": self.k}
        key = {"gamma": "gamma_total", "Np": "N_P"}.get(self.param, self.param)
        dims[key] = value if key == "gamma_total" else int(value)
        if not 1 <= dims["N_P"] <= dims["N"]:
            raise ConfigError(f"N_P={dims['N_P']} and N={dims['N']} break 1 <= N_P <= N")
        if dims["N"] == dims["N_P"] and set(self.policies) != {"slow-opt"}:
            raise ConfigError(f"N_P = N = {dims['N']} leaves no demand phase; "
                              "only the slow-opt policy is defined without one")
        if dims["L"] < 1:
            raise ConfigError(f"L={dims['L']} leaves no task; L must be at least 1")
        return dims


@dataclass(frozen=True)
class SweepRow:
    """One aggregated line of a sweep: a (sweep point, policy) pair."""

    param: str
    param_value: float
    policy: str
    mean_energy: float
    mean_energy_db: float
    stderr: float
    gain: float
    gain_db: float
    trials: int


#: The CSV columns are SweepRow's fields, in order: each is written and
#: parsed by its type, floats as their round-trip ``repr``.
_COLUMN_TYPES = {"str": (str, str), "float": (lambda v: repr(float(v)), float), "int": (int, int)}
_COLUMNS = tuple((field.name, *_COLUMN_TYPES[field.type]) for field in fields(SweepRow))
CSV_HEADER = tuple(name for name, _, _ in _COLUMNS)


def generate_scenario(rng: np.random.Generator, L: int, gamma_total: float,
                      m: int, N: int, N_P: int, uniform: bool = False) -> Scenario:
    """Draw a random scenario: normalized uniform probabilities and sizes.

    Task probabilities are i.i.d. uniforms normalized to sum to one, data
    sizes i.i.d. uniforms divided by their sum and scaled to sum to
    ``gamma_total``; ``uniform=True`` forces the equal-task special case
    instead.  Dividing first makes a single task's size exactly
    ``gamma_total``, and the sizes at any ``gamma_total`` are those at
    ``gamma_total=1.0`` (which :func:`run_sweep` draws) times it, up to one
    rounding.  A positive ``gamma_total`` whose sizes underflow to zero
    raises ``FloatingPointError``; an ``L`` that is not an integer of at
    least 1 is a ``ValueError``, raised before anything is drawn.
    """
    if not _integer_in(L, 1):
        raise ValueError(f"task count L must be an integer of at least 1, got {L!r}")
    if uniform:
        p = np.full(L, 1.0 / L)
        gamma = np.full(L, gamma_total / L)
    else:
        p = _positive_uniforms(rng, L)
        p = p / p.sum()
        gamma = _positive_uniforms(rng, L)
        gamma = gamma / gamma.sum() * gamma_total
    if gamma_total > 0.0 and not np.all(gamma > 0.0):
        raise FloatingPointError(f"task data sizes underflow at gamma_total={gamma_total:g}")
    return Scenario(m=m, N=N, N_P=N_P, p=p, gamma=gamma)


def _positive_uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    draw = rng.random(n)
    while np.any(draw <= 1e-9):  # pragma: no cover - vanishing probability
        draw = rng.random(n)
    return draw


def _aggregate(cfg: SweepConfig, value: float, policy: str,
               energies: Sequence[float], gains: Sequence[float],
               episodes: int) -> SweepRow:
    """One row from per-scenario unit energies, scaled here by ``cfg.unit``."""
    energies = np.asarray(energies, dtype=float)
    gains = np.asarray(gains, dtype=float)
    mean_energy = cfg.unit * float(energies.mean())
    # The spread is taken about the first energy: equal energies then have
    # exactly zero spread, which a rounded mean would not give.
    spread = energies - energies[0]
    stderr = float(spread.std(ddof=1) / np.sqrt(energies.size)) if energies.size > 1 else 0.0
    gain = float(gains.mean())
    return SweepRow(param=cfg.param, param_value=float(value), policy=policy,
                    mean_energy=mean_energy, mean_energy_db=to_db(mean_energy),
                    stderr=cfg.unit * stderr, gain=gain, gain_db=to_db(gain),
                    trials=episodes)


def _scenario_rng(cfg: SweepConfig, index: int,
                  tag: int = _TAG_SCENARIO) -> np.random.Generator:
    """Substream ``tag`` of scenario ``index``: its shape, gains or tasks."""
    return default_rng(SeedSequence((cfg.seed, tag, index)))


def run_sweep(cfg: SweepConfig) -> list:
    """Execute a sweep and return one row per (sweep point, policy).

    Scenarios form the outer loop and every sweep point is evaluated on
    each scenario's substreams, which are keyed by the scenario index
    alone: all points see the same family of random shapes, and
    fast-fading episodes share gain and task-realization draws across
    points and policies (paired sampling).  A ``k`` sweep couples its
    gains too: a unit-mean Gamma(k) gain is the mean of ``k`` unit
    exponentials, so one ``(trials, N, max k)`` exponential draw per
    scenario feeds every ``k`` through nested partial sums, and the gain
    curve is smooth in ``k``.

    Every scenario is drawn and simulated at unit total data: each
    policy's energy is of degree ``m`` in the data sizes and no decision
    depends on their scale, so a scenario's energy at a point is its unit
    energy times ``gamma_total ** m``, scaled per scenario (in numpy
    float64, so that an overflow raises under ``np.errstate``) before the
    row is aggregated.  A scenario is simulated once per distinct
    ``(L, N, N_P, k)``: all points of a ``gamma`` sweep share its unit
    draws, tables and kernel runs, which are bitwise the ones each point
    would draw.  Rows agree with simulating every point at its own scale to
    about 1e-12 relative.  Slow-fading rows are fully closed-form (zero
    episodes); fast-fading rows run ``cfg.trials`` episodes per scenario.
    A row's energies are in units of ``cfg.lam`` (over ``cfg.slow_g`` for
    slow fading); its gains are ratios of unit energies.  Rows come back
    sorted by (sweep value, policy name).
    """
    return _run_sweep(cfg, {})


def _run_sweep(cfg: SweepConfig, memo: dict) -> list:
    """:func:`run_sweep`, taking and storing unit simulations in ``memo``.

    The key holds everything :func:`_simulate_unit` reads, so sweeps that
    share a ``memo`` share every scenario point they have in common.
    """
    points = [cfg._dims(value) for value in cfg.values]
    energies = [{policy: [] for policy in cfg.policies} for _ in points]
    gains = [{policy: [] for policy in cfg.policies} for _ in points]
    for index in range(cfg.scenarios):
        partial_sums = k_max = None
        if cfg.param == "k":
            k_max = max(dims["k"] for dims in points)
            partial_sums = np.cumsum(_scenario_rng(cfg, index, _TAG_GAINS).exponential(
                size=(cfg.trials, cfg.N, k_max)), axis=2)
        for dims, point_energies, point_gains in zip(points, energies, gains):
            key = (cfg.seed, cfg.fading, cfg.m, cfg.trials, cfg.policies, cfg.uniform, k_max,
                   index, dims["L"], dims["N"], dims["N_P"], dims["k"])
            if key not in memo:
                memo[key] = _simulate_unit(cfg, index, dims, partial_sums)
            scale = np.float64(dims["gamma_total"]) ** cfg.m
            for policy, (energy, gain) in memo[key].items():
                point_energies[policy].append(scale * energy)
                point_gains[policy].append(gain)
    episodes = 0 if cfg.fading == "slow" else cfg.trials
    rows = [_aggregate(cfg, value, policy, point_energies[policy], point_gains[policy],
                       episodes)
            for value, point_energies, point_gains in zip(cfg.values, energies, gains)
            for policy in cfg.policies]
    rows.sort(key=lambda row: (row.param_value, row.policy))
    return rows


def _simulate_unit(cfg: SweepConfig, index: int, dims: dict,
                   partial_sums: Optional[np.ndarray]) -> dict:
    """Each policy's (energy, gain) on scenario ``index`` at unit total data.

    Fast fading scores the mean energy of the scenario's episodes, whose
    gains come from the ``k`` sweep's ``partial_sums`` when given.
    """
    s = generate_scenario(_scenario_rng(cfg, index), L=dims["L"], gamma_total=1.0,
                          m=cfg.m, N=dims["N"], N_P=dims["N_P"], uniform=cfg.uniform)
    if cfg.fading == "slow":
        return _simulate_slow(cfg.policies, s)
    channel = FastGamma(dims["k"])
    xi = build_xi_table(channel, s.m, s.N - s.N_P)
    prefix_tables = build_prefix_tables(s, channel, xi)
    base = no_prefetch_energy_fast(s, xi)
    if partial_sums is not None:
        episode_gains = partial_sums[:, :, channel.k - 1] / channel.k
    else:
        episode_gains = sample_gain(channel, _scenario_rng(cfg, index, _TAG_GAINS),
                                    (cfg.trials, s.N))
    realized = _scenario_rng(cfg, index, _TAG_TASKS).choice(s.L, size=cfg.trials, p=s.p)
    results = {}
    for policy in cfg.policies:
        batch = run_prefetch_batch(s, channel, PrefetchPolicy(policy), episode_gains,
                                   realized, xi=xi, prefix_tables=prefix_tables)
        energy = float(batch.total_energy.mean())
        results[policy] = (energy, base / energy)
    return results


def _simulate_slow(policies: tuple, s: Scenario) -> dict:
    """Each policy's closed-form (energy, gain) on ``s``."""
    if s.N > s.N_P:
        base = no_prefetch_energy_slow(s)
    results = {}
    for policy in policies:
        if policy == "slow-opt":
            energy = expected_fetch_energy_slow(optimal_prefetch_slow(s))
        else:
            energy = base
        results[policy] = (energy, base / energy if s.N > s.N_P else 1.0)
    return results


def gain_vs_shape(cfg: SweepConfig) -> list:
    """Prefetching gain versus the fast-fading shape parameter.

    The ``fast-optimal`` rows are the noncausal rows of the ``k`` sweep
    itself, paired across ``k`` as every ``k`` sweep of :func:`run_sweep`
    is.  The ``slow-opt`` reference is the single row of a one-point
    slow-fading sweep at ``gamma_total`` over the same scenarios, repeated
    at every ``k``.
    """
    if cfg.param != "k" or cfg.fading != "fast":
        raise ConfigError("gain_vs_shape requires a fast-fading k sweep")
    (slow,) = run_sweep(replace(cfg, param="gamma", values=(cfg.gamma_total,),
                                fading="slow", policies=("slow-opt",)))
    rows = []
    for row in run_sweep(replace(cfg, policies=("noncausal",))):
        rows.append(replace(row, policy="fast-optimal"))
        rows.append(replace(slow, param=row.param, param_value=row.param_value))
    return rows


@contextmanager
def _opened(target, mode: str):
    """``target`` itself if it is a text file object, else that path opened in ``mode`` (UTF-8)."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, mode, newline="", encoding="utf-8") as handle:
            yield handle
    else:
        yield target


def emit_csv(rows: Iterable[SweepRow], dest) -> None:
    """Write rows to a path or text file object using round-trip floats."""
    with _opened(dest, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([write(getattr(row, name)) for name, write, _ in _COLUMNS])


def load_rows(src) -> list:
    """Parse a CSV produced by :func:`emit_csv` back into rows (exactly).

    A file with no header, another header, or a record that does not hold
    one number per numeric column raises ``ConfigError`` naming the line.
    """
    with _opened(src, "r") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ConfigError("line 1: the CSV is empty, expected its header")
        if tuple(header) != CSV_HEADER:
            raise ConfigError(f"line 1: unexpected CSV header: {header!r}")
        rows = []
        for record in reader:
            if not record:
                continue
            if len(record) != len(CSV_HEADER):
                raise ConfigError(f"line {reader.line_num}: expected {len(CSV_HEADER)} fields, "
                                  f"got {len(record)}")
            try:
                rows.append(SweepRow(**{name: parse(text)
                                        for (name, _, parse), text in zip(_COLUMNS, record)}))
            except ValueError as exc:
                raise ConfigError(f"line {reader.line_num}: {exc}") from None
        return rows
