"""Monte-Carlo experiment harness: parameter sweeps over random scenarios.

A sweep varies one system parameter over a population of random
scenarios, each drawn from per-scenario seeded substreams and evaluated at
every sweep point (so that points share scenario shapes and episode noise —
paired comparisons), and reports per-policy mean energies and prefetching
gains.  The gain of a policy is the ratio of the closed-form no-prefetch
energy to the policy's mean energy, averaged over scenarios, and is also
reported in decibels.  Energies are scored per unit ``lam`` (at unit gain
for slow fading) and scaled once per row.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .model import FastGamma, Scenario, sample_gain, to_db
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

CSV_HEADER = ("param", "param_value", "policy", "mean_energy", "mean_energy_db",
              "stderr", "gain", "gain_db", "trials")

SWEEP_PARAMS = ("gamma", "L", "N", "Np", "k")

SLOW_POLICIES = ("slow-opt", "no-prefetch")
FAST_POLICIES = ("no-prefetch", "aggressive", "conservative", "noncausal")

# Seed-stream tags: scenario shapes, episode gains, task realizations.
_TAG_SCENARIO = 11
_TAG_GAINS = 22
_TAG_TASKS = 33


class ConfigError(ValueError):
    """Invalid sweep configuration or config file."""


def _check_scales(settings) -> None:
    """Raise ``ConfigError`` unless ``slow_g``, ``gamma_total`` and ``lam`` are finite and > 0."""
    bad = [key for key in ("slow_g", "gamma_total", "lam")
           if not (math.isfinite(settings[key]) and settings[key] > 0)]
    if bad:
        raise ConfigError(f"{', '.join(bad)} must be finite and strictly positive")


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
        if self.fading not in ("slow", "fast"):
            raise ConfigError(f"fading must be 'slow' or 'fast', got {self.fading!r}")
        if not self.values:
            raise ConfigError("values must be nonempty")
        values = tuple(float(v) for v in self.values)
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{self.param} values must be finite, got {values!r}")
        if self.param in ("L", "N", "Np", "k"):
            if any(v != int(v) or v < 1 for v in values):
                raise ConfigError(f"{self.param} values must be positive integers")
        if self.param == "k" and (self.fading != "fast" or any(v < 2 for v in values)):
            raise ConfigError("a k sweep requires fast fading and k >= 2")
        if self.param == "gamma" and any(v <= 0 for v in values):
            raise ConfigError("gamma values must be strictly positive")
        object.__setattr__(self, "values", values)
        policies = tuple(self.policies)
        allowed = SLOW_POLICIES if self.fading == "slow" else FAST_POLICIES
        unknown = [p for p in policies if p not in allowed]
        if not policies or unknown:
            raise ConfigError(
                f"policies for {self.fading} fading must be a nonempty subset of "
                f"{allowed}, got {policies!r}")
        object.__setattr__(self, "policies", policies)
        if not isinstance(self.m, int) or not 2 <= self.m <= 5:
            raise ConfigError(f"m must be an integer in [2, 5], got {self.m!r}")
        if not isinstance(self.k, int) or self.k < 2:
            raise ConfigError(f"k must be an integer >= 2, got {self.k!r}")
        _check_scales(vars(self))
        if self.trials < 1 or self.scenarios < 1:
            raise ConfigError("trials and scenarios must be at least 1")
        for value in values:
            self._dims(value)  # raises ConfigError on inconsistent geometry

    def _dims(self, value: float) -> dict:
        dims = {"L": self.L, "N": self.N, "N_P": self.N_P,
                "gamma_total": self.gamma_total, "k": self.k}
        key = {"gamma": "gamma_total", "Np": "N_P"}.get(self.param, self.param)
        dims[key] = value if key == "gamma_total" else int(value)
        if not 1 <= dims["N_P"] <= dims["N"]:
            raise ConfigError(
                f"sweep point {self.param}={value} breaks 1 <= N_P <= N "
                f"(N_P={dims['N_P']}, N={dims['N']})")
        if dims["N"] == dims["N_P"] and set(self.policies) != {"slow-opt"}:
            raise ConfigError(
                f"sweep point {self.param}={value} leaves no demand phase; "
                "only the slow-opt policy is defined there")
        if dims["L"] < 1:
            raise ConfigError(f"sweep point L={dims['L']} is invalid")
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


def generate_scenario(rng: np.random.Generator, L: int, gamma_total: float,
                      m: int, N: int, N_P: int, uniform: bool = False) -> Scenario:
    """Draw a random scenario: normalized uniform probabilities and sizes.

    Task probabilities are i.i.d. uniforms normalized to sum to one, data
    sizes i.i.d. uniforms scaled to sum to ``gamma_total``; ``uniform=True``
    forces the equal-task special case instead.
    """
    if uniform:
        p = np.full(L, 1.0 / L)
        gamma = np.full(L, gamma_total / L)
    else:
        p = _positive_uniforms(rng, L)
        p = p / p.sum()
        gamma = _positive_uniforms(rng, L)
        gamma = gamma * (gamma_total / gamma.sum())
    return Scenario(m=m, N=N, N_P=N_P, p=p, gamma=gamma)


def _positive_uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    draw = rng.random(n)
    while np.any(draw <= 1e-9):  # pragma: no cover - vanishing probability
        draw = rng.random(n)
    return draw


def _aggregate(cfg: SweepConfig, value: float, policy: str,
               energies: Sequence[float], gains: Sequence[float],
               episodes: int) -> SweepRow:
    """One row from per-scenario unit energies, scaled here by ``lam`` (over ``slow_g``)."""
    unit = cfg.lam / cfg.slow_g if cfg.fading == "slow" else cfg.lam
    energies = np.asarray(energies, dtype=float)
    gains = np.asarray(gains, dtype=float)
    mean_energy = unit * float(energies.mean())
    stderr = float(energies.std(ddof=1) / np.sqrt(energies.size)) if energies.size > 1 else 0.0
    gain = float(gains.mean())
    return SweepRow(param=cfg.param, param_value=float(value), policy=policy,
                    mean_energy=mean_energy, mean_energy_db=to_db(mean_energy),
                    stderr=unit * stderr, gain=gain, gain_db=to_db(gain),
                    trials=episodes)


def _scenario_rng(cfg: SweepConfig, index: int,
                  tag: int = _TAG_SCENARIO) -> np.random.Generator:
    """Substream ``tag`` of scenario ``index``: its shape, gains or tasks."""
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, tag, index)))


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
    curve is smooth in ``k``.  Slow-fading rows are fully closed-form
    (zero episodes); fast-fading rows run ``cfg.trials`` episodes per
    scenario.  A row's energies are in units of ``cfg.lam`` (over
    ``cfg.slow_g`` for slow fading); its gains are ratios of unit energies.
    Rows come back sorted by (sweep value, policy name).
    """
    points = [cfg._dims(value) for value in cfg.values]
    energies = [{policy: [] for policy in cfg.policies} for _ in points]
    gains = [{policy: [] for policy in cfg.policies} for _ in points]
    for index in range(cfg.scenarios):
        if cfg.param == "k":
            k_max = max(dims["k"] for dims in points)
            partial_sums = np.cumsum(_scenario_rng(cfg, index, _TAG_GAINS).exponential(
                size=(cfg.trials, cfg.N, k_max)), axis=2)
        for dims, point_energies, point_gains in zip(points, energies, gains):
            s = generate_scenario(_scenario_rng(cfg, index), L=dims["L"],
                                  gamma_total=dims["gamma_total"], m=cfg.m,
                                  N=dims["N"], N_P=dims["N_P"], uniform=cfg.uniform)
            if cfg.fading == "slow":
                _accumulate_slow(cfg.policies, s, point_energies, point_gains)
                continue
            channel = FastGamma(dims["k"])
            xi = build_xi_table(channel, s.m, s.N - s.N_P)
            prefix_tables = build_prefix_tables(s, channel, xi)
            base = no_prefetch_energy_fast(s, xi)
            if cfg.param == "k":
                episode_gains = partial_sums[:, :, channel.k - 1] / channel.k
            else:
                episode_gains = sample_gain(channel, _scenario_rng(cfg, index, _TAG_GAINS),
                                            (cfg.trials, s.N))
            realized = _scenario_rng(cfg, index, _TAG_TASKS).choice(
                s.L, size=cfg.trials, p=s.p)
            for policy in cfg.policies:
                batch = run_prefetch_batch(s, channel, PrefetchPolicy(policy),
                                           episode_gains, realized, xi=xi,
                                           prefix_tables=prefix_tables)
                energy = float(batch.total_energy.mean())
                point_energies[policy].append(energy)
                point_gains[policy].append(base / energy)
    episodes = 0 if cfg.fading == "slow" else cfg.trials
    rows = [_aggregate(cfg, value, policy, point_energies[policy], point_gains[policy],
                       episodes)
            for value, point_energies, point_gains in zip(cfg.values, energies, gains)
            for policy in cfg.policies]
    rows.sort(key=lambda row: (row.param_value, row.policy))
    return rows


def _accumulate_slow(policies: tuple, s: Scenario, energies: dict, gains: dict):
    if s.N > s.N_P:
        base = no_prefetch_energy_slow(s)
    for policy in policies:
        if policy == "slow-opt":
            energy = expected_fetch_energy_slow(optimal_prefetch_slow(s))
        else:
            energy = base
        energies[policy].append(energy)
        gains[policy].append(base / energy if s.N > s.N_P else 1.0)


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


def emit_csv(rows: Iterable[SweepRow], dest) -> None:
    """Write rows to a path or text file object using round-trip floats."""
    own = isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__")
    handle = open(dest, "w", newline="", encoding="utf-8") if own else dest
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([
                row.param, repr(float(row.param_value)), row.policy,
                repr(float(row.mean_energy)), repr(float(row.mean_energy_db)),
                repr(float(row.stderr)), repr(float(row.gain)),
                repr(float(row.gain_db)), int(row.trials),
            ])
    finally:
        if own:
            handle.close()


def load_rows(src) -> list:
    """Parse a CSV produced by :func:`emit_csv` back into rows (exactly)."""
    own = isinstance(src, (str, bytes)) or hasattr(src, "__fspath__")
    handle = open(src, "r", newline="") if own else src
    try:
        reader = csv.reader(handle)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ConfigError(f"unexpected CSV header: {header!r}")
        rows = []
        for record in reader:
            if not record:
                continue
            rows.append(SweepRow(
                param=record[0], param_value=float(record[1]), policy=record[2],
                mean_energy=float(record[3]), mean_energy_db=float(record[4]),
                stderr=float(record[5]), gain=float(record[6]),
                gain_db=float(record[7]), trials=int(record[8])))
        return rows
    finally:
        if own:
            handle.close()
