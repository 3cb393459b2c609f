"""Command-line interface: parameter sweeps, single-stage inspection, figures.

The CLI keeps no settings of its own.  A command's settings are the flags
it was given, laid over its config file (``sweep --config``: UTF-8
``key=value`` lines whose keys are that command's own flags), and
``SweepConfig``'s field defaults fill in the rest.  The names a flag
accepts are the library's lists: ``SWEEP_PARAMS``, ``FADINGS`` and
``FAST_POLICIES``.

Exit codes: 0 on success (also when standard output closes early: every
file is still written), 2 for configuration problems (bad flags, bad
or unreadable config file, unwritable output, inconsistent geometry), 3
for numerical failures (any ``ArithmeticError``: quadrature,
floating-point, overflow and division errors).  Commands run with numpy
overflow, division by zero and invalid operations raising, so a
numerical failure stops where it happens.
"""

from __future__ import annotations

import argparse
import numbers
import os
import sys
from dataclasses import fields

import numpy as np

from .model import FastGamma, sample_gain, to_db
from .slow import (
    expected_fetch_energy_slow,
    no_prefetch_energy_slow,
    optimal_prefetch_slow,
    priorities,
    priority_order,
)
from .demand import build_xi_table, simulate_demand_batch
from .prefetch import PrefetchPolicy, no_prefetch_energy_fast, run_prefetch_batch
from .sweep import (
    FADINGS,
    FAST_POLICIES,
    SLOW_POLICIES,
    SWEEP_PARAMS,
    ConfigError,
    SweepConfig,
    _run_sweep,
    emit_csv,
    gain_vs_shape,
    generate_scenario,
    run_sweep,
)

#: Settings keys name SweepConfig's fields, ``Np`` standing for ``N_P``.
_FIELDS = {"Np" if field.name == "N_P" else field.name: field
           for field in fields(SweepConfig)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="livefetch",
        description="Energy-optimal live prefetching: sweeps and experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run one parameter sweep, write a CSV")
    sweep.add_argument("--param", choices=SWEEP_PARAMS)
    sweep.add_argument("--values", help="comma-separated sweep values, e.g. 5,10,20")
    sweep.add_argument("--policies",
                       help="comma-separated subset of "
                            + ",".join(dict.fromkeys(SLOW_POLICIES + FAST_POLICIES)))
    sweep.add_argument("--fading", choices=FADINGS)
    sweep.add_argument("--trials", type=int, help="episodes per scenario (fast fading)")
    sweep.add_argument("--scenarios", type=int, help="random scenarios per sweep point")
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--out", help="output CSV path")
    sweep.add_argument("--config", help="key=value config file; flags override it")
    _add_model_flags(sweep)

    single = sub.add_parser("single", help="inspect one random stage in detail")
    single.add_argument("--fading", choices=FADINGS)
    single.add_argument("--policy", choices=FAST_POLICIES,
                        help="episode policy for fast fading (implies --fading fast; "
                             "default noncausal)")
    single.add_argument("--seed", type=int)
    _add_model_flags(single)

    figures = sub.add_parser("figures", help="emit the standard experiment CSVs")
    figures.add_argument("--out", help="output directory", default="figures")
    figures.add_argument("--trials", type=int)
    figures.add_argument("--scenarios", type=int)
    figures.add_argument("--seed", type=int)
    return parser


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per model setting, typed and documented by its SweepConfig field."""
    for key, text in (("m", "monomial order"), ("k", "fast-fading shape"),
                      ("slow_g", "slow-fading gain"), ("gamma_total", "total candidate data size"),
                      ("L", "candidate tasks"), ("N", "slots per stage"),
                      ("Np", "prefetch slots"), ("lam", "energy coefficient")):
        default = _FIELDS[key].default
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, type=type(default),
                            help=f"{text} (default {default:g})")
    parser.add_argument("--uniform", action="store_const", const=True,
                        help="force uniform task probabilities and sizes")


def _read_config_file(path: str, keys) -> dict:
    """The ``key=value`` lines of the UTF-8 file ``path``, each key one of ``keys``."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    settings = {}
    with _on_disk("read config file", path, open, path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in keys:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            settings[key] = value.strip()
    return settings


def _on_disk(action: str, path: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``, with an ``OSError`` on ``path`` a configuration error."""
    try:
        return call(*args, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot {action} {path}: {exc.strerror}") from None


def _say(line: str) -> None:
    """Print ``line`` to standard output; once that is closed, print nothing more.

    A reader that stops early (``livefetch figures | head -1``) must not
    stop the command before it has written its files.  Each line is
    flushed, so a closed pipe fails here; standard output then turns to
    ``os.devnull``, so that neither a later line nor the flush at exit
    fails again.
    """
    try:
        print(line, flush=True)
    except BrokenPipeError:
        sys.stdout = open(os.devnull, "w")


def _coerce(key: str, value: str):
    """Convert a config-file string to the type of the SweepConfig field ``key`` sets."""
    default = getattr(_FIELDS.get(key), "default", None)
    try:
        if isinstance(default, bool):
            lowered = value.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        if isinstance(default, numbers.Real):
            return type(default)(value)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {value!r}") from None
    return value


def _merge_settings(args: argparse.Namespace) -> dict:
    """The settings the command was given: its flags, laid over its config file.

    A config file's keys are the command's own flags (the dests on
    ``args`` but ``command`` and ``config``); a setting given nowhere is
    left out, for SweepConfig's field default to fill in.
    """
    own = {key: value for key, value in vars(args).items() if key not in ("command", "config")}
    flags = {key: value for key, value in own.items() if value is not None}
    if not getattr(args, "config", None):
        return flags
    config = _read_config_file(args.config, own)
    return {**{key: _coerce(key, value) for key, value in config.items() if key not in flags},
            **flags}


def _parse_values(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ConfigError(f"bad values list: {text!r}") from None


def _sweep_config(settings: dict) -> SweepConfig:
    for key in ("param", "values"):
        if key not in settings:
            raise ConfigError(f"--{key} is required (flag or config file)")
    values = settings["values"]
    if isinstance(values, str):
        values = _parse_values(values)
    fading = settings.get("fading")
    policies = settings.get("policies")
    if isinstance(policies, str):
        policies = tuple(p.strip() for p in policies.split(",") if p.strip())
    if fading is None:
        if policies is None:
            fading = "fast" if settings["param"] == "k" else "slow"
        else:
            fading = "slow" if set(policies) <= set(SLOW_POLICIES) else "fast"
    if policies is None:
        policies = SLOW_POLICIES if fading == "slow" else FAST_POLICIES
    chosen = dict(settings, values=values, policies=policies, fading=fading)
    return SweepConfig(**{field.name: chosen[key] for key, field in _FIELDS.items()
                          if key in chosen})


def _cmd_sweep(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    cfg = _sweep_config(settings)
    rows = run_sweep(cfg)
    out = settings.get("out", "sweep.csv")
    _on_disk("write", out, emit_csv, rows, out)
    _say(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_single(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    fading, policy = settings.get("fading"), settings.get("policy")
    if fading is None:
        fading = "slow" if policy is None else "fast"
    if fading == "slow" and policy is not None:
        raise ConfigError(f"--policy {policy!r} runs a fast-fading episode; "
                          "slow fading runs slow-opt")
    policies = ("slow-opt",) if fading == "slow" else (policy or "noncausal",)
    gamma_total = settings.get("gamma_total", _FIELDS["gamma_total"].default)
    cfg = _sweep_config(dict(settings, param="gamma", values=(gamma_total,),
                             fading=fading, policies=policies))
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 7)))
    s = generate_scenario(rng, L=cfg.L, gamma_total=cfg.gamma_total, m=cfg.m, N=cfg.N,
                          N_P=cfg.N_P, uniform=cfg.uniform)
    _say(f"scenario: L={s.L} N={s.N} N_P={s.N_P} m={s.m} lam={cfg.lam} "
         f"gamma_total={s.gamma_total:.6g}")
    with np.printoptions(precision=5, suppress=True):
        _say(f"  p        = {s.p}")
        _say(f"  gamma    = {s.gamma}")
        _say(f"  priority = {priorities(s)}")
    if cfg.fading == "slow":
        _print_slow_single(s, cfg)
    else:
        _print_fast_single(s, cfg, rng)
    return 0


def _print_slow_single(s, cfg: SweepConfig) -> None:
    plan = optimal_prefetch_slow(s)
    with np.printoptions(precision=5, suppress=True):
        _say(f"slow fading, g={cfg.slow_g}")
        _say(f"  optimal alpha = {plan.alpha} (targets {sorted(plan.task_set)})")
        _say(f"  alpha_sigma   = {plan.alpha_sigma:.6g}")
    energy = expected_fetch_energy_slow(plan)
    _say(f"  expected energy           = {_positive('expected', cfg.unit * energy):.6g}")
    if s.N > s.N_P:
        base = no_prefetch_energy_slow(s)
        _say(f"  no-prefetch energy        = {_positive('no-prefetch', cfg.unit * base):.6g}")
        _say(f"  prefetching gain          = {base / energy:.6g} "
             f"({to_db(base / energy):.3f} dB)")


def _print_fast_single(s, cfg: SweepConfig, rng) -> None:
    unit = cfg.unit
    channel = FastGamma(cfg.k)
    policy = PrefetchPolicy(cfg.policies[0])
    xi = build_xi_table(channel, s.m, s.N - s.N_P)
    gains = sample_gain(channel, rng, (1, s.N))
    realized = rng.choice(s.L, size=1, p=s.p)
    result = run_prefetch_batch(s, channel, policy, gains, realized, xi=xi)
    order = priority_order(s)
    decisions = result.decisions
    _say(f"fast fading, k={cfg.k}, policy={policy.value}")
    for n in range(s.N_P):
        members = ",".join(str(i) for i in sorted(order[:result.slot_set_size[0, n]])) or "-"
        _say(f"  slot {n + 1}: g={gains[0, n]:.4f} eta={result.thresholds[0, n]:.5g} "
             f"bits={decisions[0, n].sum():.5g} set={{{members}}}")
    total = _positive("total", unit * result.total_energy[0])
    reference = _positive("no-prefetch", unit * no_prefetch_energy_fast(s, xi))
    bits, _ = simulate_demand_batch(result.beta, gains[:, s.N_P:], xi)
    _say(f"  realized task  = {realized[0]}")
    with np.printoptions(precision=5, suppress=True):
        _say(f"  demand bits    = {bits[0]}")
    _say(f"  prefetch energy = {unit * result.prefetch_energy[0]:.6g}")
    _say(f"  demand energy   = {unit * result.demand_energy[0]:.6g}")
    _say(f"  total energy    = {total:.6g}")
    _say(f"  no-prefetch reference = {reference:.6g}")


def _positive(name: str, energy: float) -> float:
    """An energy of positive task sizes; ``FloatingPointError`` if it underflowed to 0."""
    if not energy > 0.0:
        raise FloatingPointError(f"{name} energy underflowed to {energy:g}")
    return energy


_FIGURE_SPECS = [
    # (name, param, values, fading, overrides)
    ("fig4a", "gamma", (5, 10, 20, 40, 80), "slow", {}),
    ("fig4b", "L", (1, 2, 4, 8), "slow", {}),
    ("fig4c", "N", (5, 6, 8, 10), "slow", {}),
    ("fig4d", "Np", (1, 2, 4, 6, 8), "slow", {"N": 10}),
    ("fig5a", "gamma", (5, 10, 20, 40, 80), "fast", {}),
    ("fig5b", "L", (1, 2, 4, 8), "fast", {}),
    ("fig5c", "N", (5, 6, 8, 10), "fast", {}),
    ("fig5d", "Np", (1, 2, 4, 6, 8), "fast", {"N": 10}),
    ("fig6", "k", (2, 4, 8, 16, 32, 64), "fast", {}),
]


def _cmd_figures(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    out_dir = settings["out"]
    _on_disk("create output directory", out_dir, os.makedirs, out_dir, exist_ok=True)
    # The panels share their baseline points (fig5a at gamma=20, fig5b at
    # L=4 and fig5c at N=5 are one simulation), so one memo serves them;
    # fig6's partial-sum draws meet no other panel's.
    memo = {}
    for name, param, values, fading, overrides in _FIGURE_SPECS:
        cfg = _sweep_config(dict(settings, param=param, values=values, fading=fading,
                                 **overrides))
        rows = gain_vs_shape(cfg) if name == "fig6" else _run_sweep(cfg, memo)
        path = os.path.join(out_dir, f"{name}.csv")
        _on_disk("write", path, emit_csv, rows, path)
        _say(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {"sweep": _cmd_sweep, "single": _cmd_single,
               "figures": _cmd_figures}[args.command]
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return handler(args)
    except ArithmeticError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
