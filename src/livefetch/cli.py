"""Command-line interface: parameter sweeps, single-stage inspection, figures.

Exit codes: 0 on success, 2 for configuration problems (bad flags, bad
config file, inconsistent geometry), 3 for numerical failures.  Commands run
with numpy overflow, division by zero and invalid operations raising, so a
numerical failure stops where it happens.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import MISSING, fields

import numpy as np

from .model import FastGamma, QuadratureError, sample_gain, to_db
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
    FAST_POLICIES,
    SLOW_POLICIES,
    ConfigError,
    SweepConfig,
    _check_scales,
    emit_csv,
    gain_vs_shape,
    generate_scenario,
    run_sweep,
)

#: Config keys name SweepConfig's fields, ``Np`` standing for ``N_P``.
_FIELDS = {"Np" if field.name == "N_P" else field.name: field
           for field in fields(SweepConfig)}

#: SweepConfig's defaults, except that ``fading`` starts unset: the CLI
#: infers it from the swept parameter or the policy list.
_DEFAULTS = {key: None if field.default is MISSING or key == "fading" else field.default
             for key, field in _FIELDS.items()}
_DEFAULTS.update(out="sweep.csv", policy="noncausal")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="livefetch",
        description="Energy-optimal live prefetching: sweeps and experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run one parameter sweep, write a CSV")
    sweep.add_argument("--param", choices=["gamma", "L", "N", "Np", "k"])
    sweep.add_argument("--values", help="comma-separated sweep values, e.g. 5,10,20")
    sweep.add_argument("--policies",
                       help="comma-separated subset of slow-opt,no-prefetch,"
                            "aggressive,conservative,noncausal")
    sweep.add_argument("--fading", choices=["slow", "fast"])
    sweep.add_argument("--trials", type=int, help="episodes per scenario (fast fading)")
    sweep.add_argument("--scenarios", type=int, help="random scenarios per sweep point")
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--out", help="output CSV path")
    sweep.add_argument("--config", help="key=value config file; flags override it")
    _add_model_flags(sweep)

    single = sub.add_parser("single", help="inspect one random stage in detail")
    single.add_argument("--fading", choices=["slow", "fast"])
    single.add_argument("--policy", choices=list(FAST_POLICIES),
                        help="episode policy for fast fading")
    single.add_argument("--seed", type=int)
    _add_model_flags(single)

    figures = sub.add_parser("figures", help="emit the standard experiment CSVs")
    figures.add_argument("--out", help="output directory", default=None)
    figures.add_argument("--trials", type=int)
    figures.add_argument("--scenarios", type=int)
    figures.add_argument("--seed", type=int)
    return parser


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, help="monomial order (default 2)")
    parser.add_argument("--k", type=int, help="fast-fading shape (default 2)")
    parser.add_argument("--slow-g", dest="slow_g", type=float,
                        help="slow-fading gain (default 1.0)")
    parser.add_argument("--gamma-total", dest="gamma_total", type=float,
                        help="total candidate data size (default 20)")
    parser.add_argument("--L", type=int, help="candidate tasks (default 4)")
    parser.add_argument("--N", type=int, help="slots per stage (default 5)")
    parser.add_argument("--Np", type=int, help="prefetch slots (default 4)")
    parser.add_argument("--lam", type=float, help="energy coefficient (default 1)")
    parser.add_argument("--uniform", action="store_const", const=True,
                        help="force uniform task probabilities and sizes")


def _read_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    settings = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key.strip()!r}")
            settings[key] = value.strip()
    return settings


def _coerce(key: str, value):
    """Convert a config-file string to the type of the key's default."""
    if not isinstance(value, str):
        return value
    default = _DEFAULTS[key]
    try:
        if isinstance(default, bool):
            lowered = value.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        if isinstance(default, (int, float)):
            return type(default)(value)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {value!r}") from None
    return value


def _merge_settings(args: argparse.Namespace) -> dict:
    config = _read_config_file(args.config) if getattr(args, "config", None) else {}
    merged = {}
    for key, default in _DEFAULTS.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            merged[key] = cli_value
        elif key in config:
            merged[key] = _coerce(key, config[key])
        else:
            merged[key] = default
    return merged


def _parse_values(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ConfigError(f"bad values list: {text!r}") from None


def _sweep_config(settings: dict) -> SweepConfig:
    if settings["param"] is None:
        raise ConfigError("--param is required (flag or config file)")
    if settings["values"] is None:
        raise ConfigError("--values is required (flag or config file)")
    values = settings["values"]
    if isinstance(values, str):
        values = _parse_values(values)
    fading = settings["fading"]
    policies = settings["policies"]
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
    return SweepConfig(**{field.name: chosen[key] for key, field in _FIELDS.items()})


def _cmd_sweep(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    cfg = _sweep_config(settings)
    rows = run_sweep(cfg)
    emit_csv(rows, settings["out"])
    print(f"wrote {len(rows)} rows to {settings['out']}")
    return 0


def _cmd_single(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    _check_scales(settings)
    fading = settings["fading"] or "slow"
    rng = np.random.default_rng(np.random.SeedSequence((settings["seed"], 7)))
    s = generate_scenario(rng, L=settings["L"], gamma_total=settings["gamma_total"],
                          m=settings["m"], N=settings["N"], N_P=settings["Np"],
                          uniform=bool(settings["uniform"]))
    print(f"scenario: L={s.L} N={s.N} N_P={s.N_P} m={s.m} lam={settings['lam']} "
          f"gamma_total={s.gamma_total:.6g}")
    with np.printoptions(precision=5, suppress=True):
        print(f"  p        = {s.p}")
        print(f"  gamma    = {s.gamma}")
        print(f"  priority = {priorities(s)}")
    if fading == "slow":
        _print_slow_single(s, settings)
    else:
        _print_fast_single(s, settings, rng)
    return 0


def _print_slow_single(s, settings) -> None:
    g = settings["slow_g"]
    unit = settings["lam"] / g
    plan = optimal_prefetch_slow(s)
    with np.printoptions(precision=5, suppress=True):
        print(f"slow fading, g={g}")
        print(f"  optimal alpha = {plan.alpha} (targets {sorted(plan.task_set)})")
        print(f"  alpha_sigma   = {plan.alpha_sigma:.6g}")
    energy = expected_fetch_energy_slow(plan)
    print(f"  expected energy           = {unit * energy:.6g}")
    if s.N > s.N_P:
        base = no_prefetch_energy_slow(s)
        print(f"  no-prefetch energy        = {unit * base:.6g}")
        print(f"  prefetching gain          = {base / energy:.6g} "
              f"({to_db(base / energy):.3f} dB)")


def _print_fast_single(s, settings, rng) -> None:
    lam = settings["lam"]
    channel = FastGamma(settings["k"])
    policy = PrefetchPolicy(settings["policy"])
    xi = build_xi_table(channel, s.m, s.N - s.N_P)
    gains = sample_gain(channel, rng, (1, s.N))
    realized = rng.choice(s.L, size=1, p=s.p)
    result = run_prefetch_batch(s, channel, policy, gains, realized, xi=xi, trace=True)
    order = priority_order(s)
    print(f"fast fading, k={settings['k']}, policy={policy.value}")
    for n in range(s.N_P):
        members = ",".join(str(i) for i in sorted(order[:result.slot_set_size[0, n]])) or "-"
        print(f"  slot {n + 1}: g={gains[0, n]:.4f} eta={result.thresholds[0, n]:.5g} "
              f"bits={result.decisions[0, n].sum():.5g} set={{{members}}}")
    bits, _ = simulate_demand_batch(result.beta, gains[:, s.N_P:], xi)
    print(f"  realized task  = {realized[0]}")
    with np.printoptions(precision=5, suppress=True):
        print(f"  demand bits    = {bits[0]}")
    print(f"  prefetch energy = {lam * result.prefetch_energy[0]:.6g}")
    print(f"  demand energy   = {lam * result.demand_energy[0]:.6g}")
    print(f"  total energy    = {lam * result.total_energy[0]:.6g}")
    print(f"  no-prefetch reference = {lam * no_prefetch_energy_fast(s, xi):.6g}")


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
    out_dir = args.out if args.out is not None else "figures"
    trials = args.trials if args.trials is not None else _DEFAULTS["trials"]
    scenarios = args.scenarios if args.scenarios is not None else _DEFAULTS["scenarios"]
    seed = args.seed if args.seed is not None else _DEFAULTS["seed"]
    os.makedirs(out_dir, exist_ok=True)
    for name, param, values, fading, overrides in _FIGURE_SPECS:
        policies = SLOW_POLICIES if fading == "slow" else FAST_POLICIES
        cfg = SweepConfig(param=param, values=values, policies=policies,
                          fading=fading, trials=trials, scenarios=scenarios,
                          seed=seed, **overrides)
        rows = gain_vs_shape(cfg) if name == "fig6" else run_sweep(cfg)
        path = os.path.join(out_dir, f"{name}.csv")
        emit_csv(rows, path)
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {"sweep": _cmd_sweep, "single": _cmd_single,
               "figures": _cmd_figures}[args.command]
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return handler(args)
    except (QuadratureError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
