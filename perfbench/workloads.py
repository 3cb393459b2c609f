"""The four benchmark workloads, run as a user would run them.

Three go through ``livefetch.cli.main`` exactly as the ``livefetch`` command
would; ``oracle-c8`` calls the public library functions.  Every function is
looked up on its module at call time, so a traced run sees the wrappers.
Each workload writes its results as sweep CSVs into ``out_dir``.

Sizes fit at least three fresh-interpreter repetitions into one benchmark
run on a 2-core machine.  ``tiny`` shrinks every workload for the smoke test
without changing which layers it exercises.
"""

from __future__ import annotations

import os

NAMES = ("figures", "wide-L", "tables-gamma", "oracle-c8")

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# The oracle-c8 instance: the criterion-8 geometry at the size the
# discretized backward induction supports (two candidate tasks).  The bit
# grid is coarser than the library's default of 41 points, which takes
# about 7 s per repetition; at 31 points a repetition lasts about as long
# as those of the other workloads, so the reference timings around it
# track the host's speed as closely.
ORACLE_WINDOWS = (2, 3, 4, 5, 6, 7, 8)
ORACLE_GRID = {"bit_grid": 31, "gain_bins": 16}
ORACLE_POLICIES = ("noncausal", "aggressive", "conservative", "no-prefetch")


def _cli_specs(tiny: bool) -> dict:
    """Command lines (minus --seed/--out) and scenarios per sweep point."""
    trials = {"figures": "20", "wide-L": "20", "tables-gamma": "5"} if tiny else \
        {"figures": "2000", "wide-L": "1000", "tables-gamma": "20"}
    scenarios = {"figures": 1, "wide-L": 1, "tables-gamma": 2} if tiny else \
        {"figures": 3, "wide-L": 1, "tables-gamma": 30}
    argv = {
        "figures": ["figures"],
        "wide-L": ["sweep", "--param", "L", "--values", "16,32,64",
                   "--fading", "fast", "--N", "10", "--Np", "8"],
        "tables-gamma": ["sweep", "--param", "gamma", "--values", "5,10,20,40,80",
                         "--fading", "fast", "--m", "3", "--k", "2", "--L", "8",
                         "--N", "10", "--Np", "8",
                         "--policies", "aggressive,conservative"],
    }
    return {name: (argv[name] + ["--trials", trials[name],
                                 "--scenarios", str(scenarios[name])],
                   scenarios[name])
            for name in argv}


def run(name: str, seed: int, out_dir: str, tiny: bool) -> None:
    """Run one workload, writing its CSVs into ``out_dir``."""
    if name == "oracle-c8":
        _oracle_c8(seed, out_dir, tiny)
        return
    from livefetch import cli

    argv = _cli_specs(tiny)[name][0] + ["--seed", str(seed)]
    if name == "figures":
        argv += ["--out", out_dir]
    else:
        argv += ["--out", os.path.join(out_dir, f"{name}.csv")]
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"livefetch {' '.join(argv)} exited with {code}")


def episodes(name: str, out_dir: str, tiny: bool) -> int:
    """Policy episodes simulated, from the rows' per-scenario trial counts."""
    from livefetch.sweep import load_rows

    scenarios = 1 if name == "oracle-c8" else _cli_specs(tiny)[name][1]
    return scenarios * sum(row.trials for path in output_files(out_dir)
                           for row in load_rows(path))


def _oracle_c8(seed: int, out_dir: str, tiny: bool) -> None:
    """Exact causal optimum next to the four policies, N=10, N_P = 2..8.

    One scenario shape (the sweep's scenario substream 0) is shared by all
    windows, and the policies share gain and task draws, as in a sweep.
    """
    import numpy as np
    from livefetch import demand, model, oracles, prefetch, sweep

    trials = 50 if tiny else 10_000
    grid = {"bit_grid": 11, "gain_bins": 4} if tiny else ORACLE_GRID
    channel = model.FastGamma(2)
    rows = []
    for n_p in ORACLE_WINDOWS:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 11, 0)))
        s = sweep.generate_scenario(rng, L=2, gamma_total=20.0, m=2, N=10, N_P=n_p)
        xi = demand.build_xi_table(channel, s.m, s.N - s.N_P)
        tables = prefetch.build_prefix_tables(s, channel, xi)
        base = prefetch.no_prefetch_energy_fast(s, xi)
        optimum = oracles.p5_backward_induction(s, channel, **grid).value
        rows.append(_row(n_p, "p5-oracle", optimum, 0.0, base, 0))
        gain_rng = np.random.default_rng(np.random.SeedSequence((seed, 22, n_p)))
        task_rng = np.random.default_rng(np.random.SeedSequence((seed, 33, n_p)))
        gains = model.sample_gain(channel, gain_rng, (trials, s.N))
        realized = task_rng.choice(s.L, size=trials, p=s.p)
        for policy in ORACLE_POLICIES:
            batch = prefetch.run_prefetch_batch(
                s, channel, prefetch.PrefetchPolicy(policy), gains, realized,
                xi=xi, prefix_tables=tables)
            energy = batch.total_energy
            rows.append(_row(n_p, policy, float(energy.mean()),
                             float(energy.std(ddof=1) / np.sqrt(trials)), base, trials))
    rows.sort(key=lambda row: (row.param_value, row.policy))
    sweep.emit_csv(rows, os.path.join(out_dir, "oracle-c8.csv"))


def _row(n_p: int, policy: str, energy: float, stderr: float, base: float,
         trials: int):
    from livefetch.model import to_db
    from livefetch.sweep import SweepRow

    return SweepRow(param="Np", param_value=float(n_p), policy=policy,
                    mean_energy=energy, mean_energy_db=to_db(energy),
                    stderr=stderr, gain=base / energy, gain_db=to_db(base / energy),
                    trials=trials)


def output_files(out_dir: str) -> list:
    return sorted(os.path.join(out_dir, name) for name in os.listdir(out_dir)
                  if name.endswith(".csv"))


def reference_dir(workload: str, seed: int) -> str:
    return os.path.join(REFERENCE_DIR, workload, f"seed-{seed}")
