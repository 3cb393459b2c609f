"""livefetch benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (``src/livefetch`` must exist).  Each
repetition of the workload runs in a fresh interpreter (``worker.py``); the
run repeats it at least three times and until ``--seconds`` is used up, and
reports medians.  The run and its workers stay on one CPU, where the fixed
reference computation of ``calib.py`` is timed before and after every
repetition; wall times are reported in units of it as well as in seconds.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")

sys.path.insert(0, BENCH_DIR)
import calib  # noqa: E402
from workloads import NAMES  # noqa: E402

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MIN_REPETITIONS = 3
# Length of each timing of the reference computation, before and after
# every repetition (the one after doubles as the next one's before).
CALIB_S = 0.5
# A run must end within 180 s; no repetition starts or runs past this.
RUN_LIMIT_S = 165.0

END_TO_END_UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB",
                    "episodes_per_ref": "1/ref"}


class BenchError(RuntimeError):
    """The benchmark could not run the workload."""


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".episodes", "_entries")):
        return "count"
    if "useful_bits_ratio" in name:
        return "ratio"
    if "mean_set_size" in name:
        return "tasks"
    return "s"


def repetition(workload: str, seed: int, trace: bool, tiny: bool, deadline: float,
               work_dir: str) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    rep_dir = tempfile.mkdtemp(dir=work_dir)
    out_dir = os.path.join(rep_dir, "out")
    os.mkdir(out_dir)
    spec = {"workload": workload, "seed": seed, "trace": trace, "tiny": tiny,
            "out_dir": out_dir, "result_path": os.path.join(rep_dir, "result.json")}
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repetition ran past the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition failed (exit {proc.returncode}):\n"
                         + proc.stderr[-3000:])
    with open(spec["result_path"], encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup_s"] = result["t_ready"] - t_spawn
    result["out_dir"] = out_dir
    if bool(result["wrapped"]) != trace:
        raise BenchError(f"{'traced' if trace else 'untraced'} repetition found "
                         f"wrapped functions: {result['wrapped']}")
    return result


def measure(workload: str, seed: int, seconds: int, trace: bool, tiny: bool,
            work_dir: str) -> tuple:
    """Repeat until ``seconds`` is used; return (untraced, traced) results."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain, traced = [], []
    rounds = 0
    calib.unit_time(CALIB_S / 4)  # warm-up
    before = calib.unit_time(CALIB_S)
    while True:
        round_start = time.monotonic()
        kinds = [(False, plain), (True, traced)] if trace else [(False, plain)]
        for is_traced, results in kinds:
            result = repetition(workload, seed, is_traced, tiny, deadline, work_dir)
            after = calib.unit_time(CALIB_S)
            result["unit_s"] = (before + after) / 2
            before = after
            results.append(result)
        rounds += 1
        now = time.monotonic()
        last = now - round_start
        if now + last > deadline:
            break
        if (trace or rounds >= MIN_REPETITIONS) and now + last > start + seconds:
            break
    return plain, traced


def check_summary(results: list) -> dict:
    """Pool the workers' output checks and the cross-repetition comparison."""
    attempted = failed = 0
    max_dev = None
    problems = []
    first = results[0]["check"]["sha256"]
    for result in results:
        check = result["check"]
        attempted += check["rows"]
        failed += check["failed"]
        problems += check["problems"]
        if check["max_rel_dev"] is not None:
            max_dev = max(max_dev or 0.0, check["max_rel_dev"])
    for result in results[1:]:
        for name in sorted(set(first) | set(result["check"]["sha256"])):
            attempted += 1
            if result["check"]["sha256"].get(name) != first.get(name):
                failed += 1
                problems.append(f"{name}: not byte-identical across repetitions")
    return {"attempted": attempted, "failed": failed, "max_rel_dev": max_dev,
            "problems": problems}


def provenance(results: list) -> dict:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "livefetch")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(),
            **results[0]["versions"], "threads": THREAD_ENV}


def _median(values) -> float:
    return float(statistics.median(values))


def pin_to_one_cpu() -> int:
    """Keep this process and its workers on one CPU (the last allowed)."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run(args: argparse.Namespace) -> dict:
    from tracer import layer_metrics

    cpu = pin_to_one_cpu()
    os.makedirs(WORK_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        plain, traced = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.tiny, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    results = plain + traced
    summary = check_summary(results)
    walls = [r["wall_s"] for r in plain]
    units = [r["unit_s"] for r in plain]
    if args.trace:
        layers = [layer_metrics(r["spans"], r["counters"]) for r in traced]
        values = {name: _median([layer[name] for layer in layers]) for name in layers[0]}
        values["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                      - _median(walls))
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in values.items()}
    else:
        values = {"wall_ref": _median([w / u for w, u in zip(walls, units)]),
                  "setup_s": _median([r["setup_s"] for r in plain]),
                  "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
                  "episodes_per_ref": _median([r["episodes"] * u / w for r, w, u
                                               in zip(plain, walls, units)])}
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}

    print("provenance " + json.dumps(dict(provenance(results), cpu=cpu),
                                     sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions; wall_s "
          + ", ".join(f"{w:.4f}" for w in walls)
          + f" (median {_median(walls):.4f}); reference unit ms "
          + ", ".join(f"{1e3 * u:.3f}" for u in units))
    dev = summary["max_rel_dev"]
    print(f"check: {summary['failed']} of {summary['attempted']} failed "
          f"(failed_frac {summary['failed'] / summary['attempted']:.6g}); "
          "output_max_rel_dev "
          + (f"{dev:.3g}" if dev is not None else "n/a (no reference for this seed)"))
    for problem in summary["problems"][:10]:
        print(f"  {problem}")
    return {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "livefetch", "__init__.py")):
        print(f"no livefetch sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
