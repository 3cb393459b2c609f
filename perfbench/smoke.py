"""Smoke test of the benchmark itself, at tiny sizes (about two minutes).

    python3 perfbench/smoke.py

For every workload it runs ``run.py --tiny`` untraced and traced and checks
that the result is correct and carries exactly the metrics BENCHMARK.json
names, each with its unit.  It also checks that installing the tracer wraps
every target and that uninstalling it leaves no library function wrapped;
``run.py`` itself refuses an untraced repetition that saw a wrapper.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

sys.path.insert(0, BENCH_DIR)
from workloads import NAMES  # noqa: E402


def check_tracer() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracer

    assert tracer.find_wrapped() == [], tracer.find_wrapped()
    tracing = tracer.Tracer()
    tracing.install()
    try:
        wrapped = tracer.find_wrapped()
    finally:
        tracing.uninstall()
    for module, name in tracer.TARGETS:
        assert f"livefetch.{module}.{name}" in wrapped, (module, name, wrapped)
    assert "livefetch.sweep.run_prefetch_batch" in wrapped
    assert "livefetch.prefetch.expect_over_gain" in wrapped
    assert tracer.find_wrapped() == [], tracer.find_wrapped()


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, (workload, trace, set(got) ^ set(expected))
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
    print(f"ok {workload} trace={trace}: {len(got)} metrics, "
          f"{result['attempted']} checks", flush=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    check_tracer()
    print("ok tracer install/uninstall", flush=True)
    for workload in NAMES:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
