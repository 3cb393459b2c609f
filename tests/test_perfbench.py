"""The benchmark's use of the library: its traced targets and three tiny workloads.

``perfbench/`` imports its helpers by bare name (``tracer``, ``workloads``,
``checks``), so they load from that directory.  A library change that
breaks what the benchmark calls or reads fails here, in seconds, instead of
only in ``perfbench/smoke.py``.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
HELPERS = ("tracer", "workloads", "checks")


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's helper modules, unloaded again afterwards."""
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in HELPERS:
        monkeypatch.delitem(sys.modules, name, raising=False)
    modules = [importlib.import_module(name) for name in HELPERS]
    yield modules
    for name in HELPERS:
        sys.modules.pop(name, None)


def test_every_traced_target_resolves(bench):
    tracer, _, _ = bench
    for module, name in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(f"livefetch.{module}"), name)), name


def test_tiny_workloads_pass_their_checks_traced(bench, tmp_path):
    tracer, workloads, checks = bench
    tracing = tracer.Tracer()
    assert tracer.find_wrapped() == []
    tracing.install()
    try:
        for workload in ("oracle-c8", "wide-L", "figures"):
            out_dir = tmp_path / workload
            out_dir.mkdir()
            workloads.run(workload, 3, str(out_dir), tiny=True)
            paths = workloads.output_files(str(out_dir))
            assert paths, workload
            result = checks.check_outputs(paths, workload, 3, compare=False)
            assert result["failed"] == 0, result["problems"]
    finally:
        tracing.uninstall()
        assert tracer.find_wrapped() == []
    for policy in tracer.POLICIES:
        assert tracing.counters[f"{policy}.episodes"] > 0, policy
        assert f"{policy}.set_size_sum" in tracing.counters, policy
    for policy in tracer.CAUSAL_POLICIES:
        assert tracing.counters[f"{policy}.set_size_sum"] > 0, policy
        assert tracing.counters[f"{policy}.prefetched_bits"] > 0.0, policy
