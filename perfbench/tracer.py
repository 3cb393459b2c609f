"""Span tracing around the public functions of each livefetch layer.

Wrappers are installed only in a traced worker process, and only from this
file: the library itself is never edited.  A wrapper replaces the function
on every livefetch module that holds it under its name, which covers the
consumer modules that imported it (``livefetch.sweep.run_prefetch_batch``,
``livefetch.prefetch.expect_over_gain``, ...) as well as the package
namespace.  Spans are kept in memory as ``(name, start, end, parent)`` and
written out once, by the worker, when the workload has finished.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

MODULES = ("model", "demand", "slow", "prefetch", "oracles", "sweep", "cli")

# (module, function) pairs wrapped in a traced run.  The span of each is
# named "<module>.<function>"; run_prefetch_batch spans add the policy.
TARGETS = (
    ("model", "expect_over_gain"),
    ("demand", "build_xi_table"),
    ("slow", "optimal_prefetch_slow"),
    ("prefetch", "build_prefix_tables"),
    ("prefetch", "run_prefetch_batch"),
    ("oracles", "p5_backward_induction"),
    ("sweep", "generate_scenario"),
    ("sweep", "run_sweep"),
    ("sweep", "gain_vs_shape"),
    ("sweep", "emit_csv"),
    ("cli", "main"),
)

POLICIES = ("noncausal", "aggressive", "conservative", "no-prefetch")
CAUSAL_POLICIES = ("noncausal", "aggressive", "conservative")


def _modules() -> list:
    return [importlib.import_module("livefetch")] + [
        importlib.import_module(f"livefetch.{name}") for name in MODULES]


def find_wrapped() -> list:
    """Names on livefetch modules that are bound to a tracing wrapper."""
    found = []
    for module in _modules():
        for name, value in vars(module).items():
            if callable(value) and getattr(value, "_perfbench_span", None):
                found.append(f"{module.__name__}.{name}")
    return sorted(found)


class Tracer:
    """Records spans and wasted-work counters while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = {}       # name -> number, summed over calls
        self._stack = []
        self._saved = []         # (module, name, original)

    def install(self) -> None:
        for module_name, name in TARGETS:
            home = sys.modules[f"livefetch.{module_name}"]
            original = getattr(home, name)
            wrapper = self._wrap(f"{module_name}.{name}", original)
            for module in _modules():
                if getattr(module, name, None) is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, span_name: str, fn):
        batch = span_name == "prefetch.run_prefetch_batch"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span_name
            if batch:
                policy = kwargs.get("policy", args[2] if len(args) > 2 else None)
                name = f"{span_name}.{policy.value}"
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if batch:
                self._count_batch(policy.value, args[0], result)
            return result

        wrapper._perfbench_span = span_name
        return wrapper

    def _count_batch(self, policy: str, scenario, result) -> None:
        """Prefetched bits of the task that ran versus all prefetched bits."""
        episodes = result.realized.shape[0]
        sent = scenario.gamma[None, :] - result.final_rho
        useful = sent[np.arange(episodes), result.realized]
        add = {
            f"{policy}.episodes": episodes,
            f"{policy}.useful_bits": float(useful.sum()),
            f"{policy}.prefetched_bits": float(sent.sum()),
            f"{policy}.set_size_sum": int(result.set_size.sum()),
        }
        for key, value in add.items():
            self.counters[key] = self.counters.get(key, 0) + value


def layer_metrics(spans: list, counters: dict) -> dict:
    """Per-layer values (without units) from one traced workload run."""
    calls, total, own = {}, {}, {}
    children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    entries = {"demand.build_xi_table": 0, "prefetch.build_prefix_tables": 0}
    for index, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start) - children[index]
        if name == "model.expect_over_gain" and parent >= 0:
            owner = spans[parent][0]
            if owner in entries:
                entries[owner] += 1

    out = {}
    for name in ("model.expect_over_gain", "demand.build_xi_table",
                 "prefetch.build_prefix_tables", "oracles.p5_backward_induction",
                 "slow.optimal_prefetch_slow"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = total.get(name, 0.0)
    out["demand.xi_entries"] = entries["demand.build_xi_table"]
    out["prefetch.zeta_entries"] = entries["prefetch.build_prefix_tables"]
    for policy in POLICIES:
        name = f"prefetch.run_prefetch_batch.{policy}"
        out[f"{name}.s"] = total.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.episodes"] = counters.get(f"{policy}.episodes", 0)
    out["sweep.generate_scenario.s"] = total.get("sweep.generate_scenario", 0.0)
    out["sweep.run_sweep.self_s"] = own.get("sweep.run_sweep", 0.0)
    out["sweep.gain_vs_shape.self_s"] = own.get("sweep.gain_vs_shape", 0.0)
    out["sweep.emit_csv.s"] = total.get("sweep.emit_csv", 0.0)
    out["cli.main.self_s"] = own.get("cli.main", 0.0)
    for policy in CAUSAL_POLICIES:
        sent = counters.get(f"{policy}.prefetched_bits", 0.0)
        episodes = counters.get(f"{policy}.episodes", 0)
        out[f"prefetch.useful_bits_ratio.{policy}"] = (
            counters.get(f"{policy}.useful_bits", 0.0) / sent if sent > 0 else 0.0)
        out[f"prefetch.mean_set_size.{policy}"] = (
            counters.get(f"{policy}.set_size_sum", 0) / episodes if episodes else 0.0)
    return out
