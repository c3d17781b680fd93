"""Benchmark: interpreter throughput with 0 tracers vs each Ceres mode.

Tracks the real (wall-clock) cost of the tiered dispatch refactor across
PRs: ops/sec of the uninstrumented fast path, and the relative slowdown each
instrumentation mode's event traffic adds.  The *virtual* clock must remain
identical across all modes — that invariant is asserted here, not just
benchmarked.

Historical reference (this machine class): the seed tree-walking interpreter
ran fluidSim uninstrumented at ~0.85 M ops/sec; the compiled execution core
landed at ~1.1 M ops/sec (≥ +25%).
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.observer import NestObserver
from repro.ceres import DependenceAnalyzer, LightweightProfiler, LoopProfiler
from repro.ceres.proxy import InstrumentationMode, execute_and_exercise, host_and_intercept
from repro.workloads import get_workload

WORKLOAD = "Normal Mapping"

MODES = [
    ("uninstrumented", InstrumentationMode.NONE, lambda proxy: []),
    ("mode 1 lightweight", InstrumentationMode.LIGHTWEIGHT, lambda proxy: [LightweightProfiler()]),
    (
        "mode 2 loop profile",
        InstrumentationMode.LOOP_PROFILE,
        lambda proxy: [LoopProfiler(registry=proxy.registry), NestObserver(registry=proxy.registry)],
    ),
    (
        "mode 3 dependence",
        InstrumentationMode.DEPENDENCE,
        lambda proxy: [DependenceAnalyzer(registry=proxy.registry)],
    ),
]


def _run_mode(mode, make_tracers):
    workload = get_workload(WORKLOAD)
    start = time.perf_counter()
    proxy, documents = host_and_intercept(workload, mode)
    session = execute_and_exercise(workload, documents, make_tracers(proxy))
    elapsed = time.perf_counter() - start
    stats = session.interp.stats
    return {
        "ops": stats.ops,
        "wall_s": elapsed,
        "ops_per_sec": stats.ops / elapsed if elapsed > 0 else 0.0,
        "virtual_ms": session.clock.now(),
    }


def test_bench_overhead_per_mode(benchmark):
    """Ops/sec with zero tracers vs each instrumentation mode."""
    results = {}

    def run_baseline():
        results["uninstrumented"] = _run_mode(InstrumentationMode.NONE, lambda proxy: [])
        return results["uninstrumented"]

    baseline = benchmark.pedantic(run_baseline, rounds=1, iterations=1)
    for label, mode, make_tracers in MODES[1:]:
        results[label] = _run_mode(mode, make_tracers)

    print()
    print(f"{WORKLOAD}: interpreter throughput per instrumentation tier")
    print(f"{'mode':<22}{'ops/sec':>12}{'wall s':>9}{'slowdown':>10}")
    for label, _mode, _factory in MODES:
        row = results[label]
        slowdown = baseline["ops_per_sec"] / row["ops_per_sec"] if row["ops_per_sec"] else float("inf")
        print(f"{label:<22}{row['ops_per_sec']:>12,.0f}{row['wall_s']:>9.3f}{slowdown:>9.2f}x")

    # The virtual clock and op counts are instrumentation-invariant: tracers
    # observe the interpreter, they never perturb the measured program.
    for label, _mode, _factory in MODES[1:]:
        assert results[label]["ops"] == baseline["ops"], label
        assert results[label]["virtual_ms"] == pytest.approx(baseline["virtual_ms"]), label

    # Dispatch tiers are ordered: the zero-tracer fast path is not slower
    # than the heavyweight dependence mode (wall-clock; generous margin to
    # tolerate CI noise).
    assert baseline["ops_per_sec"] >= results["mode 3 dependence"]["ops_per_sec"] * 0.9
