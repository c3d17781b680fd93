"""Benchmark: warm batches on a persistent worker pool vs a cold batch.

The acceptance claim of the worker-pool runtime: long-lived workers that keep
absorbed bytecode and the traces they recorded across batches make a
steady-state analysis batch ≥ 1.3× faster than a cold batch — a fresh
pipeline whose fresh pool records every guest again — while producing
byte-identical tables.  The measured batch wall-clocks land in
``BENCH_workerpool.json`` (a required artifact for ``collect_summary.py
--check``; its ``fork_batch_seconds`` key holds the cold batch), alongside
the real forked-speculation speedup.
"""

from __future__ import annotations

import time

from repro.analysis.tables import build_tables
from repro.engine.pipeline import AnalysisPipeline
from repro.parallel.speculative import SpeculationOptions, SpeculativeExecutor
from repro.workloads import get_workload

#: Explicit fan-out width: CI machines may report 1 CPU, where the default
#: width would degrade both modes to the serial path and measure nothing.
WORKERS = 2

#: The committing DOALL nest the speculation fold-in validates.
SPECULATION_WORKLOAD = "Normal Mapping"
SPECULATION_NEEDLE = "for (var y = 0; y < nm.height; y++) {"


def _cold_batch_once() -> tuple:
    """One cold batch: fresh pipeline, fresh pool, every guest recorded.

    The pool is closed afterwards, so nothing carries over to the next
    call — the cost the persistent runtime amortizes away.
    """
    pipeline = AnalysisPipeline(workers=WORKERS)
    try:
        started = time.perf_counter()
        result = pipeline.run(None, force=True)
        return time.perf_counter() - started, result
    finally:
        pipeline.close()


def _speculation_line() -> int:
    source = get_workload(SPECULATION_WORKLOAD).scripts[0][1]
    for index, text in enumerate(source.splitlines()):
        if SPECULATION_NEEDLE in text:
            return index + 1
    raise AssertionError(f"no target loop found in {SPECULATION_WORKLOAD}")


def test_bench_pool_reuse_vs_fork_per_batch(benchmark):
    """Steady-state batch wall-clock on the persistent pool vs a cold batch.

    Both sides run the full 12-application sweep at the same explicit width.
    The cold side is measured over two independent batches, each on a fresh
    pipeline and pool; the warm side warms up once, then measures warm
    batches on the same long-lived workers.
    """
    cold_walls = []
    cold_result = None
    for _ in range(2):
        wall, cold_result = _cold_batch_once()
        cold_walls.append(wall)
    cold_seconds = sum(cold_walls) / len(cold_walls)

    pool_pipeline = AnalysisPipeline(workers=WORKERS)
    try:
        # Warm-up batch: workers record each guest once; traces and bytecode
        # stay cached worker-side.
        pool_pipeline.run(None, force=True)

        pool_result = benchmark.pedantic(
            lambda: pool_pipeline.run(None, force=True), rounds=2, iterations=1
        )
        pool_seconds = benchmark.stats.stats.mean

        # Byte-identical output is non-negotiable.
        cold_tables = cold_result.tables
        pool_tables = pool_result.tables
        assert pool_tables.render_table2() == cold_tables.render_table2()
        assert pool_tables.render_table3() == cold_tables.render_table3()
        assert build_tables(pool_result.analyses).render_table2() == (
            cold_tables.render_table2()
        )

        # Fold in a real forked-speculation run.
        executor = SpeculativeExecutor(
            options=SpeculationOptions(workers=WORKERS, use_processes=True)
        )
        speculation = executor.speculate_loop(
            get_workload(SPECULATION_WORKLOAD), line=_speculation_line()
        )
        outcome = speculation.outcomes[0]
        assert outcome.status == "committed", outcome.reason
        wall = outcome.wall or {}
        assert wall.get("mode") == "fork", wall
        assert wall.get("digest_match") is True
    finally:
        pool_pipeline.close()

    speedup = cold_seconds / pool_seconds if pool_seconds > 0 else 0.0
    benchmark.extra_info["artifact_name"] = "BENCH_workerpool.json"
    benchmark.extra_info["workloads"] = "all-12"
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["fork_batch_seconds"] = round(cold_seconds, 3)
    benchmark.extra_info["pool_batch_seconds"] = round(pool_seconds, 3)
    benchmark.extra_info["pool_vs_fork_speedup"] = round(speedup, 3)
    benchmark.extra_info["speculation_workload"] = SPECULATION_WORKLOAD
    benchmark.extra_info["speculation_status"] = outcome.status
    benchmark.extra_info["speculation_wall_speedup"] = round(
        wall.get("wall_speedup", 0.0), 3
    )
    benchmark.extra_info["speculation_executed_speedup"] = round(
        outcome.executed_speedup, 3
    )
    print()
    print(f"cold batch (mean of {len(cold_walls)})     : {cold_seconds:8.2f} s")
    print(f"persistent pool (warm batch)  : {pool_seconds:8.2f} s")
    print(f"pool-reuse speedup            : {speedup:8.2f}x")
    print(
        f"forked speculation            : {outcome.status}, "
        f"wall {wall.get('wall_speedup', 0.0):.2f}x"
    )
    # The acceptance gate: reusing workers (cached traces + bytecode) must
    # beat a fresh pool that re-records every guest by a clear margin.
    assert speedup >= 1.3
