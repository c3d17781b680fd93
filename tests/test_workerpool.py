"""Tests for the persistent worker-pool runtime (engine/workerpool.py).

Lifecycle coverage: worker crash mid-task → reassignment, poisoned task →
structured error, double ``close()`` idempotence, pool survives an analysis
error without leaking processes; concurrent submitters run at once on
distinct workers — plus the pipeline integration (pooled
fan-out byte-identical to serial; workers keep the traces they record, the
parent fetches one on demand, and a second batch performs zero guest
executions).
"""

import os
import threading
import time

import pytest

from repro.analysis.casestudy import CaseStudyRunner
from repro.analysis.tables import build_tables
from repro.engine import AnalysisPipeline
from repro.analysis.casestudy import pipeline_trace_mask
from repro.api import AnalysisSession
from repro.engine.cache import workload_fingerprint
from repro.engine.workerpool import (
    PoolTask,
    PoolUnavailableError,
    UnknownWorkloadError,
    WorkerCrashError,
    WorkerPool,
    fetch_trace_task,
    run_inherited,
)
from repro.jsvm.hooks import Trace
from repro.serve.store import DiskTraceStore
from repro.workloads import get_workload
from repro.workloads.base import REGISTRY, Workload

from test_engine import TINY_SOURCE, _make_tiny_workload, tiny_workloads  # noqa: F401

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="persistent pool requires the fork start method",
)


# ---------------------------------------------------------------------------
# module-level task functions (pickled by reference; workers inherit them)
# ---------------------------------------------------------------------------
def _task_echo(context, heavy, value):
    return (value, os.getpid())

def _task_env(context, heavy, key):
    return os.environ.get(key)

def _task_raise(context, heavy):
    raise ValueError("deliberate analysis error")

def _task_crash_once(context, heavy, sentinel_path):
    if os.path.exists(sentinel_path):
        return ("recovered", os.getpid())
    with open(sentinel_path, "w", encoding="utf-8") as handle:
        handle.write("crashed once\n")
    os._exit(13)

def _task_always_crash(context, heavy):
    os._exit(13)

def _task_rendezvous(context, heavy, directory, me, other):
    """Mark ``me`` in ``directory``, then wait (30 s at most) for ``other``.

    Two such tasks finish only if they run at the same time.
    """
    with open(os.path.join(directory, me), "w", encoding="utf-8"):
        pass
    deadline = time.monotonic() + 30.0
    while not os.path.exists(os.path.join(directory, other)):
        if time.monotonic() > deadline:
            raise TimeoutError(f"task {me!r} waited 30 s for {other!r}")
        time.sleep(0.01)
    return (me, os.getpid())


def _wait_dead(pids, timeout=5.0):
    """True once every pid in ``pids`` is gone (reaped or kill-0 fails)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = []
        for pid in pids:
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                continue
            alive.append(pid)
        if not alive:
            return True
        time.sleep(0.05)
    return False


class TestWorkerPoolLifecycle:
    def test_round_trip_and_worker_reuse_across_batches(self):
        with WorkerPool(width=2) as pool:
            first = pool.run_tasks([PoolTask(fn=_task_echo, args=(i,)) for i in range(6)])
            assert [value for value, _pid in first] == list(range(6))
            pids_first = {pid for _value, pid in first}
            assert pids_first <= set(pool.worker_pids())
            second = pool.run_tasks([PoolTask(fn=_task_echo, args=(i,)) for i in range(6)])
            pids_second = {pid for _value, pid in second}
            # Persistent runtime: the same processes served both batches.
            assert pids_second <= pids_first
            assert pool.ping()

    def test_env_snapshot_ships_with_every_batch(self, monkeypatch):
        with WorkerPool(width=1) as pool:
            monkeypatch.setenv("REPRO_POOL_TEST_KNOB", "one")
            assert pool.run_tasks(
                [PoolTask(fn=_task_env, args=("REPRO_POOL_TEST_KNOB",))]
            ) == ["one"]
            # Live workers see parent-side knob changes on the *next* batch.
            monkeypatch.setenv("REPRO_POOL_TEST_KNOB", "two")
            assert pool.run_tasks(
                [PoolTask(fn=_task_env, args=("REPRO_POOL_TEST_KNOB",))]
            ) == ["two"]
            monkeypatch.delenv("REPRO_POOL_TEST_KNOB")
            assert pool.run_tasks(
                [PoolTask(fn=_task_env, args=("REPRO_POOL_TEST_KNOB",))]
            ) == [None]

    def test_crash_mid_task_reassigns_and_batch_completes(self, tmp_path):
        sentinel = str(tmp_path / "crash-once.sentinel")
        with WorkerPool(width=2) as pool:
            tasks = [PoolTask(fn=_task_echo, args=(0,))]
            tasks.append(PoolTask(fn=_task_crash_once, args=(sentinel,), label="crasher"))
            tasks.extend(PoolTask(fn=_task_echo, args=(i,)) for i in (1, 2))
            results = pool.run_tasks(tasks)
            assert results[1][0] == "recovered"
            assert [r[0] for r in (results[0], results[2], results[3])] == [0, 1, 2]
            # The pool replaced the dead worker and stays serviceable.
            assert pool.ping()

    def test_poisoned_task_surfaces_structured_error(self):
        with WorkerPool(width=2) as pool:
            with pytest.raises(WorkerCrashError) as excinfo:
                pool.run_tasks([PoolTask(fn=_task_always_crash, label="poison")])
            assert excinfo.value.label == "poison"
            assert excinfo.value.attempts == 2
            # Poison kills workers, not the pool: the next batch still runs.
            assert pool.run_tasks([PoolTask(fn=_task_echo, args=(7,))])[0][0] == 7

    def test_analysis_error_propagates_without_killing_workers(self):
        with WorkerPool(width=2) as pool:
            pool.run_tasks([PoolTask(fn=_task_echo, args=(i,)) for i in range(2)])
            pids_before = set(pool.worker_pids())
            with pytest.raises(ValueError, match="deliberate analysis error"):
                pool.run_tasks(
                    [PoolTask(fn=_task_raise), PoolTask(fn=_task_echo, args=(1,))]
                )
            # A guest-level error is a result, not a crash: same processes.
            assert set(pool.worker_pids()) == pids_before
            assert pool.ping()

    def test_close_is_idempotent_and_reaps_workers(self):
        pool = WorkerPool(width=2)
        pool.run_tasks([PoolTask(fn=_task_echo, args=(i,)) for i in range(2)])
        pids = pool.worker_pids()
        assert pids
        pool.close()
        pool.close()  # idempotent by contract
        assert pool.closed
        assert _wait_dead(pids), f"workers leaked after close: {pids}"
        with pytest.raises(RuntimeError):
            pool.run_tasks([PoolTask(fn=_task_echo, args=(0,))])

    def test_refresh_respawns_workers(self):
        with WorkerPool(width=1) as pool:
            old = pool.run_tasks([PoolTask(fn=_task_echo, args=(0,))])[0][1]
            pool.refresh()
            assert _wait_dead([old])
            new = pool.run_tasks([PoolTask(fn=_task_echo, args=(0,))])[0][1]
            assert new != old

    def test_run_inherited_values_errors_and_crashes(self):
        state = {"base": 40}
        results = run_inherited(
            [
                lambda: state["base"] + 2,  # closures cross via fork, not pickle
                lambda: (_ for _ in ()).throw(RuntimeError("chunk failed")),
                lambda: os._exit(3),
            ]
        )
        assert results[0] == 42
        assert isinstance(results[1], RuntimeError)
        assert isinstance(results[2], WorkerCrashError)


def _in_threads(**calls):
    """Run each named zero-argument call on its own thread; name → value.

    A call that raises maps to its exception; the join is bounded, so a
    pool that serialized the calls fails by a task's timeout, not a hang.
    """
    out = {}

    def run(name, call):
        try:
            out[name] = call()
        except Exception as exc:  # noqa: BLE001 - asserted by the caller
            out[name] = exc

    threads = [threading.Thread(target=run, args=item) for item in calls.items()]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=90)
        assert not thread.is_alive()
    return out


class TestConcurrentSubmitters:
    def test_two_one_task_calls_run_at_once_on_two_workers(self, tmp_path):
        directory = str(tmp_path)
        with WorkerPool(width=2) as pool:
            pool.start()

            def one(me, other):
                task = PoolTask(fn=_task_rendezvous, args=(directory, me, other))
                return lambda: pool.run_tasks([task])

            out = _in_threads(a=one("a", "b"), b=one("b", "a"))
            assert not any(isinstance(value, Exception) for value in out.values()), out
            assert out["a"][0][0] == "a" and out["b"][0][0] == "b"
            pids = {out["a"][0][1], out["b"][0][1]}
            assert len(pids) == 2
            # start() forked the full width; no call needed a third worker.
            assert pids == set(pool.worker_pids())

    def test_batch_and_one_task_call_at_once_keep_task_order(self, tmp_path):
        directory = str(tmp_path)
        with WorkerPool(width=2) as pool:
            pool.start()
            # The lone task finishes only once the batch has started, so
            # the two calls overlap; the batch runs on the other worker.
            lone = [PoolTask(fn=_task_rendezvous, args=(directory, "lone", "batch"))]
            batch = [PoolTask(fn=_task_rendezvous, args=(directory, "batch", "lone"))]
            batch += [PoolTask(fn=_task_echo, args=(i,)) for i in range(1, 5)]

            def later_batch():
                deadline = time.monotonic() + 30.0
                while not os.path.exists(os.path.join(directory, "lone")):
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                return pool.run_tasks(batch)

            out = _in_threads(lone=lambda: pool.run_tasks(lone), batch=later_batch)
            assert not any(isinstance(value, Exception) for value in out.values()), out
            assert out["lone"][0][0] == "lone"
            assert [value for value, _pid in out["batch"]] == ["batch", 1, 2, 3, 4]
            assert out["batch"][0][1] != out["lone"][0][1]
            # Both calls released their workers: the next call runs at once.
            assert pool.run_tasks([PoolTask(fn=_task_echo, args=(9,))])[0][0] == 9

    def test_many_submitters_each_get_their_own_results(self):
        """Six threads (more than cores) share a two-wide pool under a short
        switch interval; a reply handed to the wrong call, or a claim
        lost, breaks the per-call values or leaves a worker claimed."""
        import sys

        with WorkerPool(width=2) as pool:
            pool.start()
            pids = set(pool.worker_pids())

            def submitter(slot):
                def calls():
                    seen = []
                    for round_ in range(8):
                        size = 1 + (slot + round_) % 3
                        values = [(slot, round_, i) for i in range(size)]
                        tasks = [PoolTask(fn=_task_echo, args=(v,)) for v in values]
                        seen.append([v for v, _pid in pool.run_tasks(tasks)] == values)
                    return seen

                return calls

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                out = _in_threads(**{f"s{slot}": submitter(slot) for slot in range(6)})
            finally:
                sys.setswitchinterval(interval)
            assert all(value == [True] * 8 for value in out.values()), out
            assert set(pool.worker_pids()) == pids
            assert not any(handle.claimed for handle in pool._handles)


def _forbid_recording(monkeypatch):
    """Make any in-process guest recording fail the test."""

    def _no_recording(self, workload, mask=None, drop_methods=None):
        raise AssertionError(f"guest execution attempted for {workload.name}")

    monkeypatch.setattr(CaseStudyRunner, "record_trace", _no_recording)


class TestPipelineOnPool:
    def test_pooled_fan_out_matches_serial_results(self, tiny_workloads):
        serial = AnalysisPipeline(workers=1).analyze_many(tiny_workloads)
        pipeline = AnalysisPipeline(workers=2)
        try:
            pooled = pipeline._run_on_pool(tiny_workloads)
        finally:
            pipeline.close()
        assert pooled is not None
        serial_tables = build_tables(serial)
        pooled_tables = build_tables(pooled)
        assert pooled_tables.render_table2() == serial_tables.render_table2()
        assert pooled_tables.render_table3() == serial_tables.render_table3()

    def test_pooled_fan_out_returns_recorded_traces_to_parent(
        self, tiny_workloads, monkeypatch
    ):
        """Worker-recorded traces reach the parent on demand, never per batch.

        The batch adds nothing to the parent store; ``session.record_trace``
        afterwards fetches each trace from the worker that recorded it, with
        zero guest executions in the parent.
        """
        pipeline = AnalysisPipeline(workers=2)
        with AnalysisSession(pipeline=pipeline) as session:
            assert pipeline._run_on_pool(tiny_workloads) is not None
            mask = pipeline_trace_mask()
            for workload in tiny_workloads:
                assert not pipeline.trace_store.has(workload_fingerprint(workload), mask)
            assert pipeline.trace_store.puts == 0

            _forbid_recording(monkeypatch)
            for workload in tiny_workloads:
                trace = session.record_trace(workload)
                assert trace.fingerprint == workload_fingerprint(workload)
                assert pipeline.trace_store.has(trace.fingerprint, mask)
            assert pipeline.trace_store.puts == len(tiny_workloads)

    def test_second_pool_batch_performs_zero_guest_executions(
        self, tiny_workloads, monkeypatch
    ):
        """A warm batch replays on the workers that hold the traces.

        A worker that recorded anything would report the fingerprint as
        ``gained`` and so grow its holdings; they must not change, and each
        trace stays on exactly one worker.
        """
        pipeline = AnalysisPipeline(workers=2)
        try:
            first = pipeline._run_on_pool(tiny_workloads)
            assert first is not None
            holdings = pipeline._pool.holdings()
            held = sorted(key for keys in holdings.values() for key in keys)
            assert held == sorted(workload_fingerprint(w) for w in tiny_workloads)

            _forbid_recording(monkeypatch)
            second = pipeline._run_on_pool(tiny_workloads)
            assert second is not None
            assert pipeline._pool.holdings() == holdings
            assert pipeline.trace_store.puts == 0
            assert build_tables(second).render_table2() == build_tables(
                first
            ).render_table2()
        finally:
            pipeline.close()

    def test_warm_disk_backed_attach_ships_zero_trace_bytes(
        self, tiny_workloads, tmp_path
    ):
        """Pool attach over a disk-backed store pipes no trace bytes.

        ``record_trace`` fills the store first.  The parent then hands
        workers a ``(path, digest)`` segment reference and the workers open
        (mmap) the shared segment themselves, also after a respawn.  The
        pool's bytes-shipped counter is the evidence: it stays at zero while
        the ref counter moves.
        """
        from repro.serve.store import DiskTraceStore

        store = DiskTraceStore(tmp_path / "store")
        pipeline = AnalysisPipeline(workers=2, trace_store=store)
        with AnalysisSession(pipeline=pipeline) as session:
            for workload in tiny_workloads:
                session.record_trace(workload)
            assert store.segment_count() >= len(tiny_workloads)
            first = pipeline._run_on_pool(tiny_workloads)
            assert first is not None
            pool = pipeline._pool
            assert pool.trace_refs_shipped == len(tiny_workloads)
            # Respawned workers hold nothing: a warm attach must re-ship —
            # by reference, not by value.
            pool.refresh()
            second = pipeline._run_on_pool(tiny_workloads)
            assert second is not None
            assert pool.trace_bytes_shipped == 0
            assert pool.traces_shipped == 0
            assert pool.trace_refs_shipped == 2 * len(tiny_workloads)
            assert build_tables(second).render_table2() == build_tables(
                first
            ).render_table2()

    def test_fetch_of_a_ref_attached_trace_returns_a_trace(self, tiny_workloads, tmp_path):
        """A worker serving a trace it attached by segment reference hands
        back a loaded ``Trace``: its mmap-backed source cannot be pickled."""
        store = DiskTraceStore(tmp_path / "store")
        pipeline = AnalysisPipeline(workers=2, trace_store=store)
        workload = tiny_workloads[0]
        fingerprint = workload_fingerprint(workload)
        mask = pipeline_trace_mask()
        with AnalysisSession(pipeline=pipeline) as session:
            session.record_trace(workload)
            assert pipeline._run_on_pool([workload]) is not None
            pool = pipeline._pool
            assert pool.trace_refs_shipped == 1
            task = PoolTask(
                fn=fetch_trace_task, args=(fingerprint, mask), cache_key=fingerprint
            )
            (fetched,) = pool.run_tasks([task])
        assert isinstance(fetched, Trace)
        assert fetched == store.find(fingerprint, mask).load()

    def test_workload_registered_after_spawn_triggers_refresh(self, tiny_workloads):
        pipeline = AnalysisPipeline(workers=2)
        try:
            assert pipeline._run_on_pool([tiny_workloads[0]]) is not None
            name = "engine-test-late"
            REGISTRY.register(name, lambda: _make_tiny_workload(name))
            try:
                late = get_workload(name)
                # Live workers predate the registration; the pipeline must
                # refresh and retry rather than fail the batch.
                analyses = pipeline._run_on_pool([tiny_workloads[0], late])
                assert analyses is not None
                assert [a.name for a in analyses] == ["engine-test-a", name]
            finally:
                REGISTRY._factories.pop(name, None)
        finally:
            pipeline.close()

    def test_analyze_many_uses_pool_and_close_reaps(self, tiny_workloads):
        pipeline = AnalysisPipeline(workers=2)
        analyses = pipeline.analyze_many(tiny_workloads)
        assert [a.name for a in analyses] == [w.name for w in tiny_workloads]
        pool = pipeline._pool
        assert pool is not None
        pids = pool.worker_pids()
        assert pids, "analyze_many should have spawned pool workers"
        pipeline.close()
        assert _wait_dead(pids), f"pipeline.close() leaked pool workers: {pids}"
        pipeline.close()  # idempotent

    def test_disk_store_records_on_a_worker_that_keeps_nothing(
        self, tiny_workloads, tmp_path, monkeypatch
    ):
        store = DiskTraceStore(tmp_path)
        pipeline = AnalysisPipeline(workers=2, trace_store=store)
        with AnalysisSession(pipeline=pipeline) as session:
            pipeline.start_pool()
            _forbid_recording(monkeypatch)  # the workers forked before this
            workload = tiny_workloads[0]
            trace = session.record_trace(workload)
            assert store.puts == 1 and store.segment_count() == 1
            assert pipeline.pool_stats() == {
                "workers_alive": 2,  # start_pool forks the pool's width
                "recordings": 1,
                "in_process_fallbacks": 0,
                "replays": 0,
            }
            assert all(not keys for keys in pipeline._pool.holdings().values())
            # Stored now: a second call neither records nor reaches the pool.
            assert session.record_trace(workload) is trace
            assert pipeline.pool_stats()["recordings"] == 1

    def test_unpicklable_workload_records_in_process(self, tmp_path):
        workload = _make_tiny_workload("engine-test-local")
        workload.exercise_fn = lambda browser: None  # does not pickle
        store = DiskTraceStore(tmp_path)
        pipeline = AnalysisPipeline(workers=2, trace_store=store)
        with AnalysisSession(pipeline=pipeline) as session:
            session.record_trace(workload)
        assert store.puts == 1
        assert pipeline.pool_stats()["recordings"] == 0
        assert pipeline.pool_stats()["in_process_fallbacks"] == 1

    def test_fetch_trace_roundtrip(self, tiny_workloads, monkeypatch):
        pipeline = AnalysisPipeline(workers=2)
        try:
            workload = tiny_workloads[0]
            # No pool yet: nothing to fetch, the caller records in-process.
            assert pipeline.fetch_trace(workload) is None
            assert pipeline._pool is None
            assert pipeline.analyze_many(tiny_workloads) is not None
            _forbid_recording(monkeypatch)
            trace = pipeline.fetch_trace(workload)
            assert trace is not None
            assert pipeline.trace_store.puts == 1
            # Second call serves the parent store; no new put, same trace.
            again = pipeline.fetch_trace(workload)
            assert again is trace or again.digest() == trace.digest()
            assert pipeline.trace_store.puts == 1
        finally:
            pipeline.close()
