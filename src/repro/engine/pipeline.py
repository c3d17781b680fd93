"""Batch driver for the case-study methodology.

:class:`AnalysisPipeline` owns result caching (keyed by the requested
workload set, so tests and tools can hold independent pipelines) and the
fan-out of a batch across workloads.

Workloads are independent by construction (each analysis run uses a fresh
browser session and virtual clock), so fan-out cannot change results.  The
persistent :class:`~repro.engine.workerpool.WorkerPool` is the only way a
batch uses more than one process: the pipeline ships workload *names* to
its long-lived workers and reassembles the analyses in request order.  A
batch runs serially in-process instead when the resolved width is 1, when
the platform cannot ``fork``, or when a workload is not registered (or is
still unknown to the workers after one pool refresh).

Traces stay where they are recorded.  When the parent's
:class:`TraceStore` already holds a workload's trace, it ships to the first
worker that needs it; otherwise the worker records it and keeps it, and only
the analysis comes back.  :meth:`AnalysisPipeline.fetch_trace` hands a
worker-held trace to the parent on demand (``AnalysisSession.record_trace``
uses it), so a trace recorded by a batch is never recorded again.

A trace nobody holds yet records on the pool too when the pipeline's store
is a :class:`~repro.serve.store.DiskTraceStore`
(:meth:`AnalysisPipeline.record_on_pool`): the worker stages the encoded
segment in the store's root and keeps nothing, the parent publishes it.
With such a store, a warm replay leaves this process as well
(:meth:`AnalysisPipeline.replay_on_pool`): a worker attaches the stored
segment once by reference, replays it on its own session and returns the
finished result, so this process never opens or decodes the segment.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.casestudy import ApplicationAnalysis, CaseStudyRunner, pipeline_trace_mask
from ..analysis.tables import CaseStudyTables, build_tables
from ..jsvm.hooks import Trace, _warn_rejected_env
from .cache import BytecodeCache, ScriptCache, TraceStore, workload_fingerprint
from .stages import prepare_workload_bytecode, run_stages
from .workerpool import (
    PoolTask,
    PoolUnavailableError,
    PoolWorkerContext,
    UnknownWorkloadError,
    WorkerPool,
    fetch_trace_task,
    resolve_workload,
)

logger = logging.getLogger(__name__)

#: Environment knob for the fan-out width (``1`` forces serial execution).
WORKERS_ENV_VAR = "REPRO_ENGINE_WORKERS"


@dataclass
class PipelineResult:
    """Output of one pipeline batch (the full case-study artifact set)."""

    analyses: List[ApplicationAnalysis]
    tables: CaseStudyTables


def resolve_worker_count(workers: Optional[int], task_count: int) -> int:
    """Decide the fan-out width for ``task_count`` independent workloads.

    ``workers`` wins when given; otherwise the ``REPRO_ENGINE_WORKERS``
    environment variable; otherwise the CPU count.  An unset or empty
    variable silently picks the CPU count; a present but invalid value
    (unparseable, or not a positive integer) is rejected with a one-time
    warning naming it, then falls back to the CPU count.  The result is
    clamped to ``task_count`` and is at least 1.
    """
    if workers is None:
        default = os.cpu_count() or 1
        raw = os.environ.get(WORKERS_ENV_VAR, "")
        try:
            workers = int(raw) if raw else default
        except ValueError:
            workers = 0
        if workers <= 0:
            _warn_rejected_env(WORKERS_ENV_VAR, raw, default)
            workers = default
    return max(1, min(workers, task_count))


def _analyze_in_worker(payload) -> ApplicationAnalysis:
    """Pool task body: analyze one workload on a worker's persistent caches.

    ``payload`` is ``(context, heavy, name, runner_kwargs)``: the worker's
    :class:`~repro.engine.workerpool.PoolWorkerContext`, the heavy payload
    the parent shipped (``None`` when this worker already holds the
    workload; else a dict with the parent's ``trace`` or on-disk
    ``trace_ref``, if any, and the compiled ``bytecode``), the registered
    workload name and the :class:`CaseStudyRunner` options.  A trace the
    worker has to record stays in its own store; only the analysis returns.
    """
    context, heavy, name, runner_kwargs = payload
    workload = resolve_workload(name)
    context.install(workload, heavy)
    return run_stages(context.runner(runner_kwargs), workload)


def _analysis_task(context: PoolWorkerContext, heavy, name: str, runner_kwargs):
    """Pool entry point; resolves ``_analyze_in_worker`` at call time.

    The module attribute is looked up per task, so a wrapper installed on
    it before the pool forks (the benchmark's span tracing) sees every
    analysis.
    """
    return _analyze_in_worker((context, heavy, name, runner_kwargs))


def _record_segment_task(
    context: PoolWorkerContext, heavy, stage, ref, mask: int, root: str, chunk_events
):
    """Pool task: record one workload and stage its trace store segment.

    ``ref`` is a registered workload name (resolved in the worker, as
    :func:`_analysis_task` does) or an ad-hoc workload shipped by value;
    ``stage`` is the parent store's stage half
    (:meth:`~repro.serve.store.DiskTraceStore.stage`, pickled by reference),
    which digests and encodes the trace into a temp file under ``root``.
    Returns its ``(tmp, row)`` for the parent to publish.  The trace never
    enters the worker's store: the worker keeps nothing it records here.
    """
    workload = resolve_workload(ref) if isinstance(ref, str) else ref
    trace = context.runner({}).record_trace(workload, mask)
    return stage(root, trace, chunk_events)


def _replay_task(context: PoolWorkerContext, heavy, ref, spec) -> Optional[dict]:
    """Pool task: serve one replaying run from a stored trace on this worker.

    ``ref`` names the workload as for :func:`_record_segment_task`;
    ``heavy`` (shipped once per worker and fingerprint) is the parent
    store's segment reference, which the worker attaches at rest
    (:meth:`~repro.engine.workerpool.PoolWorkerContext._install_ref`).  The
    replay runs :meth:`AnalysisSession._run_replayed
    <repro.api.session.AnalysisSession._run_replayed>` on the worker's own
    session and returns ``RunResult.to_dict()``; ``None`` means this worker
    holds no covering trace (it refused the segment), and it records nothing.
    """
    workload = resolve_workload(ref) if isinstance(ref, str) else ref
    context.install(workload, heavy)
    trace = context.trace_store.find(workload_fingerprint(workload), spec.combined_mask())
    if trace is None:
        return None
    return context.session()._run_replayed(workload, spec, trace=trace).to_dict()


class AnalysisPipeline:
    """Owns caching, stage scheduling and fan-out for case-study batches.

    Parameters
    ----------
    workers:
        Fan-out width across workloads.  ``None`` (default) resolves from the
        ``REPRO_ENGINE_WORKERS`` environment variable or the CPU count; ``1``
        runs serially in-process.
    script_cache:
        Shared source→AST cache; a fresh one is created if omitted.
    trace_store:
        Shared store of recorded event traces (record-once / replay-many);
        a fresh one is created if omitted.
    cores / coverage_target / max_nests_per_app:
        Passed through to the :class:`CaseStudyRunner` the pipeline creates.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        script_cache: Optional[ScriptCache] = None,
        cores: int = 8,
        coverage_target: float = 0.80,
        max_nests_per_app: int = 5,
        trace_store: Optional[TraceStore] = None,
        bytecode_cache: Optional[BytecodeCache] = None,
    ) -> None:
        self.workers = workers
        self.bytecode_cache = bytecode_cache if bytecode_cache is not None else BytecodeCache()
        if script_cache is not None:
            self.script_cache = script_cache
        else:
            self.script_cache = ScriptCache(bytecode_cache=self.bytecode_cache)
        self.trace_store = trace_store if trace_store is not None else TraceStore()
        self._runner_kwargs = {
            "cores": cores,
            "coverage_target": coverage_target,
            "max_nests_per_app": max_nests_per_app,
        }
        self._results: Dict[Tuple[str, ...], PipelineResult] = {}
        self._pool: Optional[WorkerPool] = None
        self._pool_failed = False
        #: Guards pool creation and the recording counters (the serve
        #: daemon records from several executor threads).
        self._lock = threading.Lock()
        #: Cold recordings a pool worker made for the disk store, the ones
        #: that ran in process because the pool could not take them, and
        #: the warm replays a pool worker served.
        self.pool_recordings = 0
        self.pool_fallbacks = 0
        self.pool_replays = 0

    # ------------------------------------------------------------------ pool
    def _ensure_pool(self) -> Optional[WorkerPool]:
        """The pipeline's persistent pool, created lazily (None if impossible)."""
        with self._lock:
            if self._pool is not None and not self._pool.closed:
                return self._pool
            if self._pool_failed:
                return None
            try:
                self._pool = WorkerPool(width=self.workers)
            except PoolUnavailableError:
                self._pool_failed = True
                logger.warning(
                    "worker pool unavailable on this platform; running in process"
                )
                return None
            return self._pool

    def _run_tasks(self, tasks: List[PoolTask]) -> Optional[list]:
        """Run ``tasks`` on the pool; ``None`` → the caller runs them in process.

        A worker that cannot resolve a workload name (registered after the
        pool forked) triggers one pool refresh — respawned workers inherit
        the current registry — and one retry.  Task exceptions and
        :class:`~repro.engine.workerpool.WorkerCrashError` propagate.
        """
        pool = self._ensure_pool()
        if pool is None:
            return None
        try:
            try:
                return pool.run_tasks(tasks)
            except UnknownWorkloadError:
                pool.refresh()
                for task in tasks:
                    task.attempts = 0
                return pool.run_tasks(tasks)
        except (PoolUnavailableError, UnknownWorkloadError):
            return None
        except RuntimeError:
            if pool.closed:
                return None
            raise

    def _serves_on_pool(self) -> bool:
        """Whether cold recordings and warm replays go to pool workers: the
        store stages and references segments itself (a disk store) and the
        resolved width is above 1."""
        return callable(getattr(self.trace_store, "publish", None)) and (
            resolve_worker_count(self.workers, 1 << 30) > 1
        )

    def start_pool(self) -> None:
        """Fork the whole pool now, if this pipeline serves on one.

        A threaded server calls this before it starts any thread, so the
        fork cannot copy a lock some other thread holds.
        """
        if self._serves_on_pool():
            pool = self._ensure_pool()
            if pool is not None:
                pool.start()

    def pool_stats(self) -> Dict[str, int]:
        """Pool counters for a server's stats endpoint (never a result)."""
        pool = self._pool
        return {
            "workers_alive": len(pool.worker_pids()) if pool is not None else 0,
            "recordings": self.pool_recordings,
            "in_process_fallbacks": self.pool_fallbacks,
            "replays": self.pool_replays,
        }

    def close(self) -> None:
        """Release the persistent pool (idempotent); cached results survive."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------------ batch
    def run(
        self,
        workload_names: Optional[Sequence[str]] = None,
        force: bool = False,
    ) -> PipelineResult:
        """Run (or reuse) the full pipeline over the given workloads.

        Results are cached per requested workload *set* — the key is the
        sorted name tuple, so ``["a", "b"]`` and ``["b", "a"]`` share one
        entry and names containing commas cannot collide.  ``force``
        recomputes.
        """
        from ..workloads import all_workloads

        key: Tuple[str, ...] = (
            tuple(sorted(workload_names)) if workload_names else ("<all>",)
        )
        if not force and key in self._results:
            return self._results[key]
        workloads = all_workloads()
        if workload_names:
            workloads = [w for w in workloads if w.name in workload_names]
        analyses = self.analyze_many(workloads)
        result = PipelineResult(analyses=analyses, tables=build_tables(analyses))
        self._results[key] = result
        return result

    def invalidate(self) -> None:
        """Drop all cached batch results."""
        self._results.clear()

    # ------------------------------------------------------------------ units
    def make_runner(self) -> CaseStudyRunner:
        """A runner wired to this pipeline's shared script and trace caches."""
        return CaseStudyRunner(
            script_cache=self.script_cache,
            trace_store=self.trace_store,
            **self._runner_kwargs,
        )

    def analyze(self, workload) -> ApplicationAnalysis:
        """Run the four-stage schedule for a single workload, in process."""
        return run_stages(self.make_runner(), workload)

    def analyze_with_speculation(self, workload, executor):
        """Four-stage analysis plus the speculative re-execution stage.

        Returns ``(analysis, speculation)`` where ``speculation`` is the
        :class:`~repro.parallel.speculative.WorkloadSpeculation` produced by
        validating every DOALL-verdict nest against a real (worker-isolated)
        parallel replay.
        """
        from .stages import default_stages, speculation_stage

        state: Dict[str, object] = {}
        stages = default_stages() + (speculation_stage(executor),)
        analysis = run_stages(self.make_runner(), workload, stages=stages, state=state)
        return analysis, state["speculation"]

    def analyze_many(self, workloads: Sequence) -> List[ApplicationAnalysis]:
        """Analyze a batch of workloads, on the worker pool when it applies.

        The pool needs every workload to be reconstructible by name in the
        worker (i.e. registered in the workload registry) and a resolved
        width above 1; otherwise, or when the pool cannot run the batch, the
        batch runs serially in-process.
        """
        workloads = list(workloads)
        if not workloads:
            return []
        if resolve_worker_count(self.workers, len(workloads)) > 1 and (
            self._registry_reconstructible(workloads)
        ):
            analyses = self._run_on_pool(workloads)
            if analyses is not None:
                return analyses
        runner = self.make_runner()
        return [run_stages(runner, workload) for workload in workloads]

    def fetch_trace(self, workload, mask: Optional[int] = None) -> Optional[Trace]:
        """The trace a live pool worker recorded for ``workload``, or ``None``.

        Batch workers keep the traces they record.  When a live worker
        reported holding ``workload``'s fingerprint and its trace covers
        ``mask``, the trace is fetched from that worker and put into the
        parent store.  Without a pool, or when no worker holds a covering
        trace (workers running :meth:`record_on_pool` tasks keep none), this
        returns ``None`` and the caller records.
        """
        pool = self._pool
        if pool is None:
            return None
        fingerprint = workload_fingerprint(workload)
        if not any(fingerprint in keys for keys in pool.holdings().values()):
            return None
        mask = mask if mask is not None else pipeline_trace_mask()
        trace = self.trace_store.find(fingerprint, mask)
        if trace is not None:
            return trace
        task = PoolTask(
            fn=fetch_trace_task,
            args=(fingerprint, mask),
            cache_key=fingerprint,
            label=workload.name,
        )
        try:
            trace = pool.run_tasks([task])[0]
        except RuntimeError as exc:  # closed pool, crashed worker
            logger.warning("could not fetch a trace from the worker pool (%s)", exc)
            return None
        if trace is not None:
            self.trace_store.put(trace)
        return trace

    def record_on_pool(self, workload, mask: Optional[int] = None):
        """Record a trace covering ``mask`` on a pool worker and serve it.

        The caller has already missed in the store (this does not look
        again, so a cold key counts one miss).  Applies when the store stages its own segments (a
        :class:`~repro.serve.store.DiskTraceStore`) and the resolved width
        is above 1; otherwise this returns ``None`` at once.  The worker
        records, digests and encodes the trace into a temp segment file in
        the store's root and hands back ``(tmp, row)``; this process only
        publishes it (:meth:`~repro.serve.store.DiskTraceStore.publish`), so
        the guest, the digest and the encode never hold this process's GIL.
        Registered workloads ship by name, ad-hoc ones by value.

        ``None`` also means "record in process": the pool is unavailable,
        or the workload cannot be pickled.  Guest exceptions propagate
        unchanged, and a task that crashed its worker raises
        :class:`~repro.engine.workerpool.WorkerCrashError` — it is never
        re-run here.
        """
        if not self._serves_on_pool():
            return None
        mask = mask if mask is not None else pipeline_trace_mask()
        ref = self._shipped_workload(workload)
        store = self.trace_store
        staged = None
        if ref is not None:
            task = PoolTask(
                fn=_record_segment_task,
                args=(store.stage, ref, mask, str(store.root), store.chunk_events),
                label=workload.name,
            )
            staged = self._run_tasks([task])
        with self._lock:
            if staged is None:
                self.pool_fallbacks += 1
                return None
            self.pool_recordings += 1
        return self.trace_store.publish(*staged[0])

    def replay_on_pool(self, workload, spec) -> Optional[dict]:
        """Serve replaying ``spec`` on a pool worker; ``RunResult.to_dict()``.

        Applies when :meth:`record_on_pool` does (a disk store, width above
        1), the store holds a covering on-disk segment (its
        ``segment_ref``) and the spec neither commits results nor
        speculates — both belong to the calling session.  The task carries
        the fingerprint as its cache key and the segment reference as its
        heavy payload, so each worker attaches a segment once and later
        requests for it prefer a worker that holds it.  The worker runs the
        session's own replay code and returns the result; this process
        never opens or decodes the segment, and counts one store hit.

        ``None`` means "replay in process": the pool does not apply or is
        unavailable, or the worker refused the segment — then the store's
        memory tier forgets the fingerprint, so the caller's ``find``
        re-opens and re-checks the segment (a corrupt one is dropped and
        counted, and the key records again).  Guest-side exceptions
        propagate, and a task that crashed its worker raises
        :class:`~repro.engine.workerpool.WorkerCrashError` — it is never
        re-run here.
        """
        from ..api.spec import SPECULATE

        if (
            spec.commit_suffix() is not None
            or SPECULATE in spec.tracers
            or not self._serves_on_pool()
        ):
            return None
        fingerprint = workload_fingerprint(workload)
        segment = self.trace_store.segment_ref(fingerprint, spec.combined_mask())
        ref = self._shipped_workload(workload) if segment is not None else None
        if ref is None:
            return None
        task = PoolTask(
            fn=_replay_task,
            args=(ref, spec),
            cache_key=fingerprint,
            heavy=lambda: {"trace_ref": segment},
            label=workload.name,
        )
        served = self._run_tasks([task])
        if served is None:
            return None
        if served[0] is None:
            self.trace_store.forget(fingerprint)
            return None
        self.trace_store.count_hit()
        with self._lock:
            self.pool_replays += 1
        return served[0]

    # ------------------------------------------------------------------ fanout
    def _shipped_workload(self, workload):
        """How a one-workload pool task ships ``workload``: by registered
        name when the registry rebuilds it identically, else by value;
        ``None`` when it cannot be pickled (the caller runs in process)."""
        if self._registry_reconstructible([workload]):
            return workload.name
        try:
            pickle.dumps(workload)
        except Exception:  # noqa: BLE001 - any pickling failure → in process
            return None
        return workload

    @staticmethod
    def _registry_reconstructible(workloads: Sequence) -> bool:
        """True when every workload can be rebuilt *identically* by name.

        Workers re-create workloads from the registry, so a caller-supplied
        instance must match its registered factory's fingerprint (same name
        AND same sources) — not merely share a name with it.
        """
        from ..workloads import get_workload, workload_names

        known = set(workload_names())
        for workload in workloads:
            if workload.name not in known:
                return False
            if workload_fingerprint(get_workload(workload.name)) != workload_fingerprint(workload):
                return False
        return True

    def _pool_task(self, workload) -> PoolTask:
        """Build one analysis task for ``workload``.

        The heavy payload (trace + bytecode) is assembled lazily at dispatch
        and only shipped to workers that do not already hold this
        workload's fingerprint.
        """
        fingerprint = workload_fingerprint(workload)
        mask = pipeline_trace_mask()

        def heavy() -> dict:
            trace = None
            trace_ref = None
            # A disk-backed store hands out (path, digest) segment
            # references: the worker opens (mmaps) the shared segment
            # itself, so the pipe carries zero trace bytes.
            segment_ref = getattr(self.trace_store, "segment_ref", None)
            if segment_ref is not None:
                trace_ref = segment_ref(fingerprint, mask)
            if trace_ref is None:
                trace = self.trace_store.find(fingerprint, mask)
                if trace is not None and not isinstance(trace, Trace):
                    trace = trace.load()  # a source's mmap cannot be pickled
            bytecode = prepare_workload_bytecode(
                self.script_cache, self.bytecode_cache, workload
            )
            return {"trace": trace, "trace_ref": trace_ref, "bytecode": bytecode}

        return PoolTask(
            fn=_analysis_task,
            args=(workload.name, self._runner_kwargs),
            cache_key=fingerprint,
            heavy=heavy,
            label=workload.name,
        )

    def _run_on_pool(self, workloads: Sequence) -> Optional[List[ApplicationAnalysis]]:
        """Analyze ``workloads`` on the persistent pool; ``None`` → run serially."""
        return self._run_tasks([self._pool_task(workload) for workload in workloads])
