"""Batch driver for the case-study methodology.

:class:`AnalysisPipeline` replaces two pieces of ad-hoc seed machinery:

* the ``_CASE_STUDY_CACHE`` module global in ``experiments/registry.py`` —
  result caching is now owned by a pipeline object (keyed by the requested
  workload set), so tests and tools can hold independent pipelines;
* the serial ``for workload in workloads`` loop in
  ``analysis/casestudy.py`` — batches fan out across workloads with
  ``multiprocessing`` when more than one CPU is available.

Workloads are independent by construction (each analysis run uses a fresh
browser session and virtual clock), so fan-out cannot change results — the
pipeline ships workload *names* to forked workers and reassembles the
analyses in request order.  When the pipeline's :class:`TraceStore` already
holds a trace for a workload, that (plain-data, picklable) trace ships with
the payload and the worker replays it instead of re-executing the guest.
Traces the workers record flow *back*: each worker returns any trace it had
to record alongside its analysis and the pipeline puts it into the parent
store, so no workload is ever recorded twice across batches.

Two fan-out backends exist.  The default forks a throwaway
``multiprocessing.Pool`` per batch; with ``use_pool=True`` (or
``REPRO_ENGINE_POOL=1``) batches run on the pipeline's persistent
:class:`~repro.engine.workerpool.WorkerPool`, whose long-lived workers keep
bytecode and traces cached across batches (see :mod:`repro.engine.workerpool`).
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.casestudy import ApplicationAnalysis, CaseStudyRunner, pipeline_trace_mask
from ..analysis.tables import CaseStudyTables, build_tables
from ..jsvm.hooks import Trace
from .cache import BytecodeCache, ScriptCache, TraceStore, workload_fingerprint
from .stages import prepare_workload_bytecode, run_stages
from .workerpool import (
    PoolTask,
    PoolUnavailableError,
    UnknownWorkloadError,
    WorkerPool,
    analyze_task,
    pool_env_enabled,
    record_task,
    reset_worker_signals,
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
    environment variable; otherwise the CPU count.  The result is clamped to
    ``task_count`` and is at least 1.
    """
    if workers is None:
        env_value = os.environ.get(WORKERS_ENV_VAR)
        if env_value is not None:
            try:
                workers = int(env_value)
            except ValueError:
                workers = None
        if workers is None:
            workers = os.cpu_count() or 1
    return max(1, min(workers, task_count))


def _analyze_in_worker(payload) -> Tuple[ApplicationAnalysis, Optional[Trace]]:
    """Fan-out entry point: analyze one workload by name in a fresh process.

    ``trace`` is an optional pre-recorded :class:`~repro.jsvm.hooks.Trace`
    shipped from the parent's store; when present the worker seeds its own
    store with it and the replay-backed stages run without any guest
    execution in the worker.  ``bytecode`` is the parent's compiled-script
    payload (``{path: bytes}``): the worker absorbs it into its own
    :class:`BytecodeCache` so freshly parsed scripts come pre-lowered.

    Returns ``(analysis, recorded_trace)`` where ``recorded_trace`` is the
    union-mask trace this worker had to record because the parent shipped
    none — the parent puts it into its own store so later batches (and the
    serial path) replay instead of re-executing the guest.
    """
    name, runner_kwargs, trace, bytecode = payload
    from ..workloads import get_workload

    workload = get_workload(name)
    trace_store = TraceStore()
    if trace is not None:
        trace_store.put(trace)
    bytecode_cache = BytecodeCache()
    bytecode_cache.absorb(workload.scripts, bytecode)
    runner = CaseStudyRunner(
        script_cache=ScriptCache(bytecode_cache=bytecode_cache),
        trace_store=trace_store,
        **runner_kwargs,
    )
    analysis = run_stages(runner, workload)
    recorded = None
    if trace is None:
        recorded = trace_store.find(workload_fingerprint(workload), pipeline_trace_mask())
    return analysis, recorded


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
    use_pool:
        ``True`` routes fan-out (and trace recording) through a persistent
        :class:`~repro.engine.workerpool.WorkerPool` owned by this pipeline;
        ``False`` forces the legacy fork-per-batch pool; ``None`` (default)
        defers to the ``REPRO_ENGINE_POOL`` environment variable.
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
        use_pool: Optional[bool] = None,
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
        self.use_pool = use_pool
        self._pool: Optional[WorkerPool] = None
        self._pool_failed = False

    # ------------------------------------------------------------------ pool
    def pool_active(self) -> bool:
        """Whether batches should run on the persistent worker pool."""
        if self.use_pool is not None:
            return self.use_pool
        return pool_env_enabled()

    def _ensure_pool(self) -> Optional[WorkerPool]:
        """The pipeline's persistent pool, created lazily (None if impossible)."""
        if self._pool is not None and not self._pool.closed:
            return self._pool
        if self._pool_failed:
            return None
        try:
            self._pool = WorkerPool(width=self.workers)
        except PoolUnavailableError:
            self._pool_failed = True
            logger.warning(
                "persistent worker pool unavailable on this platform; "
                "falling back to fork-per-batch fan-out"
            )
            return None
        return self._pool

    def shared_pool(self) -> Optional[WorkerPool]:
        """The live pool for co-tenants (speculation chunks), if pool mode is on."""
        if not self.pool_active():
            return None
        return self._ensure_pool()

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
        """Analyze a batch of workloads, fanning out when it pays off.

        Fan-out requires every workload to be reconstructible by name in the
        worker process (i.e. registered in the workload registry); otherwise,
        or when only one worker resolves, the batch runs serially in-process.
        """
        workloads = list(workloads)
        if not workloads:
            return []
        workers = resolve_worker_count(self.workers, len(workloads))
        fan_out_ok = workers > 1 and self._registry_reconstructible(workloads)
        if fan_out_ok and self.pool_active():
            analyses = self._fan_out_pooled(workloads)
            if analyses is not None:
                return analyses
        if fan_out_ok:
            analyses = self._fan_out(workloads, workers)
            if analyses is not None:
                return analyses
        runner = self.make_runner()
        return [run_stages(runner, workload) for workload in workloads]

    def record_trace_pooled(self, workload, mask=None) -> Optional[Trace]:
        """Record (or replay from a worker cache) one trace on the pool.

        Returns ``None`` when the pool path does not apply — pool mode off,
        pool unavailable, or the workload not reconstructible by name — and
        the caller should record in-process instead.  The returned trace is
        already ``put`` into the parent store.
        """
        if not self.pool_active():
            return None
        if not self._registry_reconstructible([workload]):
            return None
        pool = self._ensure_pool()
        if pool is None:
            return None
        if mask is None:
            mask = pipeline_trace_mask()
        existing = self.trace_store.find(workload_fingerprint(workload), mask)
        if existing is not None:
            return existing
        task = self._pool_task(workload, record_task, extra_args=(mask,))
        try:
            try:
                trace = pool.run_tasks([task])[0]
            except UnknownWorkloadError:
                pool.refresh()
                task.attempts = 0
                trace = pool.run_tasks([task])[0]
        except (PoolUnavailableError, UnknownWorkloadError, RuntimeError) as exc:
            if pool.closed or isinstance(exc, (PoolUnavailableError, UnknownWorkloadError)):
                logger.warning("pool trace recording unavailable (%s); recording in-process", exc)
                return None
            raise
        if trace is not None:
            self.trace_store.put(trace)
        return trace

    # ------------------------------------------------------------------ fanout
    @staticmethod
    def _registry_reconstructible(workloads: Sequence) -> bool:
        """True when every workload can be rebuilt *identically* by name.

        Workers re-create workloads from the registry, so a caller-supplied
        instance must match its registered factory's fingerprint (same name
        AND same sources) — not merely share a name with it.
        """
        from ..workloads import get_workload, workload_names
        from .cache import workload_fingerprint

        known = set(workload_names())
        for workload in workloads:
            if workload.name not in known:
                return False
            if workload_fingerprint(get_workload(workload.name)) != workload_fingerprint(workload):
                return False
        return True

    def _pool_task(self, workload, fn, extra_args: tuple = ()) -> PoolTask:
        """Build one persistent-pool task for ``workload``.

        The heavy payload (trace + bytecode) is assembled lazily at dispatch
        and only shipped to workers that do not already cache this
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
            bytecode = prepare_workload_bytecode(
                self.script_cache, self.bytecode_cache, workload
            )
            return {"trace": trace, "trace_ref": trace_ref, "bytecode": bytecode}

        return PoolTask(
            fn=fn,
            args=(workload.name, self._runner_kwargs) + extra_args,
            cache_key=fingerprint,
            heavy=heavy,
            label=workload.name,
        )

    def _fan_out_pooled(self, workloads: Sequence) -> Optional[List[ApplicationAnalysis]]:
        """Analyze ``workloads`` on the persistent pool; ``None`` on fallback.

        A worker that cannot resolve a workload name (registered after the
        pool forked) triggers one pool refresh — respawned workers inherit
        the current registry — before falling back to the legacy
        fork-per-batch path, which forks fresh and always sees the registry.
        """
        pool = self._ensure_pool()
        if pool is None:
            return None
        tasks = [self._pool_task(workload, analyze_task) for workload in workloads]
        try:
            try:
                outcomes = pool.run_tasks(tasks)
            except UnknownWorkloadError:
                pool.refresh()
                for task in tasks:
                    task.attempts = 0
                outcomes = pool.run_tasks(tasks)
        except (PoolUnavailableError, UnknownWorkloadError):
            return None
        except RuntimeError:
            if pool.closed:
                return None
            raise
        analyses = []
        for workload, outcome in zip(workloads, outcomes):
            analysis, recorded = outcome
            if recorded is not None and not self.trace_store.has(
                workload_fingerprint(workload), recorded.mask
            ):
                self.trace_store.put(recorded)
            analyses.append(analysis)
        return analyses

    def _fan_out(self, workloads: Sequence, workers: int) -> Optional[List[ApplicationAnalysis]]:
        """Analyze ``workloads`` in a fork pool; ``None`` if the environment
        cannot fan out (no fork / no pickling), in which case the caller runs
        serially.  Analysis errors raised by workers propagate unchanged.
        """
        import multiprocessing
        import pickle

        mask = pipeline_trace_mask()
        payloads = []
        for workload in workloads:
            trace = self.trace_store.find(workload_fingerprint(workload), mask)
            bytecode = prepare_workload_bytecode(
                self.script_cache, self.bytecode_cache, workload
            )
            payloads.append((workload.name, self._runner_kwargs, trace, bytecode))
        try:
            context = multiprocessing.get_context("fork")
            pool = context.Pool(processes=workers, initializer=reset_worker_signals)
        except (ImportError, OSError, ValueError):
            return None
        with pool:
            try:
                # One app per task: per-app times differ widely, and the default
                # chunking pairs neighbours, which unbalances the workers.
                outcomes = pool.map(_analyze_in_worker, payloads, chunksize=1)
            except pickle.PicklingError:
                # Results or payloads did not survive the process boundary.
                # The workers may already have recorded traces — those died
                # with the pool, but any traces the *parent* store gained
                # before the batch still replay on the serial retry.
                logger.warning(
                    "fan-out results did not pickle; re-running %d workload(s) "
                    "serially (parent-store traces will replay, worker-recorded "
                    "ones are lost)",
                    len(workloads),
                )
                return None
        analyses = []
        for workload, outcome in zip(workloads, outcomes):
            analysis, recorded = outcome
            if recorded is not None and not self.trace_store.has(
                workload_fingerprint(workload), recorded.mask
            ):
                self.trace_store.put(recorded)
            analyses.append(analysis)
        return analyses
