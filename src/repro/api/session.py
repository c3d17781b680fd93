"""The one public entry layer: a context-managed analysis session.

:class:`AnalysisSession` owns the resources the seed code scattered across
``JSCeres``, ``experiments.registry`` and a module global: the results
repository, the remote publisher, the shared source→AST
:class:`~repro.engine.cache.ScriptCache` and the batch
:class:`~repro.engine.pipeline.AnalysisPipeline`.  One ``session.run(workload,
spec)`` replaces the four near-duplicate ``JSCeres.run_*`` methods: the
:class:`~repro.api.spec.RunSpec` names the tracers, any subset of which
attaches to a single :class:`~repro.jsvm.hooks.HookBus` in one pass (tracers
are clock-neutral, so composed runs produce numbers identical to staged
runs), and every run returns the same
:class:`~repro.api.results.RunResult` envelope.

Typical use::

    from repro.api import AnalysisSession, RunSpec

    with AnalysisSession() as session:
        result = session.run("fluidSim", RunSpec.lightweight() | RunSpec.loop_profile())
        print(result.report_text)
        portable = result.to_dict()          # lossless JSON round trip

Workloads are referenced by registry name (resolved lazily — importing this
module pulls in **no** workload modules) or passed as objects implementing
the small protocol of :mod:`repro.workloads.base`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..browser.gecko_profiler import GeckoProfiler
from ..ceres.dependence import DependenceAnalyzer, DependenceReport
from ..ceres.lightweight import LightweightProfiler
from ..ceres.loop_profiler import LoopProfiler
from ..ceres.proxy import InstrumentingProxy, execute_and_exercise, host_and_intercept
from ..analysis.casestudy import pipeline_dropped_methods, pipeline_trace_mask
from ..ceres.report import render_dependence, render_lightweight, render_loop_profiles
from ..ceres.repository import RemotePublisher, ResultsRepository
from ..engine.cache import ScriptCache, TraceStore, workload_fingerprint
from ..engine.pipeline import AnalysisPipeline, PipelineResult
from ..jsvm.tiers import validate_tier
from ..jsvm.hooks import (
    ReplayClock,
    Trace,
    TraceMismatchError,
    TraceRecorder,
    TraceReplayer,
)
from .results import RunArtifacts, RunResult
from .spec import (
    DEPENDENCE,
    GECKO,
    LIGHTWEIGHT,
    LOOP_PROFILE,
    SPECULATE,
    RunSpec,
    UnknownFocusLineError,
)


class AnalysisSession:
    """Owns repository, publisher, script cache and pipeline for a run series.

    Parameters mirror the objects the session owns; everything is optional
    and defaults to a fresh instance, so ``AnalysisSession()`` is a complete,
    isolated environment.  Sessions are context managers::

        with AnalysisSession() as session:
            ...

    ``close()`` drops the pipeline's cached batch results; the session object
    itself holds no OS resources.
    """

    def __init__(
        self,
        repository: Optional[ResultsRepository] = None,
        publisher: Optional[RemotePublisher] = None,
        script_cache: Optional[ScriptCache] = None,
        pipeline: Optional[AnalysisPipeline] = None,
        workers: Optional[int] = None,
        cores: int = 8,
        coverage_target: float = 0.80,
        max_nests_per_app: int = 5,
        trace_store: Optional[TraceStore] = None,
        default_tier: Optional[str] = None,
    ) -> None:
        #: Execution-tier policy for runs whose spec leaves ``tier`` unset
        #: (``None`` = the VM default, honouring ``REPRO_FORCE_CLOSURE_TIER``).
        self.default_tier = validate_tier(default_tier)
        self.repository = repository if repository is not None else ResultsRepository()
        self.publisher = publisher if publisher is not None else RemotePublisher()
        self.script_cache = script_cache if script_cache is not None else ScriptCache()
        if pipeline is not None:
            self.pipeline = pipeline
            #: The session's trace store is always the pipeline's, so batch
            #: recordings and ``RunSpec.record()/replay()`` share one cache.
            self.trace_store = pipeline.trace_store
        else:
            self.trace_store = trace_store if trace_store is not None else TraceStore()
            self.pipeline = AnalysisPipeline(
                workers=workers,
                script_cache=self.script_cache,
                cores=cores,
                coverage_target=coverage_target,
                max_nests_per_app=max_nests_per_app,
                trace_store=self.trace_store,
            )
        self.closed = False

    # ------------------------------------------------------------- lifecycle
    def __enter__(self) -> "AnalysisSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Drop cached batch results, release the worker pool, close the store.

        Closing the trace store flushes any disk-backed index (see
        :class:`~repro.serve.store.DiskTraceStore`); for the in-memory store
        it is a no-op.  The store's traces are *not* dropped — a disk store
        handed to a later session still serves its recordings.  The
        pipeline's persistent worker pool (if one was spawned) shuts down
        here; ``close()`` is idempotent end to end.
        """
        self.pipeline.invalidate()
        close_pipeline = getattr(self.pipeline, "close", None)
        if callable(close_pipeline):
            close_pipeline()
        close_store = getattr(self.trace_store, "close", None)
        if callable(close_store):
            close_store()
        self.closed = True

    # ------------------------------------------------------------- workloads
    @staticmethod
    def resolve_workload(workload: Any):
        """Accept a workload object or a registry name (resolved lazily)."""
        if isinstance(workload, str):
            from ..workloads.base import get_workload

            return get_workload(workload)
        return workload

    # ------------------------------------------------------------------ runs
    def run(self, workload: Any, spec: Optional[RunSpec] = None) -> RunResult:
        """Run ``workload`` once with the tracers named by ``spec``.

        All requested tracers attach to one hook bus and observe the same
        single pass; an empty spec is the uninstrumented baseline.  With
        ``spec.replay()`` the tracers are driven from a recorded trace
        instead (no guest execution); with ``spec.record()`` the live run
        also captures a trace into the session's store.  Returns the uniform
        :class:`~repro.api.results.RunResult` envelope.
        """
        if self.closed:
            raise RuntimeError("AnalysisSession is closed")
        spec = spec if spec is not None else RunSpec.lightweight()
        workload = self.resolve_workload(workload)
        if spec.trace_policy == "replay":
            return self._run_replayed(workload, spec)
        return self._run_live(workload, spec)

    def _run_live(self, workload: Any, spec: RunSpec) -> RunResult:
        """One live instrumented pass (optionally also recording a trace)."""
        # Steps 1-3 of Figure 5: host and intercept every script first, so
        # the loop registry is populated before the dependence focus is
        # resolved (parsing never touches the virtual clock).
        proxy, documents = self._host_and_intercept(workload, spec)
        focus_loop_id = self._resolve_focus(spec, proxy.registry, workload.name)

        # The composed tracer set observes one pass on one bus.
        composed = self._compose_tracers(spec, proxy.registry, focus_loop_id)
        lightweight, gecko, loop_profiler, analyzer = composed
        tracers = [tracer for tracer in composed if tracer is not None]
        recorder = None
        if spec.trace_policy == "record":
            # Record the pipeline's union mask (a superset of any composed
            # spec), so the stored trace replays every future mode.
            recorder = TraceRecorder(
                mask=pipeline_trace_mask() | spec.combined_mask(),
                workload=workload.name,
                fingerprint=workload_fingerprint(workload),
                drop_methods=pipeline_dropped_methods(),
            )
            tracers.append(recorder)

        def start(browser) -> None:
            if recorder is not None:
                recorder.mark_start(browser.clock)
            if lightweight is not None:
                lightweight.start(browser.clock)

        # Step 4: execute the documents and exercise the application.
        tier = spec.tier if spec.tier is not None else self.default_tier
        browser = execute_and_exercise(workload, documents, tracers, tier=tier, on_start=start)
        if lightweight is not None:
            lightweight.stop(browser.clock)

        provenance = "live"
        trace = None
        if recorder is not None:
            recorder.mark_end(browser.clock)
            trace = self.trace_store.put(recorder.trace())
            provenance = f"recorded:{trace.digest()[:12]}"

        return self._finalize(
            workload,
            spec,
            proxy,
            end_ms=browser.clock.now(),
            lightweight=lightweight,
            gecko=gecko,
            loop_profiler=loop_profiler,
            analyzer=analyzer,
            provenance=provenance,
            trace=trace,
        )

    def _run_replayed(
        self, workload: Any, spec: RunSpec, trace: Optional[Any] = None
    ) -> RunResult:
        """Satisfy ``spec`` by replaying a recorded trace — no guest execution.

        The proxy still intercepts (parses) the documents so the loop
        registry, report rendering and results-repository commit are built
        exactly as in a live run; only the *execution* is replaced by the
        trace replay.

        ``trace`` may be an in-memory :class:`Trace` or any other chunk
        source (e.g. :class:`~repro.jsvm.hooks.TraceFileSource`, which
        replays in memory bounded by its chunk size).  Without one, a pool
        worker serves the run when the pipeline can
        (:meth:`~repro.engine.pipeline.AnalysisPipeline.replay_on_pool`:
        a disk store holding a covering segment, width above 1); else the
        store's trace replays here, recorded first on a miss.
        """
        if trace is None:
            served = self.pipeline.replay_on_pool(workload, spec)
            if served is not None:
                return RunResult.from_dict(served)
        proxy, _documents = self._host_and_intercept(workload, spec)  # never executed
        focus_loop_id = self._resolve_focus(spec, proxy.registry, workload.name)

        fingerprint = workload_fingerprint(workload)
        if trace is not None:
            if trace.fingerprint and trace.fingerprint != fingerprint:
                raise TraceMismatchError(
                    f"trace was recorded for workload {trace.workload!r} "
                    f"(fingerprint {trace.fingerprint[:12]}...) but replay was "
                    f"requested for {workload.name!r} (fingerprint {fingerprint[:12]}...)"
                )
        else:
            trace = self.trace_store.find(fingerprint, spec.combined_mask())
            if trace is None:
                trace = self._record(workload, None)

        replayer = TraceReplayer(trace)
        composed = self._compose_tracers(spec, proxy.registry, focus_loop_id)
        lightweight, gecko, loop_profiler, analyzer = composed
        tracers = [tracer for tracer in composed if tracer is not None]

        if lightweight is not None:
            lightweight.start(replayer.clock)  # clock sits at trace.start_ms
        replayer.replay(tracers)
        if lightweight is not None:
            lightweight.stop(replayer.clock)  # clock sits at trace.end_ms

        return self._finalize(
            workload,
            spec,
            proxy,
            end_ms=trace.end_ms,
            lightweight=lightweight,
            gecko=gecko,
            loop_profiler=loop_profiler,
            analyzer=analyzer,
            provenance=f"replay:{trace.digest()[:12]}",
            trace=trace,
        )

    @staticmethod
    def _compose_tracers(spec: RunSpec, registry, focus_loop_id: Optional[int]) -> tuple:
        """``(lightweight, gecko, loop_profiler, analyzer)`` for ``spec``, None
        where not requested; each tracer has one mode, live and replayed."""
        wanted = spec.tracers
        return (
            LightweightProfiler() if LIGHTWEIGHT in wanted else None,
            GeckoProfiler() if GECKO in wanted else None,
            LoopProfiler(registry=registry) if LOOP_PROFILE in wanted else None,
            DependenceAnalyzer(registry=registry, focus_loop_id=focus_loop_id)
            if DEPENDENCE in wanted
            else None,
        )

    def _host_and_intercept(self, workload: Any, spec: RunSpec) -> tuple:
        """``(proxy, documents)`` for ``spec``'s mode, committing to this session."""
        return host_and_intercept(
            workload,
            spec.instrumentation_mode(),
            script_cache=self.script_cache,
            repository=self.repository,
            publisher=self.publisher,
        )

    def _finalize(
        self,
        workload: Any,
        spec: RunSpec,
        proxy: InstrumentingProxy,
        end_ms: float,
        lightweight,
        gecko,
        loop_profiler,
        analyzer,
        provenance: str,
        trace: Optional[Trace],
    ) -> RunResult:
        """Steps 5-6: gather payloads, render the report, commit and publish."""
        payloads: Dict[str, Dict[str, Any]] = {}
        sections: List[str] = []
        artifacts = RunArtifacts(registry=proxy.registry, trace=trace)

        if lightweight is not None:
            result = lightweight.result(ReplayClock(end_ms))
            artifacts.lightweight_result = result
            payloads[LIGHTWEIGHT] = {
                "total_ms": result.total_ms,
                "loops_ms": result.loops_ms,
                "top_level_loop_entries": result.top_level_loop_entries,
            }
            sections.append(
                render_lightweight(
                    workload.name,
                    result,
                    gecko.active_seconds() if gecko is not None else None,
                )
            )
        if gecko is not None:
            artifacts.gecko_profiler = gecko
            payloads[GECKO] = {
                "active_seconds": gecko.active_seconds(),
                "active_ms": gecko.profile.active_ms,
                "total_sampled_ms": gecko.profile.total_sampled_ms,
                "samples": gecko.profile.sample_count,
                "sample_interval_ms": gecko.sample_interval_ms,
            }
            if lightweight is None:
                sections.append(self._render_gecko(workload.name, payloads[GECKO]))
        if loop_profiler is not None:
            artifacts.loop_profiler = loop_profiler
            payloads[LOOP_PROFILE] = self._loop_payload(loop_profiler)
            sections.append(
                render_loop_profiles(workload.name, list(loop_profiler.profiles.values()))
            )
        if analyzer is not None:
            report = analyzer.report()
            artifacts.dependence_report = report
            payloads[DEPENDENCE] = self._dependence_payload(report, proxy.registry)
            sections.append(render_dependence(workload.name, report, proxy.registry.loop_label))

        if SPECULATE in spec.tracers:
            # Separate passes by construction: the four-stage analysis feeds
            # the speculation gate, and each eligible nest re-runs the
            # workload with a speculation controller — the composed main pass
            # above is never perturbed.
            speculation = self._run_speculation(workload, spec)
            payloads[SPECULATE] = speculation.to_payload()
            from ..parallel.speculative import render_speculation

            sections.append(render_speculation(workload.name, speculation))

        report_text = "\n\n".join(sections)
        commit_id = None
        suffix = spec.commit_suffix()
        if suffix is not None:
            commit_id = proxy.collect_results(
                f"{workload.name}-{suffix}", report_text, end_ms
            )

        return RunResult(
            workload=workload.name,
            fingerprint=workload_fingerprint(workload),
            modes=spec.modes(),
            payloads=payloads,
            report_text=report_text,
            commit_id=commit_id,
            clock_seconds=end_ms / 1000.0,
            spec=spec.to_dict(),
            provenance=provenance,
            artifacts=artifacts,
        )

    # ----------------------------------------------------------------- traces
    def record_trace(self, workload: Any, mask: Optional[int] = None):
        """Execute ``workload`` once and store a trace covering ``mask``.

        ``mask`` defaults to the pipeline's union event mask, so the stored
        trace replays every shipped tracer (and every per-nest dependence
        focus).  The trace lands in the session's
        :class:`~repro.engine.cache.TraceStore` and is returned (as the
        store serves it: a disk-backed store hands back the segment's
        source).  A trace already stored is not recorded again.
        """
        if self.closed:
            raise RuntimeError("AnalysisSession is closed")
        workload = self.resolve_workload(workload)
        stored = self.trace_store.find(
            workload_fingerprint(workload),
            mask if mask is not None else pipeline_trace_mask(),
        )
        return stored if stored is not None else self._record(workload, mask)

    def _record(self, workload: Any, mask: Optional[int]):
        """Record ``workload`` after a store miss, without looking again.

        A trace a pool worker recorded during a case-study batch is fetched
        (:meth:`AnalysisPipeline.fetch_trace`).  Otherwise, with a
        disk-backed store the recording runs on a pool worker when one is
        available (:meth:`AnalysisPipeline.record_on_pool`), and in process
        when not.
        """
        trace = self.pipeline.fetch_trace(workload, mask)
        if trace is None:
            trace = self.pipeline.record_on_pool(workload, mask)
        if trace is not None:
            return trace
        trace = self.pipeline.make_runner().record_trace(workload, mask)
        self.trace_store.put(trace)
        return trace

    def replay_trace(self, trace: Any, spec: Optional[RunSpec] = None) -> RunResult:
        """Replay an explicit trace (e.g. loaded from disk) as a full run.

        ``trace`` may be a :class:`Trace` or a streamed source returned by
        :func:`~repro.jsvm.hooks.open_trace_source` — sources replay
        chunk-at-a-time without materializing the event list.

        The trace's fingerprint must match the named workload's current
        sources (:class:`~repro.jsvm.hooks.TraceMismatchError` otherwise), so
        a stale trace can never silently masquerade as an analysis of newer
        code.
        """
        if self.closed:
            raise RuntimeError("AnalysisSession is closed")
        spec = spec if spec is not None else RunSpec.lightweight()
        workload = self.resolve_workload(trace.workload)
        return self._run_replayed(workload, spec, trace=trace)

    # ----------------------------------------------------------- speculation
    def _run_speculation(self, workload, spec: RunSpec):
        """Four-stage analysis + speculative re-execution of DOALL nests."""
        from ..parallel.machine import PAPER_MACHINE
        from ..parallel.speculative import SpeculationOptions, SpeculativeExecutor

        options = SpeculationOptions(
            workers=spec.speculate_workers or PAPER_MACHINE.hardware_threads,
            strategy=spec.speculate_strategy or "block",
            use_processes=spec.speculate_processes,
        )
        executor = SpeculativeExecutor(script_cache=self.script_cache, options=options)
        _analysis, speculation = self.pipeline.analyze_with_speculation(workload, executor)
        return speculation

    # ------------------------------------------------------------ case study
    def case_study(
        self,
        workload_names: Optional[List[str]] = None,
        force: bool = False,
    ) -> PipelineResult:
        """Run (or reuse) the batch case-study pipeline this session owns."""
        if self.closed:
            raise RuntimeError("AnalysisSession is closed")
        return self.pipeline.run(workload_names, force=force)

    # ------------------------------------------------------------ experiments
    def experiments(self) -> Dict[str, Any]:
        """The experiment registry bound to this session's pipeline."""
        from ..experiments.registry import build_registry

        return build_registry(session=self)

    def run_experiment(self, experiment_id: str) -> str:
        """Run one registered experiment through this session."""
        registry = self.experiments()
        if experiment_id not in registry:
            raise KeyError(
                f"unknown experiment {experiment_id!r}; known: {sorted(registry)}"
            )
        return registry[experiment_id].run()

    def run_experiments(self, experiment_ids: Optional[List[str]] = None) -> Dict[str, str]:
        """Run several (default: all) experiments; returns id → rendered output."""
        registry = self.experiments()
        selected = list(experiment_ids) if experiment_ids is not None else list(registry)
        unknown = [experiment_id for experiment_id in selected if experiment_id not in registry]
        if unknown:
            raise KeyError(f"unknown experiments {unknown}; known: {sorted(registry)}")
        return {experiment_id: registry[experiment_id].run() for experiment_id in selected}

    # ----------------------------------------------------------------- helpers
    @staticmethod
    def _resolve_focus(spec: RunSpec, registry, workload_name: str) -> Optional[int]:
        if spec.focus_loop_id is not None:
            return spec.focus_loop_id
        if spec.focus_line is None:
            return None
        site = registry.loop_for_line(spec.focus_line)
        if site is None:
            raise UnknownFocusLineError(workload_name, spec.focus_line, registry.loop_lines())
        return site.node_id

    @staticmethod
    def _render_gecko(name: str, payload: Dict[str, Any]) -> str:
        lines = [
            f"Gecko-style sampling profile: {name}",
            "-" * 78,
            f"active time (sampling)  : {payload['active_seconds']:8.2f} s",
            f"sampled time            : {payload['total_sampled_ms'] / 1000.0:8.2f} s",
            f"samples                 : {payload['samples']:8d}",
        ]
        return "\n".join(lines)

    @staticmethod
    def _stats_payload(stats) -> Dict[str, Any]:
        return {
            "count": stats.count,
            "mean": stats.mean,
            "variance": stats.variance,
            "std": stats.std,
            "total": stats.total,
        }

    @classmethod
    def _loop_payload(cls, profiler: LoopProfiler) -> Dict[str, Any]:
        profiles = []
        for profile in profiler.profiles.values():
            profiles.append(
                {
                    "loop_id": profile.loop_id,
                    "label": profile.label,
                    "kind": profile.kind,
                    "line": profile.line,
                    "program": profile.program,
                    "instances": profile.instances,
                    "observed_parents": list(profile.observed_parents),
                    "time_ms": cls._stats_payload(profile.time_stats_ms),
                    "trips": cls._stats_payload(profile.trip_stats),
                }
            )
        return {
            "total_loop_time_ms": profiler.total_loop_time_ms(),
            "profiles": profiles,
        }

    @staticmethod
    def _dependence_payload(report: DependenceReport, registry) -> Dict[str, Any]:
        warnings_payload = []
        for warning in report.warnings:
            warnings_payload.append(
                {
                    "kind": warning.kind.name,
                    "name": warning.name,
                    "dependence_class": warning.dependence_class,
                    "creation_site": warning.creation_site_label,
                    "first_line": warning.first_line,
                    "occurrences": warning.occurrences,
                    "sample_iterations": list(warning.sample_iterations),
                    "rendered": warning.render(registry.loop_label),
                }
            )
        patterns_payload = []
        for pattern in report.patterns.values():
            patterns_payload.append(
                {
                    "name": pattern.name,
                    "target_kind": pattern.target_kind,
                    "creation_site_label": pattern.creation_site_label,
                    "total_writes": pattern.total_writes,
                    "total_reads": pattern.total_reads,
                    "compound_writes": pattern.compound_writes,
                    "flow_dependences": pattern.flow_dependences,
                    "iterations_with_writes": len(pattern.writes_by_iteration),
                    "iterations_with_reads": len(pattern.reads_by_iteration),
                    "writes_are_disjoint": pattern.writes_are_disjoint(),
                    "overlapping_write_targets": sorted(pattern.overlapping_write_targets()),
                    "truncated": pattern.truncated,
                }
            )
        return {
            "focus_loop_id": report.focus_loop_id,
            "focus_loop_label": report.focus_loop_label,
            "iterations_observed": report.iterations_observed,
            "warnings": warnings_payload,
            "recursion_warnings": [
                {"loop_id": recursion.loop_id, "label": recursion.loop_label}
                for recursion in report.recursion_warnings
            ],
            "patterns": patterns_payload,
        }
