"""Per-application case-study pipeline (Section 3's four steps).

For one workload the pipeline mirrors the paper's methodology:

1. lightweight profiling + Gecko-style sampling → total / active / in-loop
   time (one Table 2 row);
2. loop profiling (plus the nest observer) → identify the hot top-level loop
   nests that together cover at least two thirds of the loop time;
3. dependence analysis focused on each hot nest → warnings + access patterns;
4. interpretation: divergence, DOM access, dependence-breaking difficulty and
   parallelization difficulty (one Table 3 row per inspected nest).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..browser.gecko_profiler import GeckoProfiler
from ..ceres.dependence import DependenceAnalyzer, DependenceReport
from ..ceres.ids import IndexRegistry
from ..ceres.lightweight import LightweightProfiler
from ..ceres.loop_profiler import LoopProfile, LoopProfiler
from ..ceres.proxy import InstrumentationMode, execute_and_exercise, host_and_intercept
from ..jsvm.hooks import Trace, TraceRecorder, TraceReplayer
from .amdahl import SpeedupBound
from .difficulty import (
    Difficulty,
    assess_breaking_difficulty,
    assess_parallelization_difficulty,
)
from .divergence import DivergenceLevel, assess_divergence
from .domaccess import DomAccessResult, assess_dom_access
from .observer import NestObservation, NestObserver


#: Every tracer class the staged pipeline (and the session API) can attach.
PIPELINE_TRACER_CLASSES = (
    LightweightProfiler,
    GeckoProfiler,
    LoopProfiler,
    NestObserver,
    DependenceAnalyzer,
)


def pipeline_trace_mask() -> int:
    """The union event mask of every tracer the staged pipeline attaches.

    A trace recorded with this mask replays all four analysis stages (and any
    per-nest dependence focus) without re-executing the workload.
    """
    mask = 0
    for tracer_class in PIPELINE_TRACER_CLASSES:
        mask |= tracer_class.declared_events()
    return mask


def pipeline_dropped_methods() -> tuple:
    """Hook methods no pipeline tracer handles (droppable from recordings).

    Variable *reads* are the big one: they are roughly a third of a union
    trace by volume, but every shipped tracer subscribes to ``EV_VAR`` for
    the writes only.  The drop is declared in the trace, so replaying a
    future read-consuming tracer fails loudly instead of under-counting.
    """
    from ..jsvm.hooks import unhandled_hook_methods

    return unhandled_hook_methods(PIPELINE_TRACER_CLASSES)


@dataclass
class Table2Row:
    """One row of Table 2: running time of a case-study application."""

    name: str
    total_seconds: float
    active_seconds: float
    loops_seconds: float

    def as_dict(self) -> dict:
        return {
            "Name": self.name,
            "Total": round(self.total_seconds, 2),
            "Active": round(self.active_seconds, 2),
            "In Loops": round(self.loops_seconds, 2),
        }


@dataclass
class Table3Row:
    """One row of Table 3: detailed inspection of one hot loop nest."""

    application: str
    nest_label: str
    line: int
    runtime_percent: float
    instances: int
    mean_trips: float
    trips_std: float
    divergence: DivergenceLevel
    dom_access: bool
    breaking: Difficulty
    parallelization: Difficulty

    def as_dict(self) -> dict:
        return {
            "name": self.application,
            "nest": self.nest_label,
            "%": round(self.runtime_percent, 1),
            "instances": self.instances,
            "trips": f"{self.mean_trips:.0f}±{self.trips_std:.0f}",
            "divergence": str(self.divergence),
            "DOM": "yes" if self.dom_access else "no",
            "breaking": str(self.breaking),
            "difficulty": str(self.parallelization),
        }


@dataclass
class NestAnalysis:
    """Everything learned about one hot loop nest."""

    observation: NestObservation
    profile: LoopProfile
    dependence: DependenceReport
    divergence: DivergenceLevel
    dom: DomAccessResult
    breaking: Difficulty
    parallelization: Difficulty
    fraction_of_loop_time: float


@dataclass
class ApplicationAnalysis:
    """Full analysis of one case-study application."""

    name: str
    category: str
    table2: Table2Row
    nests: List[NestAnalysis] = field(default_factory=list)
    speedup: Optional[SpeedupBound] = None

    def table3_rows(self) -> List[Table3Row]:
        rows = []
        for nest in self.nests:
            rows.append(
                Table3Row(
                    application=self.name,
                    nest_label=nest.profile.label,
                    line=nest.profile.line,
                    runtime_percent=nest.fraction_of_loop_time * 100.0,
                    instances=nest.profile.instances,
                    mean_trips=nest.profile.mean_trip_count,
                    trips_std=nest.profile.trip_count_std,
                    divergence=nest.divergence,
                    # Table 3's column counts both DOM and Canvas interaction:
                    # both are non-concurrent browser structures.
                    dom_access=nest.dom.accesses_shared_browser_state,
                    breaking=nest.breaking,
                    parallelization=nest.parallelization,
                )
            )
        return rows


class CaseStudyRunner:
    """Runs the four-step methodology for one or more workloads.

    The runner implements the individual measurement steps; the stage
    *schedule* (and batching across workloads) is owned by
    :mod:`repro.engine` — :meth:`analyze_application` delegates there.
    """

    def __init__(
        self,
        cores: int = 8,
        coverage_target: float = 0.80,
        max_nests_per_app: int = 5,
        script_cache=None,
        trace_store=None,
    ) -> None:
        self.cores = cores
        #: Keep inspecting nests until this fraction of loop time is covered
        #: (the paper inspects "at least two thirds" of each app's loop time).
        self.coverage_target = coverage_target
        self.max_nests_per_app = max_nests_per_app
        #: Optional :class:`repro.engine.cache.ScriptCache` shared across the
        #: runner's (many) instrumented runs of the same sources.
        self.script_cache = script_cache
        #: Optional :class:`repro.engine.cache.TraceStore`; when present, the
        #: replay-backed stages record each workload once per mask superset
        #: and replay every analysis from the stored trace.
        self.trace_store = trace_store

    # ---------------------------------------------------------------- tracing
    def record_trace(
        self,
        workload,
        mask: Optional[int] = None,
        drop_methods: Optional[tuple] = None,
    ) -> Trace:
        """Execute ``workload`` once and capture the requested event mask.

        This is the *only* step of the replay-backed schedule that runs guest
        code; everything downstream replays the returned trace.  By default
        the hook methods no pipeline tracer handles are dropped from the
        recording (declared in the trace, enforced at replay).
        """
        from ..engine.cache import workload_fingerprint

        mask = mask if mask is not None else pipeline_trace_mask()
        if drop_methods is None:
            drop_methods = pipeline_dropped_methods()
        recorder = TraceRecorder(
            mask=mask,
            workload=workload.name,
            fingerprint=workload_fingerprint(workload),
            drop_methods=drop_methods,
        )
        _proxy, documents = host_and_intercept(
            workload, InstrumentationMode.DEPENDENCE, script_cache=self.script_cache
        )
        browser = execute_and_exercise(
            workload,
            documents,
            [recorder],
            on_start=lambda browser: recorder.mark_start(browser.clock),
        )
        recorder.mark_end(browser.clock)
        return recorder.trace()

    def obtain_trace(self, workload, mask: Optional[int] = None) -> Trace:
        """A trace covering ``mask`` for ``workload``: stored, or recorded now."""
        from ..engine.cache import workload_fingerprint

        mask = mask if mask is not None else pipeline_trace_mask()
        if self.trace_store is not None:
            trace = self.trace_store.find(workload_fingerprint(workload), mask)
            if trace is not None:
                return trace
        trace = self.record_trace(workload, mask)
        if self.trace_store is not None:
            self.trace_store.put(trace)
        return trace

    def registry_for(self, workload) -> IndexRegistry:
        """The loop/creation-site registry for ``workload``, without execution.

        Parsing is deterministic (identical source ⇒ identical node ids), so
        the registry built here matches the one the recording run saw — also
        across process boundaries, which is what lets fan-out workers replay
        shipped traces.
        """
        registry = IndexRegistry()
        if self.script_cache is not None:
            for path, source in workload.scripts:
                _program, index = self.script_cache.get(path, source)
                registry.add_index(index)
        else:
            from ..jsvm.parser import parse

            for path, source in workload.scripts:
                registry.add(parse(source, name=path))
        return registry

    # ------------------------------------------------------------------ steps
    def select_hot_nests(self, profiler: LoopProfiler, observer: NestObserver) -> List[LoopProfile]:
        """Pick the top-level nests covering ``coverage_target`` of loop time."""
        top_level = [
            profiler.profiles[loop_id]
            for loop_id in observer.observations
            if loop_id in profiler.profiles
        ]
        top_level.sort(key=lambda p: p.total_time_ms, reverse=True)
        total = sum(p.total_time_ms for p in top_level)
        if total <= 0:
            return top_level[: self.max_nests_per_app]
        selected: List[LoopProfile] = []
        covered = 0.0
        for profile in top_level:
            selected.append(profile)
            covered += profile.total_time_ms
            if covered / total >= self.coverage_target or len(selected) >= self.max_nests_per_app:
                break
        return selected

    def _interpret_nest(
        self,
        report: DependenceReport,
        profile: LoopProfile,
        observation: NestObservation,
        fraction_of_loop_time: float,
    ) -> NestAnalysis:
        """Step 4 for one nest: the shared interpretation of a dependence report."""
        divergence = assess_divergence(observation, profile.mean_trip_count)
        dom = assess_dom_access(observation)
        breaking = assess_breaking_difficulty(report)
        parallelization = assess_parallelization_difficulty(
            breaking, dom, divergence, observation, profile.mean_trip_count
        )
        return NestAnalysis(
            observation=observation,
            profile=profile,
            dependence=report,
            divergence=divergence,
            dom=dom,
            breaking=breaking,
            parallelization=parallelization,
            fraction_of_loop_time=fraction_of_loop_time,
        )

    # ------------------------------------------------------- replayed steps
    def measure_runtime_from_trace(self, workload, trace) -> Table2Row:
        """Step 1 from a recorded trace (no guest execution).

        ``trace`` may be an in-memory :class:`Trace` or any other chunk
        source (:class:`~repro.jsvm.hooks.TraceFileSource`).
        """
        replayer = TraceReplayer(trace)
        lightweight = LightweightProfiler()
        gecko = GeckoProfiler()
        replayer.replay([lightweight, gecko])
        lightweight.stop(replayer.clock)
        result = lightweight.result(replayer.clock)
        return Table2Row(
            name=workload.name,
            total_seconds=trace.end_ms / 1000.0,
            active_seconds=gecko.active_seconds(),
            loops_seconds=result.loops_seconds,
        )

    def profile_loops_from_trace(
        self, workload, trace, registry: Optional[IndexRegistry] = None
    ) -> tuple:
        """Step 2 from a recorded trace; returns ``(registry, profiler, observer)``."""
        registry = registry if registry is not None else self.registry_for(workload)
        replayer = TraceReplayer(trace)
        profiler = LoopProfiler(registry=registry)
        observer = NestObserver(registry=registry)
        replayer.replay([profiler, observer])
        return registry, profiler, observer

    def analyze_nest_from_trace(
        self,
        workload,
        trace: Trace,
        registry: IndexRegistry,
        profile: LoopProfile,
        observation: NestObservation,
        fraction_of_loop_time: float,
    ) -> NestAnalysis:
        """Steps 3-4 for one nest, replayed from the trace (no re-execution)."""
        (nest,) = self.analyze_nests_from_trace(
            workload, trace, registry, [(profile, observation, fraction_of_loop_time)]
        )
        return nest

    def analyze_nests_from_trace(
        self,
        workload,
        trace: Trace,
        registry: IndexRegistry,
        items,
    ) -> List[NestAnalysis]:
        """Steps 3-4 for several nests from **one** pass over the trace.

        ``items`` is a list of ``(profile, observation, fraction)`` triples.
        One focused :class:`DependenceAnalyzer` per nest attaches to a single
        :class:`~repro.jsvm.hooks.TraceReplayer` — the analyzers are
        independent observers, and the creation stamps they write to the
        shared stand-in heap are structurally identical (every analyzer's
        loop stack is driven by the same loop events), so sharing the pass
        produces byte-identical reports at a fraction of the replay cost.
        """
        if not items:
            return []
        replayer = TraceReplayer(trace)
        analyzers = [
            DependenceAnalyzer(registry=registry, focus_loop_id=profile.loop_id)
            for profile, _observation, _fraction in items
        ]
        replayer.replay(analyzers)
        return [
            self._interpret_nest(analyzer.report(), profile, observation, fraction)
            for analyzer, (profile, observation, fraction) in zip(analyzers, items)
        ]

    # ------------------------------------------------------------------ driver
    def analyze_application(self, workload) -> ApplicationAnalysis:
        """Run the full four-stage schedule for one workload."""
        # Imported lazily: the engine schedules this runner's steps.
        from ..engine.stages import run_stages

        return run_stages(self, workload)

    def _maybe_use_inner_loop(
        self,
        workload,
        nest: NestAnalysis,
        profiler: LoopProfiler,
        observation: NestObservation,
        fraction: float,
        analyze,
    ) -> NestAnalysis:
        """Re-focus on an inner loop when the outer loop is not the parallelizable one.

        The paper: "In a few cases the parallelizable loop is not the outer
        loop of a nest.  In these cases we consider the loop nest formed
        without some of the outer layers, and report the results for this
        inner loop nest instead."  We apply the same refinement mechanically:
        when the root loop's dependences are hard to break *and* the root
        barely iterates, we retry the dependence analysis focused on the
        heaviest inner loop with a useful trip count and keep whichever
        characterization is more favourable.  ``analyze(workload, profile,
        observation, fraction)`` runs the re-focused dependence analysis.
        """
        root = nest.profile
        # Keep the outer loop when it iterates enough to be the unit of
        # parallelism, or when the nest interacts with the DOM/Canvas anyway
        # (inner parallelism would still be unexploitable — Ace, MyScript).
        if root.mean_trip_count >= 8.0 or nest.dom.accesses_shared_browser_state:
            return nest
        candidates = [
            profiler.profiles[loop_id]
            for loop_id in observation.inner_loop_ids
            if loop_id in profiler.profiles and profiler.profiles[loop_id].mean_trip_count >= 8.0
        ]
        if not candidates:
            return nest
        inner_profile = max(candidates, key=lambda p: p.total_time_ms)
        return analyze(workload, inner_profile, observation, fraction)
