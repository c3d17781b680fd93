"""The per-workload stage schedule of the case-study methodology.

Section 3 of the paper stages its instrumentation deliberately — lightweight
profiling, then loop profiling, then (per hot nest) dependence analysis —
so that the heavyweight modes never bias the timing measurements.  This
module makes that schedule an explicit, inspectable object: an ordered list
of :class:`Stage` steps that read and extend a shared per-workload state
dictionary, executed by :func:`run_stages` (and therefore by the
:class:`~repro.engine.pipeline.AnalysisPipeline` for whole batches).

The schedule opens with a ``record`` stage, the only one that runs guest
code: it executes the workload **once** under the union event mask of every
downstream analysis (see
:func:`~repro.analysis.casestudy.pipeline_trace_mask`), or takes that trace
from the runner's store.  Every later stage — lightweight profiling, loop
profiling, and the focused dependence analysis of each hot nest — replays
the trace.  Tracers are clock-neutral and event streams are
mask-independent, so each replayed stage sees exactly what a live run of
its instrumentation mode would.

The stages call back into :class:`~repro.analysis.casestudy.CaseStudyRunner`
for the measurement steps, so the methodology itself lives in one place and
this module only owns the scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..analysis.amdahl import bound_for_application
from ..analysis.casestudy import ApplicationAnalysis, pipeline_trace_mask
from ..jsvm.hooks import Trace

StageState = Dict[str, Any]


@dataclass(frozen=True)
class Stage:
    """One named step of the per-workload pipeline."""

    name: str
    description: str
    run: Callable[[Any, Any, StageState], None]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


def _stage_record(runner, workload, state: StageState) -> None:
    """Step 0: the single instrumented execution — record the union trace."""
    state["trace"] = runner.obtain_trace(workload, pipeline_trace_mask())
    state["registry"] = runner.registry_for(workload)


def _stage_profile(runner, workload, state: StageState) -> None:
    """Step 1: lightweight profiling + sampling profiler (Table 2 row)."""
    state["table2"] = runner.measure_runtime_from_trace(workload, state["trace"])


def _stage_loop_profile(runner, workload, state: StageState) -> None:
    """Step 2: loop profiling + nest observation; select the hot nests."""
    _registry, profiler, observer = runner.profile_loops_from_trace(
        workload, state["trace"], registry=state["registry"]
    )
    state["profiler"] = profiler
    state["observer"] = observer
    state["hot"] = runner.select_hot_nests(profiler, observer)
    state["total_nest_time"] = sum(
        profiler.profiles[loop_id].total_time_ms
        for loop_id in observer.observations
        if loop_id in profiler.profiles
    )


def _stage_dependence(runner, workload, state: StageState) -> None:
    """Step 3: dependence analysis + interpretation for each hot nest."""
    profiler = state["profiler"]
    observer = state["observer"]
    total_nest_time = state["total_nest_time"]
    trace = state["trace"]
    registry = state["registry"]
    items = []
    for profile in state["hot"]:
        observation = observer.observations.get(profile.loop_id)
        if observation is None:
            continue
        fraction = profile.total_time_ms / total_nest_time if total_nest_time > 0 else 0.0
        items.append((profile, observation, fraction))

    def analyze(workload, profile, observation, fraction):
        return runner.analyze_nest_from_trace(
            workload, trace, registry, profile, observation, fraction
        )

    # All hot nests share one pass over the trace (one focused analyzer
    # each); only inner-loop refinements below replay again.
    primary = runner.analyze_nests_from_trace(workload, trace, registry, items)

    nests = []
    for nest, (profile, observation, fraction) in zip(primary, items):
        # "In a few cases the parallelizable loop is not the outer loop of
        # a nest" — when the outer loop barely iterates, re-focus on the
        # heaviest inner loop and report that instead (fluidSim, Cloth).
        nest = runner._maybe_use_inner_loop(
            workload, nest, profiler, observation, fraction, analyze=analyze
        )
        nests.append(nest)
    state["nests"] = nests


def _stage_parallel_model(runner, workload, state: StageState) -> None:
    """Step 4: assemble the application analysis and its Amdahl bound."""
    table2 = state["table2"]
    analysis = ApplicationAnalysis(
        name=workload.name, category=getattr(workload, "category", ""), table2=table2
    )
    analysis.nests.extend(state["nests"])
    analysis.speedup = bound_for_application(
        application=workload.name,
        nest_fractions_and_difficulties=[
            (nest.fraction_of_loop_time, nest.parallelization) for nest in analysis.nests
        ],
        busy_seconds=max(table2.active_seconds, table2.loops_seconds),
        loop_seconds=table2.loops_seconds,
        cores=runner.cores,
    )
    state["analysis"] = analysis


_DEFAULT_STAGES: Tuple[Stage, ...] = (
    Stage("record", "single instrumented execution -> union event trace", _stage_record),
    Stage("profile", "lightweight profiling + sampling (Table 2 row)", _stage_profile),
    Stage("loop-profile", "per-loop statistics + hot-nest selection", _stage_loop_profile),
    Stage("dependence", "focused dependence analysis per hot nest", _stage_dependence),
    Stage("parallel-model", "difficulty rubric + Amdahl speedup bound", _stage_parallel_model),
)


def default_stages() -> Tuple[Stage, ...]:
    """The canonical schedule (record → profile → loops → deps → model)."""
    return _DEFAULT_STAGES


def speculation_stage(executor) -> Stage:
    """An optional fifth stage: speculative re-execution of DOALL nests.

    ``executor`` is a :class:`~repro.parallel.speculative.SpeculativeExecutor`;
    the stage consumes the dependence verdicts assembled by the default
    schedule (``state["analysis"]``) and stores the per-nest executed-vs-
    modelled validation in ``state["speculation"]``.
    """

    def _stage_speculate(runner, workload, state: StageState) -> None:
        state["speculation"] = executor.validate_application(workload, state["analysis"])

    return Stage(
        "speculate", "speculative parallel re-execution of DOALL nests", _stage_speculate
    )


def prepare_workload_bytecode(script_cache, bytecode_cache, workload) -> Dict[str, bytes]:
    """Lower every script of ``workload`` into ``bytecode_cache`` (idempotent).

    Returns the ``{path: payload}`` mapping the pipeline ships to fan-out
    workers: serialized :class:`~repro.jsvm.bytecode.CodeObject` trees the
    worker's own :class:`~repro.engine.cache.BytecodeCache` absorbs, so
    bytecode-tier runs in the worker skip lowering entirely.
    """
    payload: Dict[str, bytes] = {}
    for path, source in workload.scripts:
        program, _index = script_cache.get(path, source)
        payload[path] = bytecode_cache.prepare(path, source, program)
    return payload


def run_stages(
    runner,
    workload,
    stages: Optional[Tuple[Stage, ...]] = None,
    state: Optional[StageState] = None,
) -> ApplicationAnalysis:
    """Run the stage schedule for one workload and return its analysis.

    The stages are the batch's replays of the recorded trace; after the
    last one a resident trace is sealed (:meth:`Trace.seal`), so a batch
    keeps its recordings at rest as deflated slices, not tuple lists.
    """
    state = state if state is not None else {}
    for stage in stages if stages is not None else default_stages():
        stage.run(runner, workload, state)
    trace = state.get("trace")
    if isinstance(trace, Trace):
        trace.seal()
    return state["analysis"]
