"""Experiment registry: one entry per table/figure of the paper.

Each experiment knows which paper artifact it regenerates, how to run it and
how to render its result as text.  Experiments are bound to an
:class:`~repro.api.session.AnalysisSession`, which owns the heavyweight
case-study pipeline (caching, AST sharing, fan-out across workloads):
:func:`build_registry` takes the session explicitly; when none is given, a
process-wide default session is created lazily behind a lock.

The seed-era ``run_case_study`` shim was removed after its two-PR
compatibility window (use :meth:`repro.api.AnalysisSession.case_study`).

Building the registry imports nothing beyond this module: each runner
imports what it runs, and the session is resolved only when a
session-bound experiment runs, so ``python -m repro list`` stays cheap.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict

#: Process-wide fallback session for callers that do not manage their own
#: (``build_registry()`` with no argument).  Creation is guarded by a lock:
#: the seed's lazy module global had a check-then-set race under threads.
_DEFAULT_SESSION = None
_DEFAULT_SESSION_LOCK = threading.Lock()


def default_session():
    """The shared fallback :class:`~repro.api.session.AnalysisSession`."""
    global _DEFAULT_SESSION
    session = _DEFAULT_SESSION
    if session is None:
        with _DEFAULT_SESSION_LOCK:
            session = _DEFAULT_SESSION
            if session is None:
                from ..api.session import AnalysisSession

                session = _DEFAULT_SESSION = AnalysisSession()
    return session


def get_default_pipeline():
    """The shared pipeline behind the fallback session (thread-safe)."""
    return default_session().pipeline


@dataclass
class Experiment:
    """One reproducible experiment, mapped to a paper artifact."""

    experiment_id: str
    paper_artifact: str
    description: str
    runner: Callable[[], str]

    def run(self) -> str:
        """Run the experiment and return the rendered result."""
        return self.runner()


def _figure_runner(builder_name: str) -> Callable[[], str]:
    def run() -> str:
        from .. import survey

        builder = getattr(survey, builder_name)
        return survey.render_figure(builder(survey.generate_population()))

    return run


def _table1_runner() -> str:
    from ..ceres.report import render_summary_table
    from ..workloads import table1

    return render_summary_table(table1(), ["Name/URL", "Category/Description"], title="Table 1. Case study - web applications")


def _table2_runner(session) -> str:
    return session.case_study().tables.render_table2()


def _table3_runner(session) -> str:
    return session.case_study().tables.render_table3()


def _amdahl_runner(session) -> str:
    results = session.case_study()
    tables = results.tables
    summary = [
        tables.render_speedups(),
        "",
        f"applications with Amdahl bound > 3x : {tables.applications_exceeding_3x()} of {len(tables.table2)}",
        f"applications hard/very hard         : {tables.applications_hard_to_speed_up()} of {len(tables.table2)}",
        f"nests with intrinsic parallelism    : {tables.nests_with_intrinsic_parallelism()} of {len(tables.table3)}",
        f"nests accessing the DOM/Canvas      : {tables.nests_accessing_dom()} of {len(tables.table3)}",
    ]
    return "\n".join(summary)


def _parallel_validation_runner(session) -> str:
    from ..ceres.report import render_summary_table
    from ..parallel import model_application_speedup

    results = session.case_study()
    rows = [model_application_speedup(analysis).as_row() for analysis in results.analyses]
    return render_summary_table(
        rows,
        ["application", "busy (s)", "modelled (s)", "speedup", "Amdahl bound"],
        title="Modelled parallel execution vs Amdahl bound",
    )


def _nbody_runner(session) -> str:
    from ..api.spec import RunSpec
    from ..workloads.nbody import STEP_FOR_LINE, make_nbody_workload

    run = session.run(make_nbody_workload(), RunSpec.dependence(focus_line=STEP_FOR_LINE))
    return run.report_text


def _overhead_runner(session) -> str:
    from ..api.spec import RunSpec
    from ..ceres.report import render_summary_table
    from ..workloads import get_workload

    rows = []
    for name in ("fluidSim", "Normal Mapping"):
        baseline = session.run(get_workload(name), RunSpec.uninstrumented())
        lightweight = session.run(get_workload(name), RunSpec.lightweight(with_gecko=False))
        loops = session.run(get_workload(name), RunSpec.loop_profile())
        rows.append(
            {
                "workload": name,
                "uninstrumented (s)": round(baseline.clock_seconds, 2),
                "mode 1 (s)": round(lightweight.total_seconds, 2),
                "mode 2 loop time (s)": round(
                    loops.payloads["loop_profile"]["total_loop_time_ms"] / 1000.0, 2
                ),
            }
        )
    return render_summary_table(
        rows,
        ["workload", "uninstrumented (s)", "mode 1 (s)", "mode 2 loop time (s)"],
        title="Instrumentation overhead on the virtual clock (Sections 3.1-3.2)",
    )


def build_registry(session=None) -> Dict[str, Experiment]:
    """All experiments, keyed by experiment id (see DESIGN.md).

    ``session`` is the :class:`~repro.api.session.AnalysisSession` the
    case-study experiments run through; the shared fallback session is used
    when omitted (created on the first such run, not here), so seed-era
    ``build_registry()`` callers keep working.
    """

    def bound(runner: Callable) -> Callable[[], str]:
        return lambda: runner(session if session is not None else default_session())

    return {
        "fig1-categories": Experiment(
            "fig1-categories", "Figure 1", "Future web application categories (thematic coding)",
            _figure_runner("figure1_data")),
        "fig2-bottlenecks": Experiment(
            "fig2-bottlenecks", "Figure 2", "Perceived performance bottlenecks",
            _figure_runner("figure2_data")),
        "fig3-style": Experiment(
            "fig3-style", "Figure 3", "Functional vs imperative style preference",
            _figure_runner("figure3_data")),
        "fig4-polymorphism": Experiment(
            "fig4-polymorphism", "Figure 4", "Monomorphic vs polymorphic variable usage",
            _figure_runner("figure4_data")),
        "fig6-nbody": Experiment(
            "fig6-nbody", "Figure 6 / Section 3.3", "N-body dependence-analysis walkthrough",
            bound(_nbody_runner)),
        "table1-workloads": Experiment(
            "table1-workloads", "Table 1", "The twelve case-study applications",
            _table1_runner),
        "table2-runtime": Experiment(
            "table2-runtime", "Table 2", "Total / active / in-loop running time",
            bound(_table2_runner)),
        "table3-loopnests": Experiment(
            "table3-loopnests", "Table 3", "Detailed inspection of hot loop nests",
            bound(_table3_runner)),
        "amdahl-bounds": Experiment(
            "amdahl-bounds", "Section 4.2 / 5", "Amdahl speedup upper bounds and headline counts",
            bound(_amdahl_runner)),
        "parallel-validation": Experiment(
            "parallel-validation", "Section 1 / 4", "Modelled parallel execution of easy nests",
            bound(_parallel_validation_runner)),
        "ceres-overhead": Experiment(
            "ceres-overhead", "Sections 3.1-3.2", "Instrumentation overhead of modes 1 and 2",
            bound(_overhead_runner)),
    }


def run_experiment(experiment_id: str) -> str:
    """Run one experiment by id and return its rendered output."""
    registry = build_registry()
    if experiment_id not in registry:
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {sorted(registry)}")
    return registry[experiment_id].run()


def run_all_experiments() -> Dict[str, str]:
    """Run every registered experiment (the full reproduction)."""
    return {experiment_id: experiment.run() for experiment_id, experiment in build_registry().items()}
