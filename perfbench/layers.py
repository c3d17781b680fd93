"""Null-baseline probe: the layer splits that no public function boundary has.

Recording interleaves guest execution with recorder callbacks, and a replay
interleaves dispatch with analyzer callbacks, so a span around
``record_trace`` or ``TraceReplayer.replay`` cannot separate them.  This
probe does, on the apps named on the command line, by timing each run twice:
once with a real subscriber and once with a :class:`NullTracer` that
subscribes to the same events and does nothing.

``PYTHONPATH=src python perfbench/layers.py APP...`` prints one JSON object
of seconds (and counts) summed over the apps; each figure is the median of
:data:`ROUNDS` repetitions.
"""

import json
import statistics
import sys
import time

from repro.analysis.casestudy import (
    CaseStudyRunner,
    pipeline_dropped_methods,
    pipeline_trace_mask,
)
from repro.api.session import AnalysisSession
from repro.api.spec import RunSpec
from repro.browser.gecko_profiler import GeckoProfiler
from repro.browser.window import BrowserSession
from repro.ceres.dependence import DependenceAnalyzer
from repro.ceres.lightweight import LightweightProfiler
from repro.ceres.loop_profiler import LoopProfiler
from repro.ceres.proxy import InstrumentationMode, InstrumentingProxy, OriginServer
from repro.engine.cache import ScriptCache
from repro.jsvm.hooks import HookBus, Tracer, TraceReplayer
from repro.workloads import get_workload

ROUNDS = 3

#: Replay spec per analyzer layer, with the tracer class whose events it
#: subscribes to (the null baseline replays exactly those events).
ANALYZERS = {
    "ceres.lightweight_s": (RunSpec.lightweight(with_gecko=False), LightweightProfiler),
    "browser.gecko_s": (RunSpec.composed("gecko"), GeckoProfiler),
    "ceres.loop_profile_s": (RunSpec.loop_profile(), LoopProfiler),
    "ceres.dependence_s": (RunSpec.dependence(), DependenceAnalyzer),
}


def _ignore(*_args) -> None:
    return None


class NullTracer(Tracer):
    """Subscribes to ``mask`` and ignores every event it is handed.

    Every hook method a pipeline trace records is overridden (with a
    no-op), so the bus and the replayer dispatch exactly as they would to a
    real tracer of that mask.
    """

    def __init__(self, mask: int) -> None:
        self.mask = mask

    def subscribed_events(self) -> int:
        return self.mask


for _name in [name for name in vars(Tracer) if name.startswith("on_")]:
    if _name not in pipeline_dropped_methods():
        setattr(NullTracer, _name, _ignore)


def _timed(fn) -> float:
    samples = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _null_record_run(workload, cache: ScriptCache) -> None:
    """``record_trace``'s execution with a null subscriber for the recorder."""
    origin = OriginServer()
    origin.host_scripts(list(workload.scripts))
    proxy = InstrumentingProxy(origin, mode=InstrumentationMode.DEPENDENCE, script_cache=cache)
    hooks = HookBus()
    session = BrowserSession(hooks=hooks, title=workload.name)
    workload.prepare(session)
    intercepted = [proxy.request(path) for path, _ in workload.scripts]
    hooks.attach(NullTracer(pipeline_trace_mask()))
    for document in intercepted:
        session.run_document(document)
    workload.exercise(session)


def probe(apps) -> dict:
    figures = {"jsvm.exec_hooked_s": 0.0, "hooks.record_s": 0.0, "hooks.events": 0,
               "hooks.replay_s": 0.0}
    figures.update({name: 0.0 for name in ANALYZERS})
    for app in apps:
        workload = get_workload(app)
        cache = ScriptCache()
        runner = CaseStudyRunner(script_cache=cache)
        trace = runner.record_trace(workload)  # warms the parse cache too
        null_run = _timed(lambda: _null_record_run(workload, cache))
        record = _timed(lambda: runner.record_trace(workload))
        figures["jsvm.exec_hooked_s"] += null_run
        figures["hooks.record_s"] += max(0.0, record - null_run)
        figures["hooks.events"] += len(trace.events)
        figures["hooks.replay_s"] += _timed(
            lambda: TraceReplayer(trace).replay([NullTracer(trace.mask)])
        )
        with AnalysisSession() as session:
            for name, (spec, tracer_class) in ANALYZERS.items():
                mask = tracer_class.declared_events() & trace.mask
                baseline = _timed(lambda: TraceReplayer(trace).replay([NullTracer(mask)]))
                full = _timed(lambda: session.replay_trace(trace, spec))
                figures[name] += max(0.0, full - baseline)
    return figures


if __name__ == "__main__":
    print(json.dumps(probe(sys.argv[1:])))
