"""Benchmark: streaming replay holds resident memory flat as traces grow.

The bounded-memory acceptance number for the streaming trace layer: a
fluidSim run made **10× longer** (40 animation frames instead of 4) must
replay from a chunked file through the full analysis stack — loop profiler,
dependence analyzer, sampling profiler — at essentially the same peak RSS
as the 1× run, while replaying the same 10× trace loaded resident
(``Trace.load``) pays for the whole materialized event list.  Both arms use
the same default-constructed tracers and the same replay loop; only the
chunk source differs.  Peak RSS is measured in a child interpreter per
replay (``ru_maxrss``), so each measurement starts from a clean heap.

Results land in ``BENCH_stream_memory.json`` (peak RSS per variant, the
stream 10×/1× ratio, event counts, payload parity) and fold into the
committed ``BENCH_summary.json``; ``collect_summary.py --check`` blocks on
the RSS keys being present and numeric.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.casestudy import CaseStudyRunner, pipeline_trace_mask
from repro.jsvm.tracecodec import write_binary_trace
from repro.workloads.base import CATEGORY_GAMES, Workload
from repro.workloads.fluidsim import FLUID_SOURCE

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

#: Small chunks relative to the 10× trace (~3M events), so the streaming
#: bound is exercised across hundreds of chunk boundaries.
CHUNK_EVENTS = 16384

#: The streamed 10× replay may cost at most this factor over the 1× replay
#: in peak RSS ("flat": interpreter baseline dominates, not the trace).
FLAT_RSS_FACTOR = 1.35


def _fluid_workload(frames: int) -> Workload:
    """The bundled fluidSim solver driven for ``frames`` animation frames."""

    def exercise(session) -> None:
        session.run_script("fluidInit(10);", name="fluid-setup.js")
        session.run_script(
            "function fluidFrame() { fluidStep(0.1); requestAnimationFrame(fluidFrame); }"
            " requestAnimationFrame(fluidFrame);",
            name="fluid-driver.js",
        )
        session.run_frames(frames)
        session.idle(3000.0)

    return Workload(
        name=f"fluidSim-{frames}f",
        category=CATEGORY_GAMES,
        description=f"fluid dynamics simulation, {frames} frames",
        url="nerget.com/fluidSim",
        scripts=[("fluidsim.js", FLUID_SOURCE)],
        exercise_fn=exercise,
    )


#: Child program: replay one trace file and report peak RSS + analysis
#: aggregates.  Runs in a fresh interpreter so ru_maxrss reflects exactly
#: one replay, not whatever the parent process touched before.
_CHILD = """
import json, resource, sys

from repro.browser.gecko_profiler import GeckoProfiler
from repro.ceres.dependence import DependenceAnalyzer
from repro.ceres.loop_profiler import LoopProfiler
from repro.jsvm.hooks import Trace, TraceReplayer, open_trace_source

path, mode = sys.argv[1], sys.argv[2]
source = open_trace_source(path) if mode == "stream" else Trace.load(path)
profiler = LoopProfiler()
analyzer = DependenceAnalyzer()
gecko = GeckoProfiler()
TraceReplayer(source).replay([profiler, analyzer, gecko])
report = analyzer.report()
print(json.dumps({
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "peak_open_instances": profiler.peak_open_instances,
    "loop_rows": [profiler.profiles[k].as_row() for k in sorted(profiler.profiles)],
    "gecko_counts": [gecko.profile.sample_count, gecko.profile.active_count],
    "dep_names": report.problematic_names(),
    "dep_iterations": report.iterations_observed,
}))
"""


#: Lean trampoline between the (large) benchmark process and the measured
#: child.  On Linux a freshly exec'd child inherits the RSS high-water mark
#: of the process that forked it, so spawning the measurement directly from
#: a parent that holds the recorded traces would report the *parent's*
#: footprint.  The trampoline is a few-MB interpreter, so the grandchild's
#: ``ru_maxrss`` reflects only its own replay.
_SPAWNER = (
    "import subprocess, sys\n"
    "r = subprocess.run([sys.executable, '-c'] + sys.argv[1:],\n"
    "                   capture_output=True, text=True)\n"
    "sys.stderr.write(r.stderr)\n"
    "if r.returncode == 0:\n"
    "    print(r.stdout.strip().splitlines()[-1])\n"
    "sys.exit(r.returncode)\n"
)


def _replay_in_child(path: str, mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    result = subprocess.run(
        [sys.executable, "-c", _SPAWNER, _CHILD, path, mode],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_bench_stream_memory_flat_at_10x(benchmark, tmp_path):
    """Peak replay RSS: stream 1× vs stream 10× (flat) vs resident 10× (not)."""
    runner = CaseStudyRunner()
    mask = pipeline_trace_mask()
    trace_1x = runner.record_trace(_fluid_workload(4), mask)
    trace_10x = runner.record_trace(_fluid_workload(40), mask)

    # Binary columnar files (the only encoding written); the v1 streaming
    # reader is pinned by test_trace_stream on a committed fixture.
    path_1x = str(tmp_path / "fluid-1x.trace.bin")
    path_10x = str(tmp_path / "fluid-10x.trace.bin")
    chunks_1x = write_binary_trace(trace_1x, path_1x, chunk_events=CHUNK_EVENTS)
    chunks_10x = write_binary_trace(trace_10x, path_10x, chunk_events=CHUNK_EVENTS)
    assert chunks_10x > chunks_1x > 1

    stream_1x = _replay_in_child(path_1x, "stream")
    resident_1x = _replay_in_child(path_1x, "resident")
    resident_10x = _replay_in_child(path_10x, "resident")
    stream_10x = benchmark.pedantic(
        _replay_in_child, args=(path_10x, "stream"), rounds=1, iterations=1
    )

    # The acceptance number: 10× more events, flat streamed peak RSS.
    rss_ratio = stream_10x["peak_rss_kb"] / stream_1x["peak_rss_kb"]
    assert rss_ratio <= FLAT_RSS_FACTOR, (
        f"streamed 10x replay RSS grew {rss_ratio:.2f}x over 1x "
        f"({stream_10x['peak_rss_kb']} vs {stream_1x['peak_rss_kb']} kB)"
    )
    # A resident trace materializes the event list; it must cost visibly more.
    assert resident_10x["peak_rss_kb"] > stream_10x["peak_rss_kb"]

    # Streamed analysis aggregates are identical to the resident replay.
    payload_identical = all(
        stream_1x[key] == resident_1x[key]
        for key in ("loop_rows", "gecko_counts", "dep_names", "dep_iterations")
    )
    assert payload_identical, "streamed 1x aggregates diverged from resident replay"

    benchmark.extra_info.update(
        {
            "artifact_name": "BENCH_stream_memory.json",
            "events_1x": len(trace_1x.events),
            "events_10x": len(trace_10x.events),
            "chunks_10x": chunks_10x,
            "chunk_events": CHUNK_EVENTS,
            "peak_rss_stream_1x_kb": stream_1x["peak_rss_kb"],
            "peak_rss_stream_10x_kb": stream_10x["peak_rss_kb"],
            # The key predates the resident arm's name; the summary keeps it.
            "peak_rss_batch_10x_kb": resident_10x["peak_rss_kb"],
            "rss_ratio_stream": round(rss_ratio, 3),
            "peak_open_instances_10x": stream_10x["peak_open_instances"],
            "payload_identical": payload_identical,
        }
    )
