"""Tests for the analysis engine: AST cache, stage schedule, and fan-out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import (
    AnalysisPipeline,
    ScriptCache,
    default_stages,
    resolve_worker_count,
    run_stages,
    source_digest,
    workload_fingerprint,
)
from repro.engine.pipeline import WORKERS_ENV_VAR
from repro.analysis.casestudy import CaseStudyRunner
from repro.analysis.tables import build_tables
from repro.workloads import get_workload
from repro.workloads.base import REGISTRY, Workload

TINY_SOURCE = """
var grid = [];
function smooth(row) {
  var out = [];
  for (var i = 0; i < row.length; i++) {
    var left = i > 0 ? row[i - 1] : row[i];
    var right = i < row.length - 1 ? row[i + 1] : row[i];
    out.push((left + row[i] + right) / 3);
  }
  return out;
}
for (var r = 0; r < 24; r++) {
  var row = [];
  for (var c = 0; c < 24; c++) { row.push((r * 31 + c * 17) % 7); }
  grid.push(row);
}
for (var pass = 0; pass < 3; pass++) {
  for (var r2 = 0; r2 < grid.length; r2++) { grid[r2] = smooth(grid[r2]); }
}
"""


def _make_tiny_workload(name):
    return Workload(
        name=name,
        category="Visualization",
        description="synthetic smoothing kernel for engine tests",
        url="test://tiny",
        scripts=[("tiny.js", TINY_SOURCE)],
    )


def _register_tiny(names, passes=None):
    """Register synthetic workloads; ``passes`` scales each one's work."""
    for position, name in enumerate(names):
        source = TINY_SOURCE
        if passes is not None:
            source = source.replace("pass < 3", f"pass < {passes[position]}")

        def factory(name=name, source=source):
            workload = _make_tiny_workload(name)
            workload.scripts = [("tiny.js", source)]
            return workload

        REGISTRY.register(name, factory)


@pytest.fixture
def tiny_workloads():
    """Two registered synthetic workloads (registry restored afterwards)."""
    names = ["engine-test-a", "engine-test-b"]
    _register_tiny(names)
    try:
        yield [get_workload(name) for name in names]
    finally:
        for name in names:
            REGISTRY._factories.pop(name, None)


class TestScriptCache:
    def test_same_source_parses_once(self):
        cache = ScriptCache()
        first_program, first_index = cache.get("a.js", TINY_SOURCE)
        second_program, second_index = cache.get("a.js", TINY_SOURCE)
        assert first_program is second_program
        assert first_index is second_index
        assert cache.hits == 1 and cache.misses == 1 and len(cache) == 1

    def test_different_sources_get_distinct_entries(self):
        cache = ScriptCache()
        first, _ = cache.get("a.js", "var x = 1;")
        second, _ = cache.get("a.js", "var x = 2;")
        third, _ = cache.get("b.js", "var x = 1;")
        assert first is not second and first is not third
        assert len(cache) == 3

    def test_cached_runs_match_uncached_runs(self, tiny_workloads):
        workload = tiny_workloads[0]
        uncached = CaseStudyRunner().analyze_application(workload)
        cached = CaseStudyRunner(script_cache=ScriptCache()).analyze_application(workload)
        assert cached.table2 == uncached.table2
        assert [row.as_dict() for row in cached.table3_rows()] == [
            row.as_dict() for row in uncached.table3_rows()
        ]

    def test_fingerprints_identify_workloads(self, tiny_workloads):
        first, second = tiny_workloads
        assert workload_fingerprint(first) != workload_fingerprint(second)
        assert workload_fingerprint(first) == workload_fingerprint(
            get_workload("engine-test-a")
        )
        assert source_digest("a") != source_digest("b")


class TestStageSchedule:
    def test_default_stage_names_and_order(self):
        assert [stage.name for stage in default_stages()] == [
            "record",
            "profile",
            "loop-profile",
            "dependence",
            "parallel-model",
        ]

    def test_run_stages_produces_full_analysis(self, tiny_workloads):
        state = {}
        analysis = run_stages(CaseStudyRunner(), tiny_workloads[0], state=state)
        assert analysis.name == "engine-test-a"
        assert analysis.table2.total_seconds > 0
        assert analysis.nests, "the synthetic kernel has a hot nest"
        assert analysis.speedup is not None
        # The shared state exposes every stage's intermediate product.
        for key in ("table2", "profiler", "observer", "hot", "nests", "analysis"):
            assert key in state


class TestAnalysisPipeline:
    def test_invalid_workers_env_warns_once_naming_the_value(self, monkeypatch, caplog):
        import logging

        import repro.jsvm.hooks as hooks

        monkeypatch.setattr(hooks, "_warned_env_values", set())
        cpus = os.cpu_count() or 1
        monkeypatch.setenv(WORKERS_ENV_VAR, "lots")
        with caplog.at_level(logging.WARNING, logger="repro.jsvm.hooks"):
            assert resolve_worker_count(None, 64) == min(cpus, 64)
            assert resolve_worker_count(None, 64) == min(cpus, 64)  # stays silent
            monkeypatch.setenv(WORKERS_ENV_VAR, "")
            assert resolve_worker_count(None, 64) == min(cpus, 64)  # unset: silent
        warned = [r for r in caplog.records if WORKERS_ENV_VAR in r.getMessage()]
        assert len(warned) == 1, "the rejected value must be reported exactly once"
        assert "'lots'" in warned[0].getMessage()

    def test_worker_resolution_clamps_and_reads_env(self, monkeypatch):
        assert resolve_worker_count(4, 2) == 2
        assert resolve_worker_count(0, 5) == 1
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert resolve_worker_count(None, 12) == 3
        monkeypatch.setenv(WORKERS_ENV_VAR, "not-a-number")
        assert resolve_worker_count(None, 1) == 1

    def test_run_caches_per_workload_set(self, tiny_workloads):
        pipeline = AnalysisPipeline(workers=1)
        first = pipeline.run(["engine-test-a"])
        assert pipeline.run(["engine-test-a"]) is first
        forced = pipeline.run(["engine-test-a"], force=True)
        assert forced is not first
        pipeline.invalidate()
        assert pipeline.run(["engine-test-a"]) is not forced

    def test_run_cache_key_is_order_insensitive(self, tiny_workloads):
        # Regression: the key used to be ",".join(names) — order-sensitive
        # and ambiguous for names containing commas, so ["a","b"] and
        # ["b","a"] computed (and cached) twice.
        pipeline = AnalysisPipeline(workers=1)
        first = pipeline.run(["engine-test-a", "engine-test-b"])
        assert pipeline.run(["engine-test-b", "engine-test-a"]) is first

    def test_fan_out_returns_worker_recorded_traces(self, tiny_workloads, monkeypatch):
        from repro.analysis.casestudy import CaseStudyRunner, pipeline_trace_mask

        # Workers keep the traces they record: the batch ships back only the
        # analyses, and the parent fetches a trace from its worker on demand
        # instead of executing the guest again.
        pipeline = AnalysisPipeline(workers=2)
        try:
            first = pipeline.analyze_many(tiny_workloads)
            assert pipeline.trace_store.puts == 0

            def _no_recording(self, workload, mask=None, drop_methods=None):
                raise AssertionError(f"guest execution attempted for {workload.name}")

            monkeypatch.setattr(CaseStudyRunner, "record_trace", _no_recording)
            for workload in tiny_workloads:
                trace = pipeline.fetch_trace(workload)
                assert trace is not None, f"no worker held {workload.name}'s trace"
                assert pipeline.trace_store.has(
                    workload_fingerprint(workload), pipeline_trace_mask()
                )
            second = pipeline.analyze_many(tiny_workloads)
            assert build_tables(second).render_table2() == build_tables(first).render_table2()
        finally:
            pipeline.close()

    def test_fan_out_matches_serial_results(self, tiny_workloads):
        serial = AnalysisPipeline(workers=1).analyze_many(tiny_workloads)
        pipeline = AnalysisPipeline(workers=2)
        try:
            fanned = pipeline.analyze_many(tiny_workloads)
            assert pipeline._pool is not None, "a width-2 batch runs on the pool"
        finally:
            pipeline.close()
        serial_tables = build_tables(serial)
        fanned_tables = build_tables(fanned)
        assert fanned_tables.render_table2() == serial_tables.render_table2()
        assert fanned_tables.render_table3() == serial_tables.render_table3()

    def test_unregistered_workloads_fall_back_to_serial(self):
        pipeline = AnalysisPipeline(workers=8)
        anonymous = _make_tiny_workload("not-registered-anywhere")
        analyses = pipeline.analyze_many([anonymous, anonymous])
        assert len(analyses) == 2
        assert all(a.name == "not-registered-anywhere" for a in analyses)

    def test_modified_workload_sharing_a_registered_name_stays_serial(self, tiny_workloads):
        # Same name as a registered workload, different sources: workers
        # would silently analyze the registry version, so the pipeline must
        # detect the fingerprint mismatch and analyze the instance serially.
        impostor = _make_tiny_workload("engine-test-a")
        impostor.scripts = [("tiny.js", "var onlyOne = 0; for (var i = 0; i < 4; i++) { onlyOne += i; }")]
        assert not AnalysisPipeline._registry_reconstructible([impostor])
        analyses = AnalysisPipeline(workers=8).analyze_many([impostor, impostor])
        assert len(analyses) == 2
        # The impostor's single tiny loop, not the registered kernel's nests.
        assert all(a.table2.total_seconds < 0.1 for a in analyses)

    def test_default_session_case_study_uses_pipeline(self, tiny_workloads):
        from repro.experiments.registry import default_session, get_default_pipeline

        session = default_session()
        result = session.case_study(["engine-test-a"], force=True)
        assert [a.name for a in result.analyses] == ["engine-test-a"]
        assert session.case_study(["engine-test-a"]) is result
        # Clean up the shared pipeline's cache entry for the synthetic name.
        get_default_pipeline().invalidate()


# Runs a width-2 pool fan-out under the CLI's SIGTERM handler.  A worker
# that still ran the inherited handler printed a KeyboardInterrupt traceback
# when a terminate won the race against its shutdown sentinel.  The probe
# reports the inherited handler deterministically, since the race itself is
# rare.  It replaces the module attribute ``_analyze_in_worker`` before the
# pool forks and prints the PID of every process it runs in, which pins that
# each pool analysis task calls that attribute (span tracing wraps it).
_FAN_OUT_UNDER_CLI_HANDLER = """
import os, signal, sys
import repro.engine.pipeline as pipeline
from repro.__main__ import _install_sigterm_handler
from repro.workloads import get_workload

analyze = pipeline._analyze_in_worker

def probed(payload):
    if signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL:
        print("fan-out worker kept the CLI SIGTERM handler", file=sys.stderr)
    # One write per line: two workers share this pipe, and print() writes
    # the text and the newline separately, so lines could interleave.
    os.write(1, f"probe {os.getpid()}\\n".encode())
    return analyze(payload)

pipeline._analyze_in_worker = probed
_install_sigterm_handler()
print(f"parent {os.getpid()}", flush=True)
workloads = [get_workload("MyScript"), get_workload("Ace")]
for _ in range(3):
    fan_out = pipeline.AnalysisPipeline(workers=2)
    try:
        analyses = fan_out.analyze_many(workloads)
    finally:
        fan_out.close()
    assert [a.name for a in analyses] == ["MyScript", "Ace"]
"""


class TestFanOutWorkers:
    def test_fan_out_under_cli_sigterm_handler_writes_no_stderr(self):
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", _FAN_OUT_UNDER_CLI_HANDLER],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr == ""
        lines = completed.stdout.split()
        parent = lines[lines.index("parent") + 1]
        probes = [pid for word, pid in zip(lines, lines[1:]) if word == "probe"]
        assert len(probes) == 6, completed.stdout
        assert parent not in probes, "analysis tasks must run in pool workers"

    def test_width_two_keeps_input_order_and_serial_results(self):
        # Uneven per-workload cost, so completion order differs from input
        # order whatever the chunking: results must still come back in order.
        names = [f"engine-order-{i}" for i in range(5)]
        _register_tiny(names, passes=[6, 1, 4, 1, 3])
        try:
            workloads = [get_workload(name) for name in names]
            serial = AnalysisPipeline(workers=1).analyze_many(workloads)
            pipeline = AnalysisPipeline(workers=2)
            try:
                fanned = pipeline.analyze_many(workloads)
            finally:
                pipeline.close()
        finally:
            for name in names:
                REGISTRY._factories.pop(name, None)
        assert [a.name for a in fanned] == names
        assert [a.table2 for a in fanned] == [a.table2 for a in serial]
        assert [a.speedup for a in fanned] == [a.speedup for a in serial]
        assert build_tables(fanned).render_table2() == build_tables(serial).render_table2()
        assert build_tables(fanned).render_table3() == build_tables(serial).render_table3()
