"""Tests for the record-once / replay-many trace layer.

The load-bearing claim: payloads produced by *replaying* a recorded trace are
byte-identical to payloads produced by *live* tracers observing the same
execution — for every tracer, on every bundled workload.  Plus: schema round
trips, the trace store's mask-superset keying, the replay-backed stage
schedule (including that it executes each workload exactly once), and
graceful failures on truncated / corrupt / mismatched trace files.  The v1
single-document reader is pinned by the committed fixture
``tests/fixtures/myscript-v1-loops.trace.json`` (the package writes only the
binary container).
"""

from __future__ import annotations

import gzip
import hashlib
import json
import pickle
from dataclasses import replace

import pytest

from repro.analysis.casestudy import CaseStudyRunner, pipeline_trace_mask
from repro.api import AnalysisSession, RunSpec
from repro.api.spec import DEPENDENCE, GECKO, LIGHTWEIGHT, LOOP_PROFILE
from repro.browser.window import BrowserSession
from repro.engine.cache import TraceStore, workload_fingerprint
from repro.engine.pipeline import AnalysisPipeline
from repro.engine.stages import default_stages
from repro.jsvm.hooks import (
    EV_FUNCTION,
    EV_LOOP,
    EV_STATEMENT,
    Trace,
    TraceFormatError,
    TraceMaskError,
    TraceMismatchError,
    TraceVersionError,
    _SealedEvents,
    open_trace_source,
)
from repro.jsvm.tracecodec import write_binary_trace
from repro.workloads import get_workload, workload_names

COMPOSED = RunSpec.composed(LIGHTWEIGHT, GECKO, LOOP_PROFILE, DEPENDENCE)

#: ``Trace.legacy_digest()`` of the committed single-document v1 fixture
#: (the identity v1 files were written with).
V1_LOOPS_DIGEST = "e6676abab056388d12dbd0cb16aff19a0589fccd772fc9c21a8f183905c95a1d"
#: ``Trace.digest()`` of the same fixture: a single-document file carries no
#: header digest, so loading derives the current identity.
V1_LOOPS_DIGEST_V2 = "0581b64c82f4af6fc5e7255b3e27b2fcdadaf37dab8fa96c202e2460743be8d1"


def payload_digest(payload) -> str:
    """Canonical digest of a JSON-native payload (order-insensitive on keys)."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


@pytest.fixture(scope="module")
def recorded_session():
    """One session whose store holds a full-mask trace per workload.

    Each workload executes exactly once (``spec.record()``); the live
    composed payloads from that same run are the byte-equality reference for
    every replay test below.
    """
    session = AnalysisSession()
    live_results = {
        name: session.run(name, COMPOSED.record()) for name in workload_names()
    }
    return session, live_results


class TestLiveVsReplayAllWorkloads:
    @pytest.mark.parametrize("name", workload_names())
    def test_every_tracer_payload_matches_live(self, recorded_session, name):
        session, live_results = recorded_session
        live = live_results[name]
        replayed = session.run(name, COMPOSED.replay())
        for mode in (LIGHTWEIGHT, GECKO, LOOP_PROFILE, DEPENDENCE):
            assert payload_digest(replayed.payloads[mode]) == payload_digest(
                live.payloads[mode]
            ), f"{name}/{mode} replay diverged from live"
        assert replayed.report_text == live.report_text
        assert replayed.clock_seconds == live.clock_seconds
        assert replayed.provenance.startswith("replay:")

    @pytest.mark.parametrize("mode", [LIGHTWEIGHT, GECKO, LOOP_PROFILE, DEPENDENCE])
    def test_single_tracer_replay_matches_composed_live(self, recorded_session, mode):
        # Composed live == staged live (PR 2); single-tracer replay from the
        # union-mask trace must therefore match the composed payload too.
        session, live_results = recorded_session
        live = live_results["Normal Mapping"]
        spec = RunSpec.composed(mode) if mode != GECKO else RunSpec.composed(GECKO)
        replayed = session.run("Normal Mapping", spec.replay())
        assert replayed.payloads[mode] == live.payloads[mode]


class TestSchemaRoundTrip:
    @pytest.fixture(scope="class")
    def trace(self, recorded_session):
        session, _ = recorded_session
        fingerprint = workload_fingerprint(get_workload("Normal Mapping"))
        trace = session.trace_store.find(fingerprint, pipeline_trace_mask())
        assert trace is not None
        return trace

    def test_json_round_trip_is_byte_identical(self, v1_loops_fixture):
        # The v1 reader loses nothing: re-serializing the parsed fields in
        # the document's own key order reproduces the file byte for byte.
        text = v1_loops_fixture.read_text(encoding="utf-8")
        data = json.loads(text)
        parsed = Trace.from_json(text)
        rebuilt = {
            key: value if key == "format" else getattr(parsed, key)
            for key, value in data.items()
        }
        assert json.dumps(rebuilt, separators=(",", ":")) + "\n" == text
        assert parsed.digest() == V1_LOOPS_DIGEST_V2
        assert parsed.legacy_digest() == V1_LOOPS_DIGEST

    def test_file_round_trip_plain_and_gzip(self, v1_loops_fixture, tmp_path):
        wrapped = tmp_path / "loops.trace.json.gz"
        with gzip.open(wrapped, "wb") as handle:
            handle.write(v1_loops_fixture.read_bytes())
        for path in (v1_loops_fixture, wrapped):
            loaded = Trace.load(str(path))
            assert loaded.digest() == V1_LOOPS_DIGEST_V2
            assert loaded.legacy_digest() == V1_LOOPS_DIGEST
            assert loaded.mask == EV_LOOP and len(loaded.events) == 264

    @pytest.mark.parametrize("name", workload_names())
    def test_digest_survives_encode_decode_and_re_derivation(
        self, recorded_session, name, tmp_path
    ):
        session, _ = recorded_session
        fingerprint = workload_fingerprint(get_workload(name))
        trace = session.trace_store.find(fingerprint, pipeline_trace_mask())
        path = tmp_path / "app.trace.bin"
        write_binary_trace(trace, str(path))
        loaded = Trace.load(str(path))
        assert loaded.digest() == trace.digest()  # adopted from the header
        assert replace(loaded).digest() == trace.digest()  # re-derived

    def test_replay_from_round_tripped_trace_matches(
        self, recorded_session, trace, tmp_path
    ):
        session, live_results = recorded_session
        path = tmp_path / "nm.trace.bin"
        write_binary_trace(trace, str(path))
        reloaded = open_trace_source(str(path)).load()
        replayed = session.replay_trace(reloaded, COMPOSED)
        assert replayed.payloads == live_results["Normal Mapping"].payloads

    def test_event_counts_and_mask_cover_the_pipeline(self, trace):
        counts = trace.event_counts()
        for name in ("loop_enter", "loop_exit", "statement", "prop_read", "var_write"):
            assert counts.get(name, 0) > 0
        assert trace.covers(pipeline_trace_mask())


def _stored_trace(session, name):
    """The resident union-mask trace ``recorded_session`` holds for ``name``."""
    fingerprint = workload_fingerprint(get_workload(name))
    trace = session.trace_store.find(fingerprint, pipeline_trace_mask())
    assert trace is not None and not isinstance(trace.events, _SealedEvents)
    return trace


class TestSealedTraces:
    """A sealed trace reads back exactly the records its tuple list held.

    Each test seals a copy, so the shared traces stay resident and the two
    forms are compared on the same recording.
    """

    @pytest.fixture(scope="class")
    def pairs(self, recorded_session):
        session, _ = recorded_session
        pairs = {}
        for name in workload_names():
            trace = _stored_trace(session, name)
            sealed = replace(trace)  # no cached digest: seal() derives it
            sealed.seal()
            pairs[name] = (trace, sealed)
        return pairs

    @pytest.mark.parametrize("name", workload_names())
    def test_seal_keeps_digest_and_records(self, pairs, name):
        trace, sealed = pairs[name]
        assert isinstance(sealed.events, _SealedEvents)
        assert not isinstance(trace.events, _SealedEvents)
        assert sealed.digest() == trace.digest()
        assert replace(sealed).digest() == trace.digest()  # re-derived from slices
        assert len(sealed.events) == len(trace.events) > 0
        assert sealed.event_counts() == trace.event_counts()
        sealed.validate_events()
        assert sealed == trace
        sealed.seal()  # idempotent
        assert sealed.digest() == trace.digest()

    @pytest.mark.parametrize("name", workload_names())
    def test_replay_payloads_are_byte_identical(self, recorded_session, pairs, name):
        session, _ = recorded_session
        trace, sealed = pairs[name]
        resident = session.replay_trace(trace, COMPOSED).to_dict()
        replayed = session.replay_trace(sealed, COMPOSED).to_dict()
        for mode in (LIGHTWEIGHT, GECKO, LOOP_PROFILE, DEPENDENCE):
            assert mode in replayed["payloads"]
        assert json.dumps(replayed, sort_keys=True) == json.dumps(resident, sort_keys=True)

    @pytest.mark.parametrize("name", workload_names())
    def test_binary_writer_writes_identical_bytes(self, pairs, name, tmp_path):
        trace, sealed = pairs[name]
        write_binary_trace(trace, str(tmp_path / "resident.bin"))
        write_binary_trace(sealed, str(tmp_path / "sealed.bin"))
        assert (tmp_path / "sealed.bin").read_bytes() == (
            tmp_path / "resident.bin"
        ).read_bytes()

    def test_binary_writer_rebatches_across_slices(self, pairs, tmp_path):
        # 50,000-event chunks straddle the 65,536-event slices.
        trace, sealed = pairs["Normal Mapping"]
        assert len(sealed.events) > 2 * 65536
        for label, source in (("resident", trace), ("sealed", sealed)):
            write_binary_trace(source, str(tmp_path / f"{label}.bin"), chunk_events=50_000)
        assert (tmp_path / "sealed.bin").read_bytes() == (
            tmp_path / "resident.bin"
        ).read_bytes()

    @pytest.mark.parametrize("name", workload_names())
    def test_pickle_round_trip_stays_sealed(self, pairs, name):
        trace, sealed = pairs[name]
        loaded = pickle.loads(pickle.dumps(sealed))
        assert isinstance(loaded.events, _SealedEvents)
        assert loaded == sealed and loaded == trace
        assert loaded.digest() == trace.digest()
        # The sealed form is what crosses the pipe: smaller than the list.
        assert len(pickle.dumps(sealed)) < len(pickle.dumps(trace))

    def test_empty_trace_seals_and_writes(self, tmp_path):
        empty = Trace(mask=EV_LOOP, workload="w", fingerprint="f")
        sealed = replace(empty)
        sealed.seal()
        assert sealed.digest() == empty.digest()
        assert len(sealed.events) == 0 and list(sealed.events) == []
        assert [chunk.events for chunk in sealed.chunks()] == [()]
        write_binary_trace(empty, str(tmp_path / "resident.bin"))
        write_binary_trace(sealed, str(tmp_path / "sealed.bin"))
        assert (tmp_path / "sealed.bin").read_bytes() == (
            tmp_path / "resident.bin"
        ).read_bytes()

    @pytest.mark.parametrize("damage", ["flip", "truncate", "misplaced", "miscounted"])
    def test_corrupt_slice_raises(self, recorded_session, pairs, damage):
        session, _ = recorded_session
        _trace, sealed = pairs["Normal Mapping"]
        slices = list(sealed.events.slices)
        count, raw_length, blob = slices[1]
        if damage == "flip":
            middle = len(blob) // 2
            blob = blob[:middle] + bytes([blob[middle] ^ 0xFF]) + blob[middle + 1 :]
            slices[1] = (count, raw_length, blob)
        elif damage == "truncate":
            slices[1] = (count, raw_length, blob[: len(blob) // 2])
        elif damage == "misplaced":
            # The short last slice's intact stream under slice 1's lengths.
            slices[1] = (count, raw_length, slices[-1][2])
        else:
            slices[1] = (count + 1, raw_length, blob)
        broken = replace(sealed)
        broken.events = type(sealed.events)(tuple(slices), len(sealed.events))
        with pytest.raises(TraceFormatError):
            list(broken.events)
        with pytest.raises(TraceFormatError):
            session.replay_trace(broken, RunSpec.lightweight())
        if damage != "miscounted":  # the digest reads bytes, not records
            with pytest.raises(TraceFormatError):
                broken.digest()


def _v1_document(path):
    """The parsed JSON of a committed single-document v1 fixture."""
    return json.loads(path.read_text(encoding="utf-8"))


class TestGracefulErrors:
    def test_truncated_file_raises_format_error(self, v1_loops_fixture, tmp_path):
        text = v1_loops_fixture.read_text(encoding="utf-8")
        path = tmp_path / "truncated.trace.json"
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(TraceFormatError):
            Trace.load(str(path))

    def test_corrupt_json_raises_format_error(self, tmp_path):
        path = tmp_path / "corrupt.trace.json"
        path.write_text("this is not json", encoding="utf-8")
        with pytest.raises(TraceFormatError):
            Trace.load(str(path))

    def test_wrong_format_marker_raises_format_error(self):
        with pytest.raises(TraceFormatError):
            Trace.from_dict({"format": "something-else", "version": 1})
        with pytest.raises(TraceFormatError):
            Trace.from_dict(["not", "a", "dict"])

    def test_version_mismatch_raises_version_error(self, v1_loops_fixture):
        data = _v1_document(v1_loops_fixture)
        data["version"] = 999
        with pytest.raises(TraceVersionError):
            Trace.from_dict(data)

    def test_malformed_records_raise_format_error(self, v1_loops_fixture):
        data = _v1_document(v1_loops_fixture)
        data["events"] = [[999, 0.0]]
        with pytest.raises(TraceFormatError):
            Trace.from_dict(data)

    def test_out_of_range_intern_indexes_raise_format_error(self, v1_loops_fixture):
        # Out-of-range (and especially *negative*) intern indexes must fail
        # at load, not alias to the wrong entry mid-replay.
        from repro.jsvm.hooks import TR_PROP_READ, TR_VAR_WRITE

        for bad_record, reason in (
            ([TR_PROP_READ, 0.0, 99_999_999, 0, -1], "object index"),
            ([TR_PROP_READ, 0.0, -3, 0, -1], "object index"),  # would alias
            ([TR_VAR_WRITE, 0.0, 0, 99_999_999, -1], "environment index"),
            ([TR_VAR_WRITE, 0.0, -2, 0, -1], "string index"),  # would alias
            ([TR_PROP_READ, 0.0, 0, 0], "malformed trace record"),  # arity
        ):
            data = _v1_document(v1_loops_fixture)
            # The loop-only fixture has no objects or environments; give each
            # table one entry so only the targeted index is out of range.
            data["objects"] = [[0, 0, 0, -1]]
            data["env_count"] = 1
            data["events"] = [bad_record]
            with pytest.raises(TraceFormatError, match=reason):
                Trace.from_dict(data)

    def test_insufficient_mask_raises_mask_error(self):
        runner = CaseStudyRunner()
        workload = get_workload("Normal Mapping")
        narrow = runner.record_trace(workload, mask=EV_LOOP)
        from repro.browser.gecko_profiler import GeckoProfiler
        from repro.jsvm.hooks import TraceReplayer

        with pytest.raises(TraceMaskError, match="does not cover"):
            TraceReplayer(narrow).replay([GeckoProfiler()])

    def test_fingerprint_mismatch_raises(self, recorded_session, v1_loops_fixture):
        session, _ = recorded_session
        data = _v1_document(v1_loops_fixture)
        data["fingerprint"] = "0" * 64
        stale = Trace.from_dict(data)
        with pytest.raises(TraceMismatchError, match="fingerprint"):
            session.replay_trace(stale, RunSpec.lightweight())


class TestTraceStore:
    def test_mask_superset_lookup(self):
        store = TraceStore()
        loop_only = Trace(mask=EV_LOOP, fingerprint="fp")
        store.put(loop_only)
        assert store.find("fp", EV_LOOP) is loop_only
        assert store.find("fp", EV_LOOP | EV_FUNCTION) is None
        assert store.find("other", EV_LOOP) is None

    def test_put_drops_strictly_covered_traces(self):
        store = TraceStore()
        store.put(Trace(mask=EV_LOOP, fingerprint="fp"))
        union = Trace(mask=EV_LOOP | EV_FUNCTION | EV_STATEMENT, fingerprint="fp")
        store.put(union)
        assert len(store) == 1
        assert store.find("fp", EV_LOOP) is union

    def test_prefers_smallest_covering_mask(self):
        store = TraceStore()
        union = Trace(mask=EV_LOOP | EV_FUNCTION | EV_STATEMENT, fingerprint="fp")
        store.put(union)
        narrow = Trace(mask=EV_LOOP | EV_FUNCTION, fingerprint="fp")
        store.put(narrow)
        assert store.find("fp", EV_LOOP) is narrow
        assert store.find("fp", EV_LOOP | EV_STATEMENT) is union


class TestReplayBackedSchedule:
    def test_default_schedule_records_then_replays(self):
        assert [stage.name for stage in default_stages()][0] == "record"

    def test_pipeline_executes_each_workload_exactly_once(self, monkeypatch):
        # Every guest execution runs each intercepted document through
        # BrowserSession.run_document, whichever path set it up — so one
        # execution of the workload is exactly one run per script.
        workload = get_workload("Normal Mapping")
        calls = {"record": 0, "documents": 0}
        original_record = CaseStudyRunner.record_trace
        original_run_document = BrowserSession.run_document

        def counting_record(self, workload, mask=None):
            calls["record"] += 1
            return original_record(self, workload, mask)

        def counting_run_document(self, document):
            calls["documents"] += 1
            return original_run_document(self, document)

        monkeypatch.setattr(CaseStudyRunner, "record_trace", counting_record)
        monkeypatch.setattr(BrowserSession, "run_document", counting_run_document)
        pipeline = AnalysisPipeline(workers=1)
        result = pipeline.run([workload.name], force=True)
        analysis = result.analyses[0]
        assert calls["record"] == 1
        assert calls["documents"] == len(workload.scripts)
        assert analysis.nests, "replayed schedule must still find hot nests"
        assert analysis.table2.total_seconds > 0

    def test_fan_out_worker_replays_a_shipped_trace(self, monkeypatch):
        # The parent store holds the trace, so every pool worker gets it in
        # its payload.  Every execution path is forbidden before the pool
        # forks: the workers must complete on replay alone.
        workload = get_workload("Normal Mapping")
        store = TraceStore()
        store.put(CaseStudyRunner(trace_store=TraceStore()).record_trace(workload))

        def forbidden_record(self, *args, **kwargs):
            raise AssertionError("worker re-recorded a shipped trace")

        def forbidden_run_document(self, *args, **kwargs):
            raise AssertionError("worker executed guest code despite shipped trace")

        monkeypatch.setattr(CaseStudyRunner, "record_trace", forbidden_record)
        monkeypatch.setattr(BrowserSession, "run_document", forbidden_run_document)
        pipeline = AnalysisPipeline(workers=2, trace_store=store)
        try:
            analyses = pipeline.analyze_many([workload, workload])
            assert pipeline._pool is not None, "the batch must run on the pool"
            assert pipeline._pool.traces_shipped == 2
        finally:
            pipeline.close()
        assert [analysis.name for analysis in analyses] == ["Normal Mapping"] * 2
        assert all(analysis.nests for analysis in analyses)
        assert analyses[0].table2 == analyses[1].table2


class TestSharedDependencePass:
    def test_multi_focus_pass_equals_one_pass_per_nest(self):
        # CamanJS has five hot nests, so five focused analyzers share one
        # replay — and the stand-in objects whose creation stamps they all
        # write.  Each analyzer's memoised state must stay its own: the
        # shared pass gives the payloads of one single-analyzer pass per nest.
        runner = CaseStudyRunner(trace_store=TraceStore())
        workload = get_workload("CamanJS")
        trace = runner.record_trace(workload)
        registry, profiler, observer = runner.profile_loops_from_trace(workload, trace)
        items = [
            (profile, observer.observations[profile.loop_id], 0.0)
            for profile in runner.select_hot_nests(profiler, observer)
        ]
        assert len(items) == 5
        shared = runner.analyze_nests_from_trace(workload, trace, registry, items)
        alone = [
            runner.analyze_nests_from_trace(workload, trace, registry, [item])[0]
            for item in items
        ]

        def payloads(nests):
            return [
                AnalysisSession._dependence_payload(nest.dependence, registry)
                for nest in nests
            ]

        assert payloads(shared) == payloads(alone)
        assert [n.parallelization for n in shared] == [n.parallelization for n in alone]


class TestSpecTracePolicy:
    def test_record_replay_round_trip_spec_dict(self):
        spec = RunSpec.lightweight().replay()
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["trace_policy"] == "replay"
        # Live specs keep their historical serialized shape, byte for byte.
        assert "trace_policy" not in RunSpec.lightweight().to_dict()

    def test_policy_requires_a_bus_tracer(self):
        with pytest.raises(ValueError, match="bus tracer"):
            RunSpec.uninstrumented().replay()
        with pytest.raises(ValueError, match="unknown trace policy"):
            RunSpec(tracers=frozenset({LIGHTWEIGHT}), trace_policy="bogus")

    def test_policy_composes_with_or(self):
        merged = RunSpec.lightweight().replay() | RunSpec.loop_profile()
        assert merged.trace_policy == "replay"
        with pytest.raises(ValueError, match="trace_policy"):
            _ = RunSpec.lightweight().replay() | RunSpec.loop_profile().record()

    def test_recorded_run_attaches_trace_artifact(self):
        with AnalysisSession() as session:
            result = session.run("Normal Mapping", RunSpec.lightweight().record())
        assert result.provenance.startswith("recorded:")
        assert result.artifacts.trace is not None
        assert result.artifacts.trace.covers(pipeline_trace_mask())
