"""Streaming (chunked) trace replay: format, failure modes, payload identity.

The load-bearing claims of the bounded-memory replay layer:

* a chunked trace file round-trips to the exact digest of the trace it was
  written from, and a trace that fits in one chunk stays byte-compatible
  with the legacy ``Trace.save`` format;
* replaying a chunked file source produces payloads **byte-identical** to
  replaying the resident trace it was written from (a single chunk);
* every corruption mode (truncation mid-chunk, missing footer, sequence
  gaps, intern deltas referencing unseen ids) raises
  :class:`TraceFormatError` — and an insufficient recorded mask raises
  :class:`TraceMaskError` — with no partial payload escaping.
"""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path

import pytest

from repro.analysis.casestudy import CaseStudyRunner, pipeline_trace_mask
from repro.api import AnalysisSession, RunSpec
from repro.api.spec import DEPENDENCE, GECKO, LIGHTWEIGHT, LOOP_PROFILE
from repro.jsvm.hooks import (
    EV_LOOP,
    Trace,
    TraceFileSource,
    TraceFormatError,
    TraceMaskError,
    TraceReplayer,
    TraceWriter,
    open_trace_source,
    stream_chunk_events,
)
from repro.workloads import get_workload

WORKLOAD = "MyScript"
CHUNK_EVENTS = 512
COMPOSED = RunSpec.composed(LIGHTWEIGHT, GECKO, LOOP_PROFILE, DEPENDENCE)


def payload_digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    """One recorded full-mask trace of the smallest bundled workload."""
    runner = CaseStudyRunner()
    workload = get_workload(WORKLOAD)
    return workload, runner.record_trace(workload, pipeline_trace_mask())


@pytest.fixture(scope="module")
def chunked_path(recorded, tmp_path_factory):
    """The recorded trace written as a multi-chunk (uncompressed) file."""
    _workload, trace = recorded
    path = tmp_path_factory.mktemp("stream") / "myscript.trace.json"
    chunks = TraceWriter.write_trace(
        trace, str(path), chunk_events=CHUNK_EVENTS, encoding="json"
    )
    assert chunks == -(-len(trace.events) // CHUNK_EVENTS)
    assert chunks > 1, "fixture must exercise the multi-chunk layout"
    return str(path)


def _mutated(chunked_path, tmp_path, name, mutate):
    """Copy the chunked file through a line-level mutation."""
    lines = Path(chunked_path).read_text(encoding="utf-8").splitlines()
    out = tmp_path / name
    out.write_text("\n".join(mutate(lines)) + "\n", encoding="utf-8")
    return str(out)


class TestChunkedFormat:
    def test_open_returns_streaming_source_with_header_identity(
        self, recorded, chunked_path
    ):
        _workload, trace = recorded
        source = open_trace_source(chunked_path)
        assert isinstance(source, TraceFileSource)
        assert source.workload == trace.workload
        assert source.fingerprint == trace.fingerprint
        assert source.mask == trace.mask
        assert source.event_count == len(trace.events)
        assert source.digest() == trace.digest()
        assert source.covers(pipeline_trace_mask())

    def test_materialized_round_trip_matches_digest(self, recorded, chunked_path):
        _workload, trace = recorded
        loaded = open_trace_source(chunked_path).load()
        assert loaded.digest() == trace.digest()
        assert loaded.to_dict() == trace.to_dict()

    def test_single_chunk_write_is_byte_identical_to_legacy_save(
        self, recorded, tmp_path
    ):
        _workload, trace = recorded
        legacy = tmp_path / "legacy.trace.json"
        chunked = tmp_path / "one-chunk.trace.json"
        trace.save(str(legacy))
        assert (
            TraceWriter.write_trace(
                trace,
                str(chunked),
                chunk_events=len(trace.events),
                encoding="json",
            )
            == 1
        )
        assert chunked.read_bytes() == legacy.read_bytes()
        assert isinstance(open_trace_source(str(chunked)), Trace)

    def test_streamed_info_helpers_match_the_trace(self, recorded, chunked_path):
        _workload, trace = recorded
        source = open_trace_source(chunked_path)
        assert source.event_counts() == trace.event_counts()
        assert source.table_counts() == {
            "strings": len(trace.strings),
            "nodes": len(trace.nodes),
            "objects": len(trace.objects),
        }

    def test_chunk_events_knob_reads_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CHUNK_EVENTS", "1234")
        assert stream_chunk_events() == 1234
        monkeypatch.setenv("REPRO_TRACE_CHUNK_EVENTS", "not-a-number")
        assert stream_chunk_events() == 65536
        monkeypatch.delenv("REPRO_TRACE_CHUNK_EVENTS")
        assert stream_chunk_events() == 65536

    def test_invalid_chunk_events_warns_once_naming_the_value(
        self, monkeypatch, caplog
    ):
        import repro.jsvm.hooks as hooks

        monkeypatch.setattr(hooks, "_warned_env_values", set())
        monkeypatch.setenv("REPRO_TRACE_CHUNK_EVENTS", "banana")
        with caplog.at_level(logging.WARNING, logger="repro.jsvm.hooks"):
            assert stream_chunk_events() == 65536
            assert stream_chunk_events() == 65536  # second read stays silent
        warned = [
            record
            for record in caplog.records
            if "REPRO_TRACE_CHUNK_EVENTS" in record.getMessage()
        ]
        assert len(warned) == 1, "the rejected value must be reported exactly once"
        message = warned[0].getMessage()
        assert "'banana'" in message
        assert "65536" in message

    def test_unset_chunk_events_stays_silent(self, monkeypatch, caplog):
        import repro.jsvm.hooks as hooks

        monkeypatch.setattr(hooks, "_warned_env_values", set())
        monkeypatch.delenv("REPRO_TRACE_CHUNK_EVENTS", raising=False)
        with caplog.at_level(logging.WARNING, logger="repro.jsvm.hooks"):
            assert stream_chunk_events() == 65536
        assert not [
            record
            for record in caplog.records
            if "REPRO_TRACE_CHUNK_EVENTS" in record.getMessage()
        ]


class TestStreamedPayloadIdentity:
    def test_session_payloads_byte_identical_to_batch_replay(
        self, recorded, chunked_path
    ):
        _workload, trace = recorded
        session = AnalysisSession()
        batch = session.replay_trace(trace, COMPOSED)
        streamed = session.replay_trace(open_trace_source(chunked_path), COMPOSED)
        for mode in (LIGHTWEIGHT, GECKO, LOOP_PROFILE, DEPENDENCE):
            assert payload_digest(streamed.payloads[mode]) == payload_digest(
                batch.payloads[mode]
            ), f"{mode} streamed replay diverged from batch"
        assert streamed.report_text == batch.report_text
        assert streamed.provenance == batch.provenance

    def test_file_source_always_streams_and_is_replayable_twice(
        self, recorded, chunked_path
    ):
        from repro.ceres.loop_profiler import LoopProfiler

        _workload, trace = recorded
        source = open_trace_source(chunked_path)
        replayer = TraceReplayer(source)

        def rows(profiler):
            return [profiler.profiles[k].as_row() for k in sorted(profiler.profiles)]

        batch_profiler = LoopProfiler()
        TraceReplayer(trace).replay([batch_profiler])
        first = LoopProfiler()
        replayer.replay([first])
        second = LoopProfiler()
        replayer.replay([second])  # same replayer: re-iterates the file
        assert rows(first) == rows(batch_profiler)
        assert rows(second) == rows(batch_profiler)


class TestStreamingFailureModes:
    def test_truncation_mid_chunk_raises_format_error(self, chunked_path, tmp_path):
        bad = _mutated(
            chunked_path,
            tmp_path,
            "truncated.trace.json",
            lambda lines: lines[:1] + [lines[1][: len(lines[1]) // 2]],
        )
        source = open_trace_source(bad)  # the header is intact
        with pytest.raises(TraceFormatError):
            source.verify()

    def test_missing_footer_raises_format_error(self, chunked_path, tmp_path):
        bad = _mutated(
            chunked_path, tmp_path, "no-footer.trace.json", lambda lines: lines[:-1]
        )
        with pytest.raises(TraceFormatError, match="missing footer"):
            open_trace_source(bad).verify()

    def test_chunk_sequence_gap_raises_format_error(self, chunked_path, tmp_path):
        bad = _mutated(
            chunked_path,
            tmp_path,
            "gap.trace.json",
            lambda lines: lines[:2] + lines[3:],
        )
        with pytest.raises(TraceFormatError, match="sequence"):
            open_trace_source(bad).verify()

    def test_delta_referencing_unseen_id_raises_format_error(
        self, chunked_path, tmp_path
    ):
        def poison(lines):
            # Point one event record of the *last* chunk at an intern id the
            # stream has not shipped — the per-chunk validation must see it.
            chunk = json.loads(lines[-2])
            for position, record in enumerate(chunk["events"]):
                node_at, obj_at, env_at, str_at = Trace._RECORD_LAYOUT[record[0]][1:]
                indexes = list(node_at) + list(obj_at) + list(env_at) + list(str_at)
                if indexes:
                    record = list(record)
                    record[indexes[0]] = 10**9
                    chunk["events"][position] = record
                    break
            else:  # pragma: no cover - every opcode references some table
                pytest.fail("no event with an intern reference in the chunk")
            lines[-2] = json.dumps(chunk, separators=(",", ":"))
            return lines

        bad = _mutated(chunked_path, tmp_path, "unseen-id.trace.json", poison)
        with pytest.raises(TraceFormatError):
            open_trace_source(bad).verify()

    def test_insufficient_mask_streamed_raises_mask_error(self, tmp_path):
        runner = CaseStudyRunner()
        workload = get_workload(WORKLOAD)
        loops_only = runner.record_trace(workload, EV_LOOP)
        path = tmp_path / "loops-only.trace.json"
        TraceWriter.write_trace(loops_only, str(path), chunk_events=64, encoding="json")
        source = open_trace_source(str(path))
        session = AnalysisSession()
        with pytest.raises(TraceMaskError):
            session.replay_trace(source, RunSpec.composed(DEPENDENCE))

    def test_corrupt_stream_yields_no_session_payload(self, chunked_path, tmp_path):
        bad = _mutated(
            chunked_path, tmp_path, "no-payload.trace.json", lambda lines: lines[:-1]
        )
        session = AnalysisSession()
        with pytest.raises(TraceFormatError):
            # The error surfaces as the exception itself — no RunResult (and
            # therefore no partial payload or report) is ever constructed.
            session.replay_trace(open_trace_source(bad), COMPOSED)
