"""Streaming (chunked) trace replay: format, failure modes, payload identity.

The package writes only the binary container now; the v1 chunked NDJSON
format stays readable, and these tests pin its reader through the committed
fixture ``tests/fixtures/myscript-v1-chunks.trace.json.gz`` (and gzip'd tmp
copies of it).  The fixture is compared with itself — streamed against
``load()``ed, re-derived digest against header digest — never with a fresh
recording, so a later VM change cannot make it stale.  The load-bearing
claims of the bounded-memory replay layer:

* a chunked trace file materializes to the exact digest its header records;
* replaying a chunked file source produces payloads **byte-identical** to
  replaying the resident trace it materializes to (a single chunk);
* every corruption mode (truncation mid-chunk, missing footer, sequence
  gaps, intern deltas referencing unseen ids) raises
  :class:`TraceFormatError` — and an insufficient recorded mask raises
  :class:`TraceMaskError` — with no partial payload escaping.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import logging

import pytest

from repro.api import AnalysisSession, RunSpec
from repro.api.spec import DEPENDENCE, GECKO, LIGHTWEIGHT, LOOP_PROFILE
from repro.jsvm.hooks import (
    EV_LOOP,
    Trace,
    TraceFileSource,
    TraceFormatError,
    TraceMaskError,
    TraceReplayer,
    open_trace_source,
    stream_chunk_events,
)

CHUNK_EVENTS = 512
COMPOSED = RunSpec.composed(LIGHTWEIGHT, GECKO, LOOP_PROFILE, DEPENDENCE)


def payload_digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


@pytest.fixture(scope="module")
def chunked_path(v1_chunks_fixture):
    """The committed multi-chunk v1 file (gzip-wrapped NDJSON)."""
    return str(v1_chunks_fixture)


@pytest.fixture(scope="module")
def loaded(chunked_path):
    """The chunked fixture materialized whole (its digest checked on load)."""
    return open_trace_source(chunked_path).load()


def _mutated(chunked_path, tmp_path, name, mutate):
    """Copy the chunked file through gzip and a line-level mutation."""
    with gzip.open(chunked_path, "rt", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    out = tmp_path / name
    with gzip.open(out, "wt", encoding="utf-8") as handle:
        handle.write("\n".join(mutate(lines)) + "\n")
    return str(out)


class TestChunkedFormat:
    def test_open_returns_streaming_source_with_header_identity(
        self, chunked_path, loaded
    ):
        source = open_trace_source(chunked_path)
        assert isinstance(source, TraceFileSource)
        assert source.workload == loaded.workload == "MyScript"
        assert source.fingerprint == loaded.fingerprint
        assert source.mask == loaded.mask
        assert source.chunk_events == CHUNK_EVENTS
        assert source.event_count == len(loaded.events)
        assert source.chunk_count() == -(-source.event_count // CHUNK_EVENTS)
        assert source.chunk_count() > 1, "fixture must be multi-chunk"
        assert source.digest() == loaded.digest()

    def test_materialized_round_trip_matches_digest(self, chunked_path):
        source = open_trace_source(chunked_path)
        loaded = source.load()
        assert loaded.digest() == source.digest()  # the header value, adopted
        # v1 headers carry the legacy identity; re-derive it from the content.
        assert loaded.legacy_digest() == source.digest()
        streamed = [record for chunk in source.chunks() for record in chunk.events]
        assert streamed == loaded.events

    def test_streamed_info_helpers_match_the_trace(self, chunked_path, loaded):
        source = open_trace_source(chunked_path)
        assert source.event_counts() == loaded.event_counts()
        assert source.table_counts() == {
            "strings": len(loaded.strings),
            "nodes": len(loaded.nodes),
            "objects": len(loaded.objects),
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
        self, loaded, chunked_path
    ):
        session = AnalysisSession()
        batch = session.replay_trace(loaded, COMPOSED)
        streamed = session.replay_trace(open_trace_source(chunked_path), COMPOSED)
        for mode in (LIGHTWEIGHT, GECKO, LOOP_PROFILE, DEPENDENCE):
            assert payload_digest(streamed.payloads[mode]) == payload_digest(
                batch.payloads[mode]
            ), f"{mode} streamed replay diverged from batch"
        assert streamed.report_text == batch.report_text
        assert streamed.provenance == batch.provenance

    def test_file_source_always_streams_and_is_replayable_twice(
        self, loaded, chunked_path
    ):
        from repro.ceres.loop_profiler import LoopProfiler

        source = open_trace_source(chunked_path)
        replayer = TraceReplayer(source)

        def rows(profiler):
            return [profiler.profiles[k].as_row() for k in sorted(profiler.profiles)]

        batch_profiler = LoopProfiler()
        TraceReplayer(loaded).replay([batch_profiler])
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
            "truncated.trace.json.gz",
            lambda lines: lines[:1] + [lines[1][: len(lines[1]) // 2]],
        )
        source = open_trace_source(bad)  # the header is intact
        with pytest.raises(TraceFormatError):
            source.verify()

    def test_missing_footer_raises_format_error(self, chunked_path, tmp_path):
        bad = _mutated(
            chunked_path,
            tmp_path,
            "no-footer.trace.json.gz",
            lambda lines: lines[:-1],
        )
        with pytest.raises(TraceFormatError, match="missing footer"):
            open_trace_source(bad).verify()

    def test_chunk_sequence_gap_raises_format_error(self, chunked_path, tmp_path):
        bad = _mutated(
            chunked_path,
            tmp_path,
            "gap.trace.json.gz",
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

        bad = _mutated(chunked_path, tmp_path, "unseen-id.trace.json.gz", poison)
        with pytest.raises(TraceFormatError):
            open_trace_source(bad).verify()

    def test_insufficient_mask_streamed_raises_mask_error(
        self, v1_loops_fixture, chunked_path, tmp_path
    ):
        def loops_only_header(lines):
            header = json.loads(lines[0])
            header["mask"] = EV_LOOP
            lines[0] = json.dumps(header, separators=(",", ":"))
            return lines

        narrowed = _mutated(
            chunked_path, tmp_path, "loops.trace.json.gz", loops_only_header
        )
        resident = open_trace_source(str(v1_loops_fixture))
        streamed = open_trace_source(narrowed)
        assert isinstance(resident, Trace) and resident.mask == EV_LOOP
        assert isinstance(streamed, TraceFileSource) and streamed.mask == EV_LOOP
        session = AnalysisSession()
        for source in (resident, streamed):
            with pytest.raises(TraceMaskError):
                session.replay_trace(source, RunSpec.composed(DEPENDENCE))

    def test_corrupt_stream_yields_no_session_payload(self, chunked_path, tmp_path):
        bad = _mutated(
            chunked_path,
            tmp_path,
            "no-payload.trace.json.gz",
            lambda lines: lines[:-1],
        )
        session = AnalysisSession()
        with pytest.raises(TraceFormatError):
            # The error surfaces as the exception itself — no RunResult (and
            # therefore no partial payload or report) is ever constructed.
            session.replay_trace(open_trace_source(bad), COMPOSED)
