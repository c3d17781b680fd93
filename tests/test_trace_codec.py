"""Binary columnar trace codec (schema v2): failure matrix and cross-format identity.

The load-bearing claims of the v2 encoding:

* every corruption mode — bad magic, truncated column block, varint overrun,
  footer/offset-index mismatch, bytes not matching the footer content hash,
  content not matching the header digest, a compressed column inflating
  past its bound — raises :class:`TraceFormatError` with **no partial
  payload escaping**, mirroring the NDJSON corruption matrix in
  ``test_trace_stream.py``;
* container-2 files (no footer hash, committed under ``tests/fixtures/``)
  still load through the full digest pass;
* the committed v1 chunked-NDJSON fixture re-encoded as v2 round-trips to
  the exact same ``Trace.digest()`` and byte-identical analysis payloads
  (v1 stays readable forever; :func:`write_binary_trace` is the only
  writer);
* binary sources are mmap-backed and random-access by chunk.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import struct
import tracemalloc
import zlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.casestudy import CaseStudyRunner, pipeline_trace_mask
from repro.api import AnalysisSession, RunSpec
from repro.api.spec import DEPENDENCE, GECKO, LIGHTWEIGHT, LOOP_PROFILE
from repro.jsvm.hooks import (
    Trace,
    TraceFormatError,
    TraceVersionError,
    open_trace_source,
)
from repro.jsvm.tracecodec import (
    BINARY_END_MAGIC,
    BINARY_MAGIC,
    BinaryTraceSource,
    _K_CLKSHUF,
    _K_FIX32,
    _K_VZ1,
    _decode_block,
    _decode_string_table,
    _decode_varint,
    _encode_varint,
    _pack_block,
    write_binary_trace,
)
from repro.workloads import get_workload

WORKLOAD = "MyScript"
CHUNK_EVENTS = 512
COMPOSED = RunSpec.composed(LIGHTWEIGHT, GECKO, LOOP_PROFILE, DEPENDENCE)

#: MyScript recorded by the container-2 writer (no footer content hash),
#: 3 chunks of 4096 events.  Committed once; tests never write container 2.
CONTAINER2_FIXTURE = Path(__file__).parent / "fixtures" / "myscript-container2.trace.bin"


def payload_digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    runner = CaseStudyRunner()
    workload = get_workload(WORKLOAD)
    return workload, runner.record_trace(workload, pipeline_trace_mask())


@pytest.fixture(scope="module")
def binary_path(recorded, tmp_path_factory):
    """The recorded trace written as a multi-chunk v2 binary file."""
    _workload, trace = recorded
    path = tmp_path_factory.mktemp("codec") / "myscript.trace.bin"
    chunks = write_binary_trace(trace, str(path), chunk_events=CHUNK_EVENTS)
    assert chunks == -(-len(trace.events) // CHUNK_EVENTS)
    assert chunks > 1, "fixture must exercise the multi-chunk layout"
    return str(path)


def _header_span(data: bytes):
    """(header_json_start, header_json_end) byte offsets of a v2 file."""
    (header_len,) = struct.unpack_from("<I", data, len(BINARY_MAGIC))
    start = len(BINARY_MAGIC) + 4
    return start, start + header_len


def _footer_span(data: bytes):
    """(footer_body_start, footer_body_end) byte offsets of a v2 file."""
    end = len(data) - len(BINARY_END_MAGIC) - 4
    (footer_len,) = struct.unpack_from("<I", data, end)
    return end - footer_len, end


def _nibble_swapped_digest(data: bytes) -> bytes:
    """``data`` with one hex nibble of the header digest changed in place
    (same length, so all framing stays valid)."""
    start, header_end = _header_span(data)
    header = json.loads(data[start:header_end].decode("utf-8"))
    marker = f'"digest":"{header["digest"]}"'.encode("utf-8")
    nibble_at = data.index(marker) + len(b'"digest":"')
    mutated = bytearray(data)
    mutated[nibble_at] = ord("0") if data[nibble_at] != ord("0") else ord("1")
    return bytes(mutated)


def _uncompressed_clock_byte(data: bytes) -> int:
    """File offset of a low-mantissa byte in an uncompressed, byte-shuffled
    clock column: flipping it yields another valid float, so the chunk
    still decodes structurally."""
    source = BinaryTraceSource.from_bytes(data)
    for offset in source._offsets:
        (body_len,) = struct.unpack_from("<I", data, offset)
        body = data[offset + 4 : offset + 4 + body_len]
        pos = _decode_varint(body, 0)[1]
        pos = _decode_string_table(body, pos)[1]
        for table_columns in (3, 4):  # nodes, objects
            pos = _decode_varint(body, pos)[1]
            for _ in range(table_columns):
                pos = _decode_block(body, pos)[1]
        pos = _decode_varint(body, pos)[1]  # env delta
        pos = _decode_varint(body, pos)[1]  # event count
        n_groups, pos = _decode_varint(body, pos)
        for _ in range(n_groups):
            opcode = body[pos]
            pos = _decode_varint(body, pos + 1)[1]
            pos = _decode_block(body, pos)[1]  # positions
            kind, zflag = body[pos], body[pos + 2]
            payload_at = _decode_varint(body, _decode_varint(body, pos + 3)[1])[1]
            if kind == _K_CLKSHUF and not zflag:
                return offset + 4 + payload_at
            for _ in range(1, Trace._RECORD_LAYOUT[opcode][0]):
                pos = _decode_block(body, pos)[1]
    raise AssertionError("no uncompressed clock column in the fixture")


def _zlib_bomb(inflated_mb: int) -> bytes:
    """A zlib stream inflating to ``inflated_mb`` MiB of zeros, built
    without ever holding the inflated bytes."""
    squeezer = zlib.compressobj(9)
    block = bytes(1 << 20)
    parts = [squeezer.compress(block) for _ in range(inflated_mb)]
    parts.append(squeezer.flush())
    return b"".join(parts)


# ------------------------------------------------------------ format surface
class TestBinaryFormat:
    def test_open_sniffs_binary_magic_and_exposes_header_identity(
        self, recorded, binary_path
    ):
        _workload, trace = recorded
        source = open_trace_source(binary_path)
        assert isinstance(source, BinaryTraceSource)
        assert source.encoding == "binary"
        assert source.workload == trace.workload
        assert source.fingerprint == trace.fingerprint
        assert source.mask == trace.mask
        assert source.event_count == len(trace.events)
        assert source.digest() == trace.digest()
        assert source.covers(pipeline_trace_mask())
        assert source.chunk_count() == -(-len(trace.events) // CHUNK_EVENTS)

    def test_binary_source_is_mmap_backed(self, binary_path):
        source = open_trace_source(binary_path)
        assert source._mmap is not None, "file-backed v2 sources must mmap"
        source.close()

    def test_materialized_round_trip_matches_digest(self, recorded, binary_path):
        _workload, trace = recorded
        loaded = open_trace_source(binary_path).load()
        loaded._digest_cache = None  # re-derive, not the adopted header value
        assert loaded.digest() == trace.digest()
        assert loaded == trace

    def test_info_helpers_match_the_trace(self, recorded, binary_path):
        _workload, trace = recorded
        source = open_trace_source(binary_path)
        assert source.event_counts() == trace.event_counts()
        assert source.table_counts() == {
            "strings": len(trace.strings),
            "nodes": len(trace.nodes),
            "objects": len(trace.objects),
        }

    def test_gzip_wrapped_binary_payload_still_opens(self, recorded, binary_path, tmp_path):
        # Nothing writes gzip-wrapped segments any more; files made by
        # earlier builds (or by hand) stay readable.
        _workload, trace = recorded
        path = tmp_path / "wrapped.trace.bin.gz"
        with gzip.open(path, "wb") as handle:
            handle.write(open(binary_path, "rb").read())
        source = open_trace_source(str(path))
        assert isinstance(source, BinaryTraceSource)
        assert source.load().digest() == trace.digest()

    def test_gz_name_still_gets_a_raw_mmappable_container(self, recorded, tmp_path):
        _workload, trace = recorded
        path = tmp_path / "named.trace.bin.gz"
        write_binary_trace(trace, str(path), chunk_events=CHUNK_EVENTS)
        assert path.read_bytes()[: len(BINARY_MAGIC)] == BINARY_MAGIC
        source = open_trace_source(str(path))
        assert source._mmap is not None
        assert source.load().digest() == trace.digest()
        source.close()

    def test_writer_defaults_to_binary(self, recorded, tmp_path):
        # The file name never selects an encoding: a JSON-looking name still
        # gets the binary container (the only one written).
        _workload, trace = recorded
        path = tmp_path / "default.trace.json"
        write_binary_trace(trace, str(path))
        assert path.read_bytes()[: len(BINARY_MAGIC)] == BINARY_MAGIC
        assert open_trace_source(str(path)).load().digest() == trace.digest()


# ----------------------------------------------------------- failure matrix
class TestBinaryFailureMatrix:
    def test_bad_magic_raises_format_error(self, binary_path, tmp_path):
        data = bytearray(open(binary_path, "rb").read())
        data[0] ^= 0xFF
        bad = tmp_path / "bad-magic.trace.bin"
        bad.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="magic"):
            open_trace_source(str(bad))

    def test_truncated_file_raises_format_error(self, binary_path, tmp_path):
        data = open(binary_path, "rb").read()
        bad = tmp_path / "truncated.trace.bin"
        bad.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFormatError):
            open_trace_source(str(bad))

    def test_truncated_column_block_raises_before_partial_payload(
        self, binary_path, tmp_path
    ):
        # Shrink the first chunk's declared body length without moving any
        # bytes: the footer offsets stay valid, but decoding the (now
        # shorter) body runs out mid-column.
        data = bytearray(open(binary_path, "rb").read())
        _start, header_end = _header_span(bytes(data))
        (body_len,) = struct.unpack_from("<I", data, header_end)
        struct.pack_into("<I", data, header_end, body_len - 7)
        bad = tmp_path / "short-column.trace.bin"
        bad.write_bytes(bytes(data))
        source = open_trace_source(str(bad))  # header + footer are intact
        with pytest.raises(TraceFormatError):
            source.verify()

    def test_varint_overrun_raises_format_error(self):
        # A continuation byte with no terminator: the decoder must reject it
        # rather than run off the buffer.
        with pytest.raises(TraceFormatError):
            _decode_varint(b"\x80\x80\x80", 0)
        # A varint wider than 63 bits is equally malformed.
        with pytest.raises(TraceFormatError):
            _decode_varint(b"\xff" * 10 + b"\x01", 0)

    def test_truncated_block_payload_raises_format_error(self):
        block = _pack_block(1, 0, 4, bytes([2, 4, 6, 8]))
        with pytest.raises(TraceFormatError):
            _decode_block(block[:-2], 0)
        values, _end, plain = _decode_block(block, 0)
        assert values == [1, 2, 3, 4] and plain

    def test_footer_offset_mismatch_raises_format_error(self, binary_path, tmp_path):
        # Corrupt the last offset-index entry: point it past the footer.
        data = bytearray(open(binary_path, "rb").read())
        offset_at = len(data) - len(BINARY_END_MAGIC) - 4 - 8
        struct.pack_into("<Q", data, offset_at, len(data))
        bad = tmp_path / "bad-offsets.trace.bin"
        bad.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="offset index"):
            open_trace_source(str(bad))

    def test_footer_chunk_count_mismatch_raises_format_error(
        self, binary_path, tmp_path
    ):
        data = open(binary_path, "rb").read()
        end = len(data) - len(BINARY_END_MAGIC) - 4
        (footer_len,) = struct.unpack_from("<I", data, end)
        footer_start = end - footer_len
        chunk_count, at = _decode_varint(data[footer_start:end], 0)
        mutated = (
            data[:footer_start]
            + _encode_varint(chunk_count + 1)
            + data[footer_start + at : ]
        )
        # Keep the trailing framing consistent with the edited footer body.
        body = mutated[footer_start : len(mutated) - len(BINARY_END_MAGIC) - 4]
        mutated = (
            mutated[: len(mutated) - len(BINARY_END_MAGIC) - 4]
            + struct.pack("<I", len(body))
            + BINARY_END_MAGIC
        )
        bad = tmp_path / "bad-count.trace.bin"
        bad.write_bytes(mutated)
        with pytest.raises(TraceFormatError, match="footer"):
            open_trace_source(str(bad))

    def test_digest_mismatch_through_mmap_raises_format_error(
        self, binary_path, tmp_path
    ):
        # Swap one hex nibble of the header digest in place (same length, so
        # all framing stays valid); load() must notice through the mmap.
        data = bytearray(open(binary_path, "rb").read())
        start, header_end = _header_span(bytes(data))
        header = json.loads(bytes(data[start:header_end]).decode("utf-8"))
        digest = header["digest"]
        marker = f'"digest":"{digest}"'.encode("utf-8")
        at = bytes(data).index(marker)
        nibble_at = at + len(b'"digest":"')
        data[nibble_at] = ord("0") if data[nibble_at] != ord("0") else ord("1")
        bad = tmp_path / "bad-digest.trace.bin"
        bad.write_bytes(bytes(data))
        source = open_trace_source(str(bad))
        assert source._mmap is not None
        with pytest.raises(TraceFormatError, match="digest"):
            source.load()

    def test_wrong_schema_version_raises_version_error(self, binary_path, tmp_path):
        data = open(binary_path, "rb").read()
        start, header_end = _header_span(data)
        header = json.loads(data[start:header_end].decode("utf-8"))
        header["version"] = 999
        body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
        mutated = (
            BINARY_MAGIC + struct.pack("<I", len(body)) + body + data[header_end:]
        )
        bad = tmp_path / "bad-version.trace.bin"
        bad.write_bytes(mutated)
        with pytest.raises(TraceVersionError):
            open_trace_source(str(bad))

    def test_flipped_clock_byte_fails_the_content_hash(self, binary_path, tmp_path):
        # A low-mantissa flip in an uncompressed clock column decodes
        # structurally; before the footer hash only the digest pass caught it.
        data = bytearray(open(binary_path, "rb").read())
        data[_uncompressed_clock_byte(bytes(data))] ^= 0x01
        bad = tmp_path / "flipped-clock.trace.bin"
        bad.write_bytes(bytes(data))
        unchecked = open_trace_source(str(bad))
        unchecked._content_hash = None
        unchecked.verify()  # structurally sound without the hash
        with pytest.raises(TraceFormatError, match="digest"):
            open_trace_source(str(bad)).verify()
        with pytest.raises(TraceFormatError, match="digest"):
            open_trace_source(str(bad)).load()

    def test_flipped_footer_hash_byte_raises_format_error(self, binary_path, tmp_path):
        data = bytearray(open(binary_path, "rb").read())
        footer_start, _end = _footer_span(bytes(data))
        _chunks, at = _decode_varint(data, footer_start)
        _events, at = _decode_varint(data, at)
        data[at + 5] ^= 0xFF  # inside the 32-byte content hash
        bad = tmp_path / "bad-hash.trace.bin"
        bad.write_bytes(bytes(data))
        source = open_trace_source(str(bad))  # header + footer framing intact
        with pytest.raises(TraceFormatError, match="digest"):
            source.verify()
        with pytest.raises(TraceFormatError, match="digest"):
            source.load()

    def test_edited_header_field_fails_the_content_hash(self, binary_path, tmp_path):
        data = open(binary_path, "rb").read()
        start, header_end = _header_span(data)
        text = data[start:header_end].decode("utf-8")
        header = json.loads(text)
        edited = text.replace(f'"mask":{header["mask"]}', f'"mask":{header["mask"] - 1}')
        assert len(edited) == len(text), "same length keeps every offset valid"
        bad = tmp_path / "edited-mask.trace.bin"
        bad.write_bytes(data[:start] + edited.encode("utf-8") + data[header_end:])
        source = open_trace_source(str(bad))
        assert source.mask == header["mask"] - 1
        with pytest.raises(TraceFormatError, match="digest"):
            source.verify()
        with pytest.raises(TraceFormatError, match="digest"):
            source.load()

    def test_offsets_must_tile_the_chunk_frames(self, binary_path, tmp_path):
        # The offset index is outside the content hash: an in-order,
        # in-bounds entry that points inside a frame must still be refused.
        data = bytearray(open(binary_path, "rb").read())
        _footer_start, end = _footer_span(bytes(data))
        chunks = open_trace_source(binary_path).chunk_count()
        second_at = end - 8 * (chunks - 1)
        (second,) = struct.unpack_from("<Q", data, second_at)
        struct.pack_into("<Q", data, second_at, second + 1)
        bad = tmp_path / "shifted-offset.trace.bin"
        bad.write_bytes(bytes(data))
        source = open_trace_source(str(bad))
        with pytest.raises(TraceFormatError, match="does not start where"):
            source.verify()

    def test_unsupported_container_raises_format_error(self, binary_path, tmp_path):
        data = open(binary_path, "rb").read()
        marker = b'"container":3'
        assert marker in data
        bad = tmp_path / "container9.trace.bin"
        bad.write_bytes(data.replace(marker, b'"container":9', 1))
        with pytest.raises(TraceFormatError, match="container"):
            open_trace_source(str(bad))

    def test_container2_fixture_loads_through_the_digest_pass(self, tmp_path):
        source = open_trace_source(str(CONTAINER2_FIXTURE))
        assert isinstance(source, BinaryTraceSource)
        assert (source.container, source.integrity) == (2, "digest-pass")
        assert source.chunk_count() > 1
        loaded = source.load()
        assert loaded.digest() == source.digest()
        # Re-encoding seals it (container 3) without changing the digest.
        sealed = tmp_path / "resealed.trace.bin"
        write_binary_trace(loaded, str(sealed))
        resealed = open_trace_source(str(sealed))
        assert (resealed.container, resealed.integrity) == (3, "sha256")
        assert resealed.digest() == source.digest()
        assert resealed.load() == loaded

    def test_container2_fixture_with_swapped_digest_nibble_raises(self):
        bad = _nibble_swapped_digest(CONTAINER2_FIXTURE.read_bytes())
        source = BinaryTraceSource.from_bytes(bad)
        source.verify()  # no footer hash: the bytes are structurally fine
        with pytest.raises(TraceFormatError, match="digest"):
            source.load()

    @pytest.mark.parametrize("table", ["column", "string-table"])
    def test_zip_bomb_fails_fast_without_inflating(self, table):
        inflated_mb = 64
        bomb = _zlib_bomb(inflated_mb)
        if table == "column":
            block = bytes((_K_FIX32, 0, 1)) + _encode_varint(4)
            decode = _decode_block
        else:
            block = _encode_varint(4) + bytes((1,))
            decode = _decode_string_table
        block += _encode_varint(len(bomb)) + bomb
        tracemalloc.start()
        try:
            with pytest.raises(TraceFormatError, match="bound"):
                decode(block, 0)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (inflated_mb << 20) // 2, f"decoder allocated {peak} bytes"

    def test_truncated_compressed_stream_raises_format_error(self):
        values = bytes(range(0, 200, 2))  # 100 zigzag single-byte varints
        stream = zlib.compress(values)[:-4]  # drop the adler32 trailer
        block = (
            bytes((_K_VZ1, 0, 1))
            + _encode_varint(len(values))
            + _encode_varint(len(stream))
            + stream
        )
        with pytest.raises(TraceFormatError, match="truncated"):
            _decode_block(block, 0)

    def test_corrupt_binary_yields_no_session_payload(self, binary_path, tmp_path):
        data = bytearray(open(binary_path, "rb").read())
        _start, header_end = _header_span(bytes(data))
        (body_len,) = struct.unpack_from("<I", data, header_end)
        struct.pack_into("<I", data, header_end, body_len - 7)
        bad = tmp_path / "no-payload.trace.bin"
        bad.write_bytes(bytes(data))
        session = AnalysisSession()
        with pytest.raises(TraceFormatError):
            session.replay_trace(open_trace_source(str(bad)), COMPOSED)


# --------------------------------------------------- cross-format identity
class TestCrossFormatIdentity:
    def test_v1_to_v2_round_trip_preserves_digest_and_payloads(
        self, v1_chunks_fixture, tmp_path
    ):
        v1 = str(v1_chunks_fixture)
        from_v1 = Trace.load(v1)
        v2 = tmp_path / "myscript.trace.bin"
        assert write_binary_trace(from_v1, str(v2), chunk_events=CHUNK_EVENTS) > 1
        source_v2 = open_trace_source(str(v2))
        assert source_v2.digest() == open_trace_source(v1).digest()
        from_v2 = source_v2.load()
        assert from_v2.digest() == from_v1.digest()  # the v1 identity, adopted
        assert from_v2.legacy_digest() == from_v1.digest()
        assert from_v2 == from_v1
        # Re-derived (not adopted) current digests agree across the formats.
        assert replace(from_v2).digest() == replace(from_v1).digest()

        session = AnalysisSession()
        batch = session.replay_trace(from_v1, COMPOSED)
        streamed_v1 = session.replay_trace(open_trace_source(v1), COMPOSED)
        streamed_v2 = session.replay_trace(open_trace_source(str(v2)), COMPOSED)
        for mode in (LIGHTWEIGHT, GECKO, LOOP_PROFILE, DEPENDENCE):
            want = payload_digest(batch.payloads[mode])
            assert payload_digest(streamed_v1.payloads[mode]) == want
            assert payload_digest(streamed_v2.payloads[mode]) == want, (
                f"{mode} binary streamed replay diverged from batch"
            )
        assert streamed_v2.report_text == batch.report_text
        assert streamed_v2.provenance == batch.provenance

    def test_binary_source_replays_twice(self, recorded, binary_path):
        from repro.ceres.loop_profiler import LoopProfiler

        _workload, trace = recorded
        source = open_trace_source(binary_path)

        def rows(profiler):
            return [profiler.profiles[k].as_row() for k in sorted(profiler.profiles)]

        batch_profiler = LoopProfiler()
        from repro.jsvm.hooks import TraceReplayer

        TraceReplayer(trace).replay([batch_profiler])
        first = LoopProfiler()
        replayer = TraceReplayer(source)
        replayer.replay([first])
        second = LoopProfiler()
        replayer.replay([second])
        assert rows(first) == rows(batch_profiler)
        assert rows(second) == rows(batch_profiler)

    def test_empty_trace_round_trips(self, tmp_path):
        empty = Trace(mask=0b111, workload="w", fingerprint="fp-empty")
        path = tmp_path / "empty.trace.bin"
        assert write_binary_trace(empty, str(path)) == 1
        loaded = open_trace_source(str(path)).load()
        assert loaded.digest() == empty.digest()
        assert loaded.events == []
