"""Schema-v2 binary columnar trace codec.

The v1 trace formats serialize every event as a JSON list — decode cost is a
full ``json.loads`` + per-record validation pass, and gzip segments must be
re-inflated and re-parsed on every load.  This module is the v2 container:
events are **transposed into per-column arrays** (one group per opcode, one
column per record slot of :data:`~repro.jsvm.hooks.Trace._RECORD_LAYOUT`),
monotone columns are delta+zigzag-varint encoded, intern tables ride along as
length-prefixed UTF-8, and a footer offset index makes chunks random-access.

Why it is fast to *decode* in pure Python: every column decodes through
C-level bulk operations only —

* a delta+zigzag column whose varints are all single bytes (the common case:
  chunk-local positions, freshly-interned ids, iteration counters) decodes as
  ``bytes.translate`` into two's-complement int8 + one ``array('b')`` +
  ``itertools.accumulate`` — no per-value Python bytecode at all;
* wider columns are fixed-width little-endian ``array`` slices
  (``frombytes`` + ``tolist``);
* virtual-clock stamps (monotone positive floats) are stored as int64 deltas
  of their IEEE-754 bit patterns and reinterpreted back via one
  ``array('q')`` → ``array('d')`` round-trip, so replayed stamps are
  **bit-exact** — :meth:`Trace.digest` over a decoded trace matches the
  original byte for byte;
* per-column ``zlib`` (flagged, only when smaller) keeps segments well under
  the gzipped-NDJSON size while decompressing straight out of an mmap-backed
  buffer.

Columns whose values are not plainly typed (a hand-built v1 trace may carry
``int`` clock stamps or ``bool`` flags) fall back to a JSON-encoded column,
preserving type identity (``1`` vs ``1.0`` vs ``True``) — the digest
contract — for any value the v1 formats could express.

Wire layout (all framing little-endian, ``varint`` = LEB128)::

    file   := MAGIC(8) u32 header_len header_json chunk* footer
    chunk  := u32 body_len body
    body   := varint index
              strings-section  nodes-section  objects-section
              varint env_delta
              varint n_events varint n_groups group*
    group  := u8 opcode varint count
              positions-block clock-block operand-block{arity-2}
    block  := u8 kind u8 order u8 zlib_flag varint count varint len payload
    footer := footer_body u32 footer_body_len END_MAGIC(8)
    footer_body := varint chunk_count varint total_events
                   content_hash(32) u64 offset{chunks}

``content_hash`` is the SHA-256 of the exact header JSON bytes followed by
every chunk frame (``u32 body_len`` + body), i.e. of the file from byte 12
up to the footer.  The reader checks it once per source before the first
chunk decodes, and ``load()`` then adopts the header digest instead of
re-deriving :meth:`Trace.digest` over every event.  Container-2 files have
no ``content_hash`` and keep the full (legacy) digest pass on ``load()``.
The hash protects the bytes, not the decoder: every structural and
intern-index check still runs on each chunk.

The chunk invariant matches the NDJSON stream: a chunk's events reference
only intern entries carried by this or an earlier chunk, so replay stays
O(chunk) resident.  :class:`BinaryTraceSource` maps the file with ``mmap``
(shared pages across processes — the worker-pool's zero-copy attach) and
mirrors the :class:`~repro.jsvm.hooks.TraceFileSource` surface.
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import operator
import struct
import sys
import zlib
from array import array
from collections import deque
from itertools import accumulate, islice
from typing import Any, Dict, Iterator, List, Optional

#: First 8 bytes of every v2 binary trace file.  The lead byte is outside
#: ASCII so no text tool mistakes the file for JSON/NDJSON, mirroring PNG.
BINARY_MAGIC = b"\x93RPTRC2\n"

#: Last 8 bytes of every v2 binary trace file (footer integrity anchor).
BINARY_END_MAGIC = b"RPTRCEND"

#: ``format`` marker carried in the binary header JSON.
BINARY_TRACE_FORMAT = "repro-trace-bin"

#: Version of the binary *container* (the record schema version rides in the
#: header separately and still gates replay admission).  Container 3 seals
#: the file with a footer SHA-256; container 2 (no hash) stays readable.
BINARY_CONTAINER_VERSION = 3

#: Containers this reader accepts, mapped to the footer content-hash length.
_CONTENT_HASH_BYTES = {2: 0, 3: hashlib.sha256().digest_size}

# -- column block kinds ------------------------------------------------------
_K_EMPTY = 0  #: zero values, zero payload
_K_VZ1 = 1  #: zigzag varints, all single-byte (bulk translate decode)
_K_VZN = 2  #: zigzag varints, general width (per-value decode; rare)
_K_FIX8 = 3  #: little-endian int8
_K_FIX16 = 4  #: little-endian int16
_K_FIX32 = 5  #: little-endian int32
_K_FIX64 = 6  #: little-endian int64
_K_CLK = 7  #: float64 via int64 bit-pattern deltas (little-endian int64)
_K_JSON = 8  #: UTF-8 JSON array (type-preserving fallback)
_K_CLKSHUF = 9  #: float64 raw bits, byte-shuffled into 8 planes (see below)

_FIX_CODES = {_K_FIX8: "b", _K_FIX16: "h", _K_FIX32: "i", _K_FIX64: "q"}
_FIX_BOUNDS = (
    (_K_FIX8, -(1 << 7), (1 << 7) - 1),
    (_K_FIX16, -(1 << 15), (1 << 15) - 1),
    (_K_FIX32, -(1 << 31), (1 << 31) - 1),
    (_K_FIX64, -(1 << 63), (1 << 63) - 1),
)

#: zigzag byte -> two's-complement int8 byte, for the bulk ``_K_VZ1`` decode:
#: ``array('b', payload.translate(_ZZ8))`` yields the signed values directly.
_ZZ8 = bytes(((b >> 1) ^ (256 - (b & 1))) & 0xFF for b in range(256))

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: Columns smaller than this skip the zlib attempt (header cost dominates).
_ZLIB_MIN = 64

#: Most inflated bytes one value may take, per column kind: the exact width
#: for fixed-size kinds, the LEB128 maximum for general varints, and a cap
#: for JSON columns (a float's ``repr`` is at most 24 characters).  A
#: compressed block declaring ``count`` values never inflates past
#: ``count`` times this.
_MAX_VALUE_BYTES = {
    _K_VZ1: 1,
    _K_VZN: 10,
    _K_FIX8: 1,
    _K_FIX16: 2,
    _K_FIX32: 4,
    _K_FIX64: 8,
    _K_CLK: 8,
    _K_CLKSHUF: 8,
    _K_JSON: 64,
}

#: Cap on one chunk's inflated string table (real tables are kilobytes).
_MAX_STRING_TABLE_BYTES = 8 << 20


def _trace_error(message: str):
    from .hooks import TraceFormatError

    return TraceFormatError(message)


def _arr_from_bytes(code: str, data: bytes) -> array:
    values = array(code)
    values.frombytes(data)
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts only
        values.byteswap()
    return values


def _arr_to_bytes(values: array) -> bytes:
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts only
        values = values[:]
        values.byteswap()
    return values.tobytes()


# ===========================================================================
# varint / zigzag primitives
# ===========================================================================
def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _encode_varint(value: int) -> bytes:
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _encode_varints(values) -> bytes:
    out = bytearray()
    append = out.append
    for value in values:
        while value >= 0x80:
            append((value & 0x7F) | 0x80)
            value >>= 7
        append(value)
    return bytes(out)


def _decode_varint(buf, pos: int):
    """One LEB128 varint at ``buf[pos:]`` → ``(value, next_pos)``.

    A continuation bit running off the end of the buffer is the classic
    truncation signature — it raises, never wraps or silently stops.
    """
    shift = 0
    value = 0
    length = len(buf)
    while True:
        if pos >= length:
            raise _trace_error("varint overruns the trace buffer (truncated?)")
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise _trace_error("varint wider than 64 bits in trace buffer")


def _decode_varints_general(buf: bytes, count: int) -> List[int]:
    values: List[int] = []
    append = values.append
    acc = 0
    shift = 0
    for byte in buf:
        acc |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
            if shift > 63:
                raise _trace_error("varint wider than 64 bits in column payload")
        else:
            append(acc)
            acc = 0
            shift = 0
    if shift:
        raise _trace_error("varint overruns the column payload (truncated?)")
    if len(values) != count:
        raise _trace_error(
            f"column payload holds {len(values)} varints, expected {count}"
        )
    return values


def _unzigzag(values: List[int]) -> List[int]:
    return [(v >> 1) ^ -(v & 1) for v in values]


# ===========================================================================
# column encode
# ===========================================================================
def _deltas(values: List[int]) -> List[int]:
    prev = 0
    out = []
    append = out.append
    for value in values:
        append(value - prev)
        prev = value
    return out


def _pack_block(kind: int, order: int, count: int, payload: bytes) -> bytes:
    zflag = 0
    if len(payload) >= _ZLIB_MIN:
        squeezed = zlib.compress(payload, 6)
        if len(squeezed) < len(payload):
            zflag = 1
            payload = squeezed
    return b"".join(
        (
            bytes((kind, order, zflag)),
            _encode_varint(count),
            _encode_varint(len(payload)),
            payload,
        )
    )


def _int_column_candidate(values: List[int]):
    """Best (kind, payload) for strict-int ``values`` (pre-delta'd or raw)."""
    zz = [_zigzag(v) for v in values]
    if max(zz) < 0x80:
        return _K_VZ1, bytes(zz)
    lo, hi = min(values), max(values)
    for kind, bound_lo, bound_hi in _FIX_BOUNDS:
        if bound_lo <= lo and hi <= bound_hi:
            return kind, _arr_to_bytes(array(_FIX_CODES[kind], values))
    return _K_VZN, _encode_varints(zz)


def _encode_int_column(values: List[Any]) -> bytes:
    """Encode one column of strict ints, balancing size against decode cost.

    Strict ints (``bool`` is *not* an int here — the digest tells them apart,
    and the digest contract is type identity) try raw and first-order delta
    transforms.  Raw (order-0) decodes cheaper — no prefix-sum pass — so it
    wins unless the delta payload is more than 4× smaller (per-column zlib
    absorbs most of the residual size difference anyway).  Anything not
    strictly int-typed falls back to the JSON column, which round-trips
    arbitrary v1-expressible values exactly.
    """
    count = len(values)
    if count == 0:
        return _pack_block(_K_EMPTY, 0, 0, b"")
    if not all(type(v) is int for v in values):
        payload = json.dumps(values, separators=(",", ":")).encode("utf-8")
        return _pack_block(_K_JSON, 0, count, payload)
    kind0, payload0 = _int_column_candidate(values)
    kind1, payload1 = _int_column_candidate(_deltas(values))
    if len(payload1) * 4 < len(payload0):
        return _pack_block(kind1, 1, count, payload1)
    return _pack_block(kind0, 0, count, payload0)


def _encode_positions(positions: List[int]) -> bytes:
    """Positions are strictly increasing chunk-local indices.

    Raw indices are near-incompressible (fix16/fix32 of distinct values),
    while their deltas are overwhelmingly 1 for a dominant opcode — VZ1
    bytes that zlib crushes to a fraction of a byte per event.  The decode
    cost of the prefix sum is one C-speed ``accumulate`` pass, so the
    smaller *packed* block wins (ties go to raw, which skips that pass).
    """
    count = len(positions)
    kind0, payload0 = _int_column_candidate(positions)
    block0 = _pack_block(kind0, 0, count, payload0)
    kind1, payload1 = _int_column_candidate(_deltas(positions))
    block1 = _pack_block(kind1, 1, count, payload1)
    return block1 if len(block1) < len(block0) else block0


def _encode_clock_column(values: List[Any]) -> bytes:
    """Virtual-clock stamps: raw float64 bits, byte-shuffled, zlib'd.

    The stamps are accumulated floats — bit-exactness is the digest
    contract, so the bits ship verbatim.  Transposing the little-endian
    serialization into 8 byte-planes (Blosc-style shuffle) groups the
    near-constant sign/exponent/high-mantissa bytes into long runs zlib
    crushes, while decode reassembles the planes with 8 strided slice
    assignments and one ``array('d').frombytes`` — no per-value Python at
    all.  (The delta'd :data:`_K_CLK` kind compresses ~20× tighter but its
    decode needs a big-int prefix sum, ~3× slower per value; with the
    shuffled segment already far below the gzipped-NDJSON size, decode
    throughput wins the trade.)
    """
    count = len(values)
    if count == 0:
        return _pack_block(_K_EMPTY, 0, 0, b"")
    if all(type(v) is float for v in values):
        raw = _arr_to_bytes(array("d", values))
        planes = b"".join(raw[plane::8] for plane in range(8))
        return _pack_block(_K_CLKSHUF, 0, count, planes)
    return _encode_int_column(values)


def _encode_string_table(strings: List[str]) -> bytes:
    blob = bytearray()
    for text in strings:
        data = text.encode("utf-8")
        blob += _encode_varint(len(data))
        blob += data
    zflag = 0
    payload = bytes(blob)
    if len(payload) >= _ZLIB_MIN:
        squeezed = zlib.compress(payload, 6)
        if len(squeezed) < len(payload):
            zflag = 1
            payload = squeezed
    return b"".join(
        (
            _encode_varint(len(strings)),
            bytes((zflag,)),
            _encode_varint(len(payload)),
            payload,
        )
    )


# ===========================================================================
# column decode
# ===========================================================================
def _inflate(payload: bytes, max_length: int, what: str) -> bytes:
    """zlib-inflate ``payload`` into at most ``max_length`` bytes.

    A stream that would inflate further raises before the excess is ever
    allocated (zip-bomb defence), as does a stream that ends early.
    """
    inflater = zlib.decompressobj()
    try:
        # max(…, 1): zlib reads a max_length of 0 as "no limit".
        data = inflater.decompress(payload, max(max_length, 1))
    except zlib.error as exc:
        raise _trace_error(f"corrupt compressed {what}: {exc}") from exc
    if inflater.unconsumed_tail:
        raise _trace_error(
            f"compressed {what} inflates past its {max_length}-byte bound"
        )
    if not inflater.eof:
        raise _trace_error(f"compressed {what} is truncated")
    return data


def _decode_block(buf, pos: int):
    """Decode one column block → ``(values, next_pos, plain_ints)``.

    ``values`` is a plain list; every bulk path bottoms out in C (translate,
    ``array`` slicing, ``accumulate``).  ``plain_ints`` is True when the
    *encoding itself* guarantees every value is a strict ``int`` (all the
    integer kinds do by construction) — callers use it to run intern-index
    validation as bulk min/max instead of per-value type checks.  Any
    truncation, length mismatch or malformed payload raises
    ``TraceFormatError`` before partial data leaks.
    """
    if pos + 3 > len(buf):
        raise _trace_error("trace column block header is truncated")
    kind = buf[pos]
    order = buf[pos + 1]
    zflag = buf[pos + 2]
    count, pos = _decode_varint(buf, pos + 3)
    length, pos = _decode_varint(buf, pos)
    end = pos + length
    if end > len(buf):
        raise _trace_error("trace column block payload is truncated")
    payload = bytes(buf[pos:end])
    if zflag:
        bound = count * _MAX_VALUE_BYTES.get(kind, 0)
        payload = _inflate(payload, bound, "trace column")
    if kind == _K_EMPTY:
        if count:
            raise _trace_error("empty trace column block declares values")
        return [], end, True
    if kind == _K_VZ1:
        if len(payload) != count:
            raise _trace_error("single-byte varint column length mismatch")
        if payload and max(payload) >= 0x80:
            raise _trace_error("continuation byte in single-byte varint column")
        values = array("b", payload.translate(_ZZ8)).tolist()
    elif kind == _K_VZN:
        values = _unzigzag(_decode_varints_general(payload, count))
    elif kind in _FIX_CODES:
        code = _FIX_CODES[kind]
        width = array(code).itemsize
        if len(payload) != count * width:
            raise _trace_error("fixed-width trace column length mismatch")
        values = _arr_from_bytes(code, payload).tolist()
    elif kind == _K_CLKSHUF:
        if len(payload) != count * 8:
            raise _trace_error("clock column length mismatch")
        interleaved = bytearray(count * 8)
        for plane in range(8):
            interleaved[plane::8] = payload[plane * count : (plane + 1) * count]
        floats = _arr_from_bytes("d", bytes(interleaved))
        return floats.tolist(), end, False
    elif kind == _K_CLK:
        if len(payload) != count * 8:
            raise _trace_error("clock column length mismatch")
        bit_values = _arr_from_bytes("q", payload)
        try:
            for _ in range(order):
                # struct.pack over the accumulate iterator is the fastest
                # stdlib route from big Python ints back to packed int64s.
                bit_values = _arr_from_bytes(
                    "q", struct.pack(f"<{count}q", *accumulate(bit_values))
                )
        except (struct.error, OverflowError) as exc:
            raise _trace_error(f"clock column deltas overflow int64: {exc}") from exc
        floats = array("d")
        floats.frombytes(bit_values.tobytes())
        return floats.tolist(), end, False
    elif kind == _K_JSON:
        try:
            values = json.loads(payload.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _trace_error(f"corrupt JSON trace column: {exc}") from exc
        if not isinstance(values, list) or len(values) != count:
            raise _trace_error("JSON trace column does not match its count")
        return values, end, False
    else:
        raise _trace_error(f"unknown trace column kind {kind}")
    for _ in range(order):
        values = list(accumulate(values))
    if len(values) != count:
        raise _trace_error("trace column value count mismatch")
    return values, end, True


def _decode_string_table(buf, pos: int):
    count, pos = _decode_varint(buf, pos)
    if pos >= len(buf):
        raise _trace_error("trace string table is truncated")
    zflag = buf[pos]
    length, pos = _decode_varint(buf, pos + 1)
    end = pos + length
    if end > len(buf):
        raise _trace_error("trace string table payload is truncated")
    payload = bytes(buf[pos:end])
    if zflag:
        payload = _inflate(payload, _MAX_STRING_TABLE_BYTES, "string table")
    strings: List[str] = []
    at = 0
    for _ in range(count):
        size, at = _decode_varint(payload, at)
        if at + size > len(payload):
            raise _trace_error("trace string entry overruns its table")
        try:
            strings.append(payload[at : at + size].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise _trace_error(f"malformed UTF-8 in string table: {exc}") from exc
        at += size
    if at != len(payload):
        raise _trace_error("trailing bytes after the last string entry")
    return strings, end


# ===========================================================================
# chunk encode/decode
# ===========================================================================
def _encode_chunk(
    trace,
    index: int,
    batch,
    strings,
    nodes,
    objects,
    env_delta: int,
) -> bytes:
    from .hooks import Trace

    layouts = Trace._RECORD_LAYOUT
    groups: Dict[int, List[int]] = {}
    for position, record in enumerate(batch):
        opcode = record[0] if record else None
        layout = layouts.get(opcode)
        if layout is None or len(record) != layout[0]:
            raise _trace_error(
                f"cannot columnar-encode malformed trace record: {record!r}"
            )
        groups.setdefault(opcode, []).append(position)

    parts = [_encode_varint(index), _encode_string_table(strings)]
    parts.append(_encode_varint(len(nodes)))
    for slot in range(3):
        parts.append(_encode_int_column([entry[slot] for entry in nodes]))
    parts.append(_encode_varint(len(objects)))
    for slot in range(4):
        parts.append(_encode_int_column([entry[slot] for entry in objects]))
    parts.append(_encode_varint(env_delta))
    parts.append(_encode_varint(len(batch)))
    parts.append(_encode_varint(len(groups)))
    for opcode, positions in groups.items():
        arity = layouts[opcode][0]
        parts.append(bytes((opcode,)))
        parts.append(_encode_varint(len(positions)))
        parts.append(_encode_positions(positions))
        parts.append(_encode_clock_column([batch[i][1] for i in positions]))
        for slot in range(2, arity):
            parts.append(_encode_int_column([batch[i][slot] for i in positions]))
    return b"".join(parts)


class ColumnarChunk:
    """A decoded binary chunk: column-resident, tuples materialized lazily.

    Satisfies the :class:`~repro.jsvm.hooks.TraceChunk` surface (``strings``,
    ``nodes``, ``objects``, ``env_delta``, ``events``) and additionally
    offers :meth:`events_sparse` — the replayer's columnar fast path, which
    skips tuple-building for whole opcode groups nobody subscribed to.
    """

    __slots__ = ("index", "strings", "nodes", "objects", "env_delta", "_n", "_groups", "_events")

    def __init__(self, index, strings, nodes, objects, env_delta, n_events, groups):
        self.index = index
        self.strings = strings
        self.nodes = nodes
        self.objects = objects
        self.env_delta = env_delta
        self._n = n_events
        #: ``[(opcode, positions, (clocks, slot2, slot3, ...)), ...]``
        self._groups = groups
        self._events: Optional[list] = None

    @property
    def events(self):
        if self._events is None:
            events = self._scatter(None)
            if events.count(None):
                raise _trace_error(
                    "trace chunk opcode groups do not cover every event slot"
                )
            self._events = events
        return self._events

    def events_sparse(self, wanted_opcodes):
        """Event list with ``None`` holes where no wanted opcode lives.

        Returns the fully materialized list when one already exists (the
        holes check then already ran); otherwise only the wanted groups are
        zipped into tuples — unsubscribed statement floods cost nothing.
        """
        if self._events is not None:
            return self._events
        return self._scatter(wanted_opcodes)

    def group_counts(self) -> Dict[int, int]:
        return {opcode: len(positions) for opcode, positions, _cols in self._groups}

    def _scatter(self, wanted):
        events: List[Any] = [None] * self._n
        for opcode, positions, columns in self._groups:
            if wanted is not None and opcode not in wanted:
                continue
            count = len(positions)
            try:
                for position, record in zip(
                    positions, zip((opcode,) * count, *columns)
                ):
                    events[position] = record
            except IndexError as exc:
                raise _trace_error(
                    f"trace chunk event position out of range: {exc}"
                ) from exc
        return events


def _decode_chunk_body(
    body,
    expect_index: int,
    seen_strings: int,
    seen_nodes: int,
    seen_objects: int,
    seen_envs: int,
) -> ColumnarChunk:
    from .hooks import Trace, _validate_records

    layouts = Trace._RECORD_LAYOUT
    index, pos = _decode_varint(body, 0)
    if index != expect_index:
        raise _trace_error(
            f"chunk sequence broken: expected chunk {expect_index}, got {index}"
        )
    strings, pos = _decode_string_table(body, pos)
    string_count = seen_strings + len(strings)

    node_count_new, pos = _decode_varint(body, pos)
    node_cols = []
    for _slot in range(3):
        column, pos, _plain = _decode_block(body, pos)
        if len(column) != node_count_new:
            raise _trace_error("node table column count mismatch")
        node_cols.append(column)
    nodes = [list(entry) for entry in zip(*node_cols)] if node_count_new else []
    node_count = seen_nodes + node_count_new

    object_count_new, pos = _decode_varint(body, pos)
    object_cols = []
    for _slot in range(4):
        column, pos, _plain = _decode_block(body, pos)
        if len(column) != object_count_new:
            raise _trace_error("object table column count mismatch")
        object_cols.append(column)
    objects = [list(entry) for entry in zip(*object_cols)] if object_count_new else []
    object_count = seen_objects + object_count_new

    env_delta, pos = _decode_varint(body, pos)
    env_count = seen_envs + env_delta

    # Intern-table referential integrity (bulk where the columns are ints).
    try:
        if nodes:
            kinds = node_cols[2]
            if not (0 <= min(kinds) and max(kinds) < string_count):
                raise _trace_error("node kind index out of range in trace chunk")
        if objects:
            class_names = object_cols[1]
            callable_names = object_cols[3]
            if not (0 <= min(class_names) and max(class_names) < string_count):
                raise _trace_error("object class index out of range in trace chunk")
            if not (-1 <= min(callable_names) and max(callable_names) < string_count):
                raise _trace_error("object name index out of range in trace chunk")
    except TypeError as exc:
        raise _trace_error(f"malformed trace intern table: {exc}") from exc

    n_events, pos = _decode_varint(body, pos)
    n_groups, pos = _decode_varint(body, pos)
    groups = []
    total = 0
    counts = (string_count, node_count, object_count, env_count)
    for _g in range(n_groups):
        if pos >= len(body):
            raise _trace_error("trace chunk group header is truncated")
        opcode = body[pos]
        layout = layouts.get(opcode)
        if layout is None:
            raise _trace_error(f"unknown opcode {opcode} in trace chunk")
        count, pos = _decode_varint(body, pos + 1)
        if count == 0:
            raise _trace_error("empty opcode group in trace chunk")
        positions, pos = _decode_positions(body, pos, count, n_events)
        clocks, pos, _plain = _decode_block(body, pos)
        if len(clocks) != count:
            raise _trace_error("clock column count mismatch in trace chunk")
        columns = [clocks]
        plainly_typed = True
        for _slot in range(2, layout[0]):
            column, pos, plain = _decode_block(body, pos)
            if len(column) != count:
                raise _trace_error("operand column count mismatch in trace chunk")
            if not plain:
                plainly_typed = False
            columns.append(column)
        _validate_group(
            opcode, layout, columns, counts, plainly_typed, _validate_records
        )
        groups.append((opcode, positions, tuple(columns)))
        total += count
    if total != n_events:
        raise _trace_error(
            f"trace chunk groups cover {total} events but the chunk declares "
            f"{n_events}"
        )
    if pos != len(body):
        raise _trace_error("trailing bytes after the last trace chunk group")
    return ColumnarChunk(index, strings, nodes, objects, env_delta, n_events, groups)


def _decode_positions(body, pos: int, count: int, n_events: int):
    """Decode a positions column and bulk-verify strict monotonicity."""
    if pos + 3 > len(body):
        raise _trace_error("trace positions block is truncated")
    order = body[pos + 1]
    positions, end, plain = _decode_block(body, pos)
    if not plain:
        raise _trace_error("trace chunk positions column is not integer-typed")
    if len(positions) != count:
        raise _trace_error("positions column count mismatch in trace chunk")
    if order == 1:
        # _decode_block already accumulated; re-derive cheap delta facts from
        # the endpoints plus a single bulk pairwise check only when needed.
        if positions[0] < 0 or positions[-1] >= n_events:
            raise _trace_error("trace chunk event position out of range")
        if count > 1 and not _strictly_increasing(positions):
            raise _trace_error("trace chunk positions are not strictly increasing")
    else:
        if not positions or min(positions) < 0 or max(positions) >= n_events:
            raise _trace_error("trace chunk event position out of range")
        if not _strictly_increasing(positions):
            raise _trace_error("trace chunk positions are not strictly increasing")
    return positions, end


def _strictly_increasing(values: List[int]) -> bool:
    # all(map(lt, ...)) over the pairwise shift runs entirely in C.
    return all(map(operator.lt, values, islice(values, 1, None)))


def _validate_group(
    opcode, layout, columns, counts, plainly_typed, validate_records
) -> None:
    """Columnar index validation against *cumulative* intern-table sizes.

    When every operand column decoded through an integer kind
    (``plainly_typed``), index checks run as C-speed min/max per the record
    layout; a group carrying any JSON-fallback column is validated
    per-record through the shared v1 validator instead.
    """
    string_count, node_count, object_count, env_count = counts
    _arity, node_at, obj_at, env_at, string_at = layout
    if not plainly_typed:
        count = len(columns[0])
        records = list(zip((opcode,) * count, *columns))
        validate_records(records, string_count, node_count, object_count, env_count)
        return
    for position in node_at:
        column = columns[position - 1]
        if column and not (-1 <= min(column) and max(column) < node_count):
            raise _trace_error(
                f"node index out of range in opcode-{opcode} column"
            )
    for position in obj_at:
        column = columns[position - 1]
        if column and not (0 <= min(column) and max(column) < object_count):
            raise _trace_error(
                f"object index out of range in opcode-{opcode} column"
            )
    for position in env_at:
        column = columns[position - 1]
        if column and not (0 <= min(column) and max(column) < env_count):
            raise _trace_error(
                f"environment index out of range in opcode-{opcode} column"
            )
    for position in string_at:
        column = columns[position - 1]
        if column and not (0 <= min(column) and max(column) < string_count):
            raise _trace_error(
                f"string index out of range in opcode-{opcode} column"
            )


# ===========================================================================
# writer
# ===========================================================================
def _chunk_deltas(trace, chunk_events: int):
    """Split ``trace`` into chunk-sized event batches with intern deltas.

    Yields ``(batch, strings, nodes, objects, env_delta)`` per chunk, where
    the table slices cover exactly the entries the batch first references
    (the streaming invariant), and the *last* chunk tops up every table so
    reassembly reproduces the original trace — and its digest — exactly,
    even for entries no event happens to reference.
    """
    from .hooks import Trace

    events = trace.events
    total_strings = len(trace.strings)
    total_nodes = len(trace.nodes)
    total_objects = len(trace.objects)
    total_envs = trace.env_count
    layouts = Trace._RECORD_LAYOUT
    starts = list(range(0, len(events), chunk_events)) or [0]
    chunk_count = len(starts)
    sent_strings = sent_nodes = sent_objects = sent_envs = 0
    for chunk_index, start in enumerate(starts):
        batch = events[start : start + chunk_events]
        if chunk_index == chunk_count - 1:
            need_strings, need_nodes = total_strings, total_nodes
            need_objects, need_envs = total_objects, total_envs
        else:
            need_strings, need_nodes = sent_strings, sent_nodes
            need_objects, need_envs = sent_objects, sent_envs
            for record in batch:
                _arity, node_at, obj_at, env_at, string_at = layouts[record[0]]
                for position in node_at:
                    if record[position] >= need_nodes:
                        need_nodes = record[position] + 1
                for position in obj_at:
                    if record[position] >= need_objects:
                        need_objects = record[position] + 1
                for position in env_at:
                    if record[position] >= need_envs:
                        need_envs = record[position] + 1
                for position in string_at:
                    if record[position] >= need_strings:
                        need_strings = record[position] + 1
            # Newly shipped table entries reference strings of their own
            # (node kinds, object class/function names).
            for entry in trace.nodes[sent_nodes:need_nodes]:
                if entry[2] >= need_strings:
                    need_strings = entry[2] + 1
            for entry in trace.objects[sent_objects:need_objects]:
                if entry[1] >= need_strings:
                    need_strings = entry[1] + 1
                if entry[3] >= need_strings:
                    need_strings = entry[3] + 1
        yield (
            batch,
            trace.strings[sent_strings:need_strings],
            trace.nodes[sent_nodes:need_nodes],
            trace.objects[sent_objects:need_objects],
            need_envs - sent_envs,
        )
        sent_strings, sent_nodes = need_strings, need_nodes
        sent_objects, sent_envs = need_objects, need_envs


def write_binary_trace(trace, path: str, chunk_events: Optional[int] = None) -> int:
    """Serialize ``trace`` to ``path`` in the v2 binary format, sealed with
    the footer content hash (container :data:`BINARY_CONTAINER_VERSION`).

    Returns the number of chunks written.  ``chunk_events`` bounds events per
    chunk (``None``/non-positive → one chunk).  The file name never selects
    an encoding: every path gets the raw container, which readers mmap.
    """
    from .hooks import stream_chunk_events

    if chunk_events is None:
        chunk_events = stream_chunk_events()
    if chunk_events <= 0:
        chunk_events = max(1, len(trace.events))
    chunk_count = max(1, -(-len(trace.events) // chunk_events))
    header = {
        "format": BINARY_TRACE_FORMAT,
        "container": BINARY_CONTAINER_VERSION,
        "version": trace.version,
        "mask": trace.mask,
        "workload": trace.workload,
        "fingerprint": trace.fingerprint,
        "ms_per_op": trace.ms_per_op,
        "start_ms": trace.start_ms,
        "end_ms": trace.end_ms,
        "env_count": trace.env_count,
        "dropped": list(trace.dropped),
        "digest": trace.digest(),
        "events": len(trace.events),
        "chunk_events": chunk_events,
        "chunks": chunk_count,
    }
    header_blob = json.dumps(header, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    offsets: List[int] = []
    content_hash = hashlib.sha256(header_blob)
    with io.open(path, "wb") as handle:
        handle.write(BINARY_MAGIC)
        handle.write(_U32.pack(len(header_blob)))
        handle.write(header_blob)
        offset = len(BINARY_MAGIC) + 4 + len(header_blob)
        for index, (batch, strings, nodes, objects, env_delta) in enumerate(
            _chunk_deltas(trace, chunk_events)
        ):
            offsets.append(offset)
            body = _encode_chunk(trace, index, batch, strings, nodes, objects, env_delta)
            frame_len = _U32.pack(len(body))
            content_hash.update(frame_len)
            content_hash.update(body)
            handle.write(frame_len)
            handle.write(body)
            offset += len(frame_len) + len(body)
        written = len(offsets)
        footer = bytearray()
        footer += _encode_varint(written)
        footer += _encode_varint(len(trace.events))
        footer += content_hash.digest()
        for chunk_offset in offsets:
            footer += _U64.pack(chunk_offset)
        handle.write(bytes(footer))
        handle.write(_U32.pack(len(footer)))
        handle.write(BINARY_END_MAGIC)
    if written != chunk_count:  # pragma: no cover - arithmetic invariant
        raise _trace_error("binary trace writer lost a chunk")
    return written


# ===========================================================================
# reader
# ===========================================================================
class BinaryTraceSource:
    """A random-access, mmap-backed handle on a v2 binary trace file.

    Mirrors the :class:`~repro.jsvm.hooks.TraceFileSource` surface: header
    provenance resident, ``chunks()`` re-iterable and validating, ``load()``
    digest-checked (through the footer content hash when the file carries
    one, else by re-deriving the digest), corruption always a
    ``TraceFormatError``.  The backing
    buffer is an ``mmap`` of the segment file whenever possible, so replaying
    processes share one page-cache copy of the trace (zero-copy pool
    attach); gzip-wrapped or in-memory payloads fall back to a plain bytes
    buffer transparently.
    """

    encoding = "binary"

    def __init__(self, path: str, buffer=None) -> None:
        from .hooks import TRACE_SCHEMA_VERSION, TraceVersionError

        self.path = str(path)
        self._mmap = None
        self._file = None
        if buffer is None:
            try:
                self._file = io.open(self.path, "rb")
                try:
                    self._mmap = mmap.mmap(
                        self._file.fileno(), 0, access=mmap.ACCESS_READ
                    )
                    buffer = self._mmap
                except (ValueError, OSError):
                    # Empty or unmappable file: fall back to a resident copy.
                    self._file.seek(0)
                    buffer = self._file.read()
            except OSError as exc:
                raise _trace_error(
                    f"cannot read trace file {self.path!r}: {exc}"
                ) from exc
        self._buf = buffer
        buf = self._buf
        size = len(buf)
        if size < len(BINARY_MAGIC) + 4 or bytes(buf[: len(BINARY_MAGIC)]) != BINARY_MAGIC:
            raise _trace_error(
                f"trace file {self.path!r} is not a v2 binary trace "
                "(bad magic bytes)"
            )
        header_len = _U32.unpack(buf[8:12])[0]
        header_end = 12 + header_len
        if header_end + 12 + len(BINARY_END_MAGIC) > size:
            raise _trace_error(f"binary trace {self.path!r} is truncated")
        try:
            header = json.loads(bytes(buf[12:header_end]).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _trace_error(
                f"binary trace {self.path!r} header is corrupt: {exc}"
            ) from exc
        if not isinstance(header, dict) or header.get("format") != BINARY_TRACE_FORMAT:
            raise _trace_error(
                f"binary trace {self.path!r} header is not "
                f"{BINARY_TRACE_FORMAT!r}"
            )
        version = header.get("version")
        if version != TRACE_SCHEMA_VERSION:
            raise TraceVersionError(
                f"unsupported trace schema version {version!r} "
                f"(this build reads version {TRACE_SCHEMA_VERSION})"
            )
        try:
            self.version = int(version)
            self.mask = int(header["mask"])
            self.workload = str(header["workload"])
            self.fingerprint = str(header["fingerprint"])
            self.ms_per_op = float(header["ms_per_op"])
            self.start_ms = float(header["start_ms"])
            self.end_ms = float(header["end_ms"])
            self.env_count = int(header["env_count"])
            self.dropped = tuple(header.get("dropped", ()))
            self.event_count = int(header["events"])
            self.chunk_events = int(header["chunk_events"])
            self._chunk_count = int(header["chunks"])
            self._digest = str(header["digest"])
            self.container = int(header["container"])
        except (KeyError, TypeError, ValueError) as exc:
            raise _trace_error(
                f"malformed binary trace header in {self.path!r}: {exc}"
            ) from exc
        hash_bytes = _CONTENT_HASH_BYTES.get(self.container)
        if hash_bytes is None:
            raise _trace_error(
                f"binary trace {self.path!r} uses unsupported container "
                f"{self.container} (this build reads "
                f"{sorted(_CONTENT_HASH_BYTES)})"
            )
        #: How ``load()`` establishes the digest: ``"sha256"`` (footer hash
        #: over the bytes) or ``"digest-pass"`` (re-derived over every event).
        self.integrity = "sha256" if hash_bytes else "digest-pass"

        # Footer: offsets table anchored by the trailing magic.
        if bytes(buf[size - len(BINARY_END_MAGIC) :]) != BINARY_END_MAGIC:
            raise _trace_error(
                f"binary trace {self.path!r} is truncated (missing end marker)"
            )
        footer_len = _U32.unpack(buf[size - 12 : size - 8])[0]
        footer_start = size - 12 - footer_len
        if footer_start < header_end:
            raise _trace_error(f"binary trace {self.path!r} footer overruns the file")
        footer = bytes(buf[footer_start : size - 12])
        chunk_count, at = _decode_varint(footer, 0)
        events_total, at = _decode_varint(footer, at)
        if chunk_count != self._chunk_count or events_total != self.event_count:
            raise _trace_error(
                f"binary trace {self.path!r} footer does not match its header "
                f"({chunk_count} chunks/{events_total} events vs "
                f"{self._chunk_count}/{self.event_count})"
            )
        if len(footer) - at != hash_bytes + 8 * chunk_count:
            raise _trace_error(
                f"binary trace {self.path!r} footer offset index is malformed"
            )
        self._content_hash = footer[at : at + hash_bytes] or None
        at += hash_bytes
        offsets = [
            _U64.unpack_from(footer, at + 8 * i)[0] for i in range(chunk_count)
        ]
        previous = header_end - 1
        for offset in offsets:
            if not previous < offset < footer_start:
                raise _trace_error(
                    f"binary trace {self.path!r} footer offset index is out of "
                    "order or out of bounds"
                )
            previous = offset
        self._offsets = offsets
        self._header_end = header_end
        self._data_end = footer_start

    @classmethod
    def from_bytes(cls, payload: bytes, path: str = "<memory>") -> "BinaryTraceSource":
        """A source over an in-memory payload (e.g. a gzip-wrapped file)."""
        return cls(path, buffer=payload)

    def close(self) -> None:
        if self._mmap is not None:
            self._buf = b""
            self._mmap.close()
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None

    # ------------------------------------------------------------- identity
    def covers(self, required_mask: int) -> bool:
        return not (required_mask & ~self.mask)

    def digest(self) -> str:
        """The full-content digest recorded in the header."""
        return self._digest

    def chunk_count(self) -> int:
        return self._chunk_count

    # ------------------------------------------------------------- streaming
    def _check_content_hash(self) -> None:
        """Compare the footer SHA-256 with the header and chunk-frame bytes.

        Runs once per source: a match clears ``_content_hash``.  Files
        without the hash (container 2) skip this."""
        if self._content_hash is None:
            return
        # A memoryview slice hashes the mmap in place, without a copy.
        with memoryview(self._buf)[12 : self._data_end] as hashed:
            actual = hashlib.sha256(hashed).digest()
        if actual != self._content_hash:
            raise _trace_error(
                f"binary trace {self.path!r} bytes do not match the SHA-256 "
                "content digest sealed in its footer"
            )
        self._content_hash = None

    def chunks(self) -> Iterator[ColumnarChunk]:
        """Stream validated chunks from the offset index; O(chunk) resident.

        The footer content hash (when present) is checked before the first
        chunk decodes."""
        self._check_content_hash()
        buf = self._buf
        seen_strings = seen_nodes = seen_objects = seen_envs = 0
        total_events = 0
        frame_start = self._header_end
        try:
            for expect_index, offset in enumerate(self._offsets):
                # Frames tile the data region, so the offsets (outside the
                # content hash) can only address the hashed frames.
                if offset != frame_start:
                    raise _trace_error(
                        f"binary trace {self.path!r} offset index entry "
                        f"{expect_index} does not start where the previous "
                        "chunk ends"
                    )
                body_len = _U32.unpack(buf[offset : offset + 4])[0]
                body_end = offset + 4 + body_len
                if body_end > self._data_end:
                    raise _trace_error(
                        f"binary trace {self.path!r} chunk {expect_index} "
                        "overruns the data region"
                    )
                frame_start = body_end
                body = bytes(buf[offset + 4 : body_end])
                chunk = _decode_chunk_body(
                    body,
                    expect_index,
                    seen_strings,
                    seen_nodes,
                    seen_objects,
                    seen_envs,
                )
                seen_strings += len(chunk.strings)
                seen_nodes += len(chunk.nodes)
                seen_objects += len(chunk.objects)
                seen_envs += chunk.env_delta
                total_events += chunk._n
                yield chunk
        except struct.error as exc:
            raise _trace_error(
                f"binary trace {self.path!r} is truncated or corrupt: {exc}"
            ) from exc
        if total_events != self.event_count:
            raise _trace_error(
                f"binary trace {self.path!r} header promises "
                f"{self.event_count} events but the chunks hold {total_events}"
            )
        if seen_envs != self.env_count:
            raise _trace_error(
                f"binary trace {self.path!r} environment deltas do not sum to "
                "the header count"
            )

    # ------------------------------------------------------------ whole-file
    def verify(self) -> "BinaryTraceSource":
        """Decode and validate every chunk (bounded memory), raising on any
        corruption.  Event tuples are materialized per chunk so the position
        coverage check runs too."""
        for chunk in self.chunks():
            chunk.events  # noqa: B018 - forces the scatter/coverage check
        return self

    def load(self):
        """Materialize the full :class:`~repro.jsvm.hooks.Trace` with the
        header digest (content identity across encodings).

        A sealed file's bytes passed the footer hash in :meth:`chunks`, so
        the header digest is adopted as is; a container-2 file re-derives
        its header's identity (:meth:`~repro.jsvm.hooks.Trace.legacy_digest`)
        over every event, compares, then adopts it."""
        from .hooks import Trace

        trace = Trace(
            mask=self.mask,
            workload=self.workload,
            fingerprint=self.fingerprint,
            ms_per_op=self.ms_per_op,
            start_ms=self.start_ms,
            end_ms=self.end_ms,
            version=self.version,
            env_count=self.env_count,
            dropped=self.dropped,
        )
        for chunk in self.chunks():
            trace.strings.extend(chunk.strings)
            trace.nodes.extend(chunk.nodes)
            trace.objects.extend(chunk.objects)
            trace.events.extend(chunk.events)
        if self.integrity == "digest-pass" and trace.legacy_digest() != self._digest:
            raise _trace_error(
                f"binary trace {self.path!r} content does not match its "
                "header digest"
            )
        trace._digest_cache = self._digest
        return trace

    def event_counts(self) -> Dict[str, int]:
        """Record count per event name, from group headers alone (no tuple
        materialization)."""
        from .hooks import TRACE_OP_NAMES

        counts: Dict[str, int] = {}
        for chunk in self.chunks():
            for opcode, count in chunk.group_counts().items():
                name = TRACE_OP_NAMES.get(opcode, f"op{opcode}")
                counts[name] = counts.get(name, 0) + count
        return counts

    def table_counts(self) -> Dict[str, int]:
        """Intern-table sizes, accumulated in one streaming pass."""
        strings = nodes = objects = 0
        for chunk in self.chunks():
            strings += len(chunk.strings)
            nodes += len(chunk.nodes)
            objects += len(chunk.objects)
        return {"strings": strings, "nodes": nodes, "objects": objects}
