"""Disk-backed trace store: the daemon's cache that survives restarts.

A :class:`DiskTraceStore` is a :class:`~repro.engine.cache.TraceStore` (same
fingerprint × mask-superset lookup, same covered-trace eviction) whose
recordings additionally persist under a root directory::

    <root>/
      index.json                          # {version, entries: [...]}
      <fp16>-<digest16>.trace.bin         # binary columnar segment
      <fp16>-<digest16>.trace.json.gz     # legacy v1 segment (read-only)

Segments are the exact ``python -m repro trace record`` file format — the
binary columnar container (schema v2, mmap-able and random-access by chunk),
the only encoding written — so any on-disk segment can also be
inspected/replayed with the trace CLI.  Stores written before v1 writing was
retired keep serving: an index row naming a ``.trace.json.gz`` segment loads
through the v1 reader.  The JSON index carries
one row per segment (fingerprint, mask, digest, event count, file name); on
startup only the index is read.  The memory tier keeps sources, not decoded
traces: the first covering ``find`` (or a :meth:`~DiskTraceStore.put` /
:meth:`~DiskTraceStore.publish`) opens the segment as an mmap'd
:class:`~repro.jsvm.tracecodec.BinaryTraceSource`, checks its footer hash
once, and serves that source at rest; each replay decodes only the opcode
groups its tracers subscribe to.  :meth:`segment_ref` hands pooled fan-out
a ``(path, digest)`` reference workers open themselves.

Durability and corruption policy:

* segments and the index are written atomically (temp file + ``os.replace``),
  and the index is additionally re-written by :meth:`flush` /
  :meth:`close` — the serve daemon calls ``close()`` on shutdown;
* a put is two halves: :meth:`DiskTraceStore.stage` encodes the segment
  to a temp file in the root (no lock, no store state — a pool worker runs
  it for the daemon's cold keys) and a locked publish renames it into
  place and updates the index (:meth:`~DiskTraceStore.publish` for a
  segment staged by another process).  A temp file left by a writer that
  died is deleted when a store next opens the root;
* a corrupt, truncated or fingerprint-mismatched segment is a clean *miss*:
  the entry is dropped from the index (and the file best-effort unlinked),
  never an exception out of ``find`` — the caller simply re-records.  The
  footer hash covers every byte, so damage inside a group no replay has
  decoded yet is a miss too.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..engine.cache import TraceStore
from ..jsvm.hooks import Trace, TraceError, open_trace_source

#: On-disk index schema version.
INDEX_VERSION = 1
INDEX_NAME = "index.json"


class DiskTraceStore(TraceStore):
    """A trace store whose contents persist under ``root`` across restarts."""

    def __init__(self, root, chunk_events: Optional[int] = None) -> None:
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # A writer that died mid-stage (a crashed pool worker, a killed
        # daemon) leaves its temp file behind; nothing else ever reads one.
        for leftover in self.root.glob("*.tmp"):
            leftover.unlink(missing_ok=True)
        #: Events per segment chunk (None → the REPRO_TRACE_CHUNK_EVENTS /
        #: built-in default at write time).
        self.chunk_events = chunk_events
        self._io_lock = threading.RLock()
        #: fingerprint → index rows ({digest, mask, workload, events, file}).
        self._index: Dict[str, List[dict]] = {}
        self._dirty = False
        self.disk_hits = 0
        self.segments_written = 0
        self.corrupt_segments = 0
        self.index_writes = 0
        self._load_index()

    # ---------------------------------------------------------------- index
    @property
    def index_path(self) -> Path:
        return self.root / INDEX_NAME

    def _load_index(self) -> None:
        try:
            data = json.loads(self.index_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            # An unreadable index means an empty store, not a dead daemon;
            # surviving segments are re-indexed as they are re-recorded.
            self.corrupt_segments += 1
            return
        if not isinstance(data, dict) or data.get("version") != INDEX_VERSION:
            self.corrupt_segments += 1
            return
        for row in data.get("entries", ()):
            if not isinstance(row, dict):
                continue
            try:
                entry = {
                    "fingerprint": str(row["fingerprint"]),
                    "digest": str(row["digest"]),
                    "mask": int(row["mask"]),
                    "workload": str(row.get("workload", "")),
                    "events": int(row.get("events", 0)),
                    "file": str(row["file"]),
                }
            except (KeyError, TypeError, ValueError):
                continue
            self._index.setdefault(entry["fingerprint"], []).append(entry)

    def _write_index_locked(self) -> None:
        entries = [entry for rows in self._index.values() for entry in rows]
        entries.sort(key=lambda entry: (entry["fingerprint"], entry["digest"]))
        payload = {"version": INDEX_VERSION, "entries": entries}
        tmp = self.index_path.with_name(INDEX_NAME + ".tmp")
        tmp.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(tmp, self.index_path)
        self.index_writes += 1
        self._dirty = False

    def flush(self) -> None:
        """Write the index if any entry changed since the last write."""
        with self._io_lock:
            if self._dirty:
                self._write_index_locked()

    def close(self) -> None:
        self.flush()

    # ------------------------------------------------------------- segments
    @staticmethod
    def _segment_name(fingerprint: str, digest: str) -> str:
        """Segment file name; segments stay uncompressed-on-disk so readers
        (this process and forked pool workers alike) can mmap them."""
        return f"{fingerprint[:16]}-{digest[:16]}.trace.bin"

    def _segment_path(self, entry: dict) -> Path:
        return self.root / entry["file"]

    def _drop_entry_locked(self, entry: dict) -> None:
        rows = self._index.get(entry["fingerprint"], [])
        if entry in rows:
            rows.remove(entry)
            if not rows:
                del self._index[entry["fingerprint"]]
            self._dirty = True
        try:
            self._segment_path(entry).unlink()
        except OSError:
            pass

    # ------------------------------------------------------------- contract
    @staticmethod
    def _row(trace: Trace) -> dict:
        """The index row ``trace``'s segment is published under."""
        digest = trace.digest()
        return {
            "fingerprint": trace.fingerprint,
            "digest": digest,
            "mask": trace.mask,
            "workload": trace.workload,
            "events": len(trace.events),
            "file": DiskTraceStore._segment_name(trace.fingerprint, digest),
        }

    @staticmethod
    def stage(root, trace: Trace, chunk_events: Optional[int] = None) -> Tuple[Path, dict]:
        """Encode ``trace`` to a temp segment file under ``root``.

        Returns ``(tmp, row)``: the temp file and the index row
        :meth:`publish` installs it under.  This is the expensive half of a
        put (digest plus columnar encode of the whole event list), so it runs
        **outside** ``_io_lock`` — and, for the daemon's cold keys, in a pool
        worker that holds no store at all.  The pid+tid-unique name keeps
        racing writers of the same digest from clobbering each other's temp
        file.
        """
        from ..jsvm import tracecodec

        row = DiskTraceStore._row(trace)
        tmp = Path(root) / f"{row['file']}.{os.getpid()}-{threading.get_ident()}.tmp"
        tracecodec.write_binary_trace(trace, str(tmp), chunk_events=chunk_events)
        return tmp, row

    def _publish(self, tmp: Optional[Path], row: dict, trace: Optional[Trace] = None) -> None:
        """The locked half of a put: evict covered rows, rename, index.

        ``tmp`` is consumed either way: renamed onto the segment name, or
        unlinked when an identical digest is already published.  ``tmp`` may
        be ``None`` only when the caller saw the digest indexed already;
        ``trace`` then re-stages it in the rare race where a covering
        concurrent put evicted that row meanwhile.
        """
        try:
            with self._io_lock:
                rows = self._index.get(row["fingerprint"], [])
                for existing in [r for r in rows if not (r["mask"] & ~row["mask"])]:
                    if existing["digest"] != row["digest"]:
                        self._drop_entry_locked(existing)
                rows = self._index.setdefault(row["fingerprint"], [])
                if not any(r["digest"] == row["digest"] for r in rows):
                    if tmp is None:
                        tmp, row = self.stage(self.root, trace, self.chunk_events)
                    os.replace(tmp, self._segment_path(row))
                    rows.append(row)
                    self.segments_written += 1
                    self._dirty = True
                if self._dirty:
                    # A re-put of a known digest changes nothing: skip the
                    # full index rewrite (it is O(store size) JSON on disk).
                    self._write_index_locked()
        finally:
            if tmp is not None:
                # Gone after a rename; a loser of the publish race (or any
                # failure above) leaves no orphan behind.
                Path(tmp).unlink(missing_ok=True)

    def put(self, trace: Trace, recorded: bool = True):
        """Store and persist ``trace``, evicting covered segments on disk too.

        :meth:`stage` then :meth:`_publish`: the segment write happens
        outside ``_io_lock``, which guards only the index mutation and the
        atomic ``os.replace``, so concurrent puts from different tenants
        overlap their serialization work.  The memory tier then keeps, and
        this returns, the published segment's source rather than ``trace``
        (``trace`` itself only when that segment is already gone again).
        """
        row = self._row(trace)
        with self._io_lock:
            known = any(
                existing["digest"] == row["digest"]
                for existing in self._index.get(trace.fingerprint, ())
            )
        tmp = None
        if not known:
            tmp, row = self.stage(self.root, trace, self.chunk_events)
        self._publish(tmp, row, trace)
        try:
            served = self._open_segment(row)
        except (TraceError, OSError):
            # A covering put evicted the row meanwhile; the recording is
            # still good for this store's memory tier.
            served = trace
        return super().put(served, recorded)

    def publish(self, tmp, row: dict):
        """Install a segment another process staged, and serve it.

        A pool worker recorded the trace and ran :meth:`stage` into this
        store's root; this publishes ``(tmp, row)`` under the lock, opens the
        segment and checks its footer hash (no column is decoded), installs
        the source in the memory tier and counts it as a recording, exactly
        as :meth:`put` would have.  The temp file never outlives a failure
        here.
        """
        self._publish(Path(tmp), row)
        return TraceStore.put(self, self._open_segment(row))

    def _open_segment(self, entry: dict):
        """The segment of index row ``entry``, opened and checked for serving.

        A binary segment stays an mmap'd source at rest: its footer hash is
        checked once here, so corruption raises now rather than mid-replay,
        and it keeps the groups replays decode (see
        :meth:`~repro.jsvm.tracecodec.BinaryTraceSource.retain_columns`).
        A legacy v1 segment is read whole into a :class:`Trace`.
        """
        source = open_trace_source(str(self._segment_path(entry)))
        if isinstance(source, Trace):
            return source
        if source.encoding == "binary":
            return source.check().retain_columns()
        return source.load()

    def _covering_locked(self, fingerprint: str, required_mask: int) -> List[dict]:
        """Index rows covering ``required_mask``, narrowest mask first."""
        candidates = [
            entry
            for entry in self._index.get(fingerprint, ())
            if not (required_mask & ~entry["mask"])
        ]
        candidates.sort(key=lambda entry: bin(entry["mask"]).count("1"))
        return candidates

    def segment_ref(self, fingerprint: str, required_mask: int) -> Optional[dict]:
        """A ``(path, digest)`` reference to a covering on-disk segment.

        Pooled fan-out hands this to workers instead of a pickled trace:
        the worker opens the path itself (binary segments via mmap), checks
        the digest, and replays from the shared page cache — zero trace
        bytes cross the pipe.  Returns ``None`` when no covering segment
        file exists; the caller falls back to shipping the trace by value.
        """
        with self._io_lock:
            for entry in self._covering_locked(fingerprint, required_mask):
                path = self._segment_path(entry)
                if path.is_file():
                    return {
                        "path": str(path),
                        "digest": entry["digest"],
                        "fingerprint": fingerprint,
                        "mask": entry["mask"],
                    }
        return None

    def has(self, fingerprint: str, required_mask: int) -> bool:
        if super().has(fingerprint, required_mask):
            return True
        with self._io_lock:
            return any(
                not (required_mask & ~entry["mask"])
                for entry in self._index.get(fingerprint, ())
            )

    def _find_fallback(self, fingerprint: str, required_mask: int):
        """Open the cheapest covering segment from disk; corruption = miss.

        Segments open and hash **outside** ``_io_lock`` (every tenant's
        ``put``/``has``/``segment_ref`` needs the lock); the lock is re-taken
        only to count and to drop a corrupt entry.  An entry a concurrent put
        evicted meanwhile is gone from the index and is not counted as
        corrupt.
        """
        with self._io_lock:
            candidates = self._covering_locked(fingerprint, required_mask)
        for entry in candidates:
            try:
                trace = self._open_segment(entry)
            except (TraceError, OSError, EOFError, zlib.error, ValueError):
                # gzip surfaces truncation as EOFError and stream damage
                # as zlib.error — neither is an OSError.
                trace = None
            # A trace that is not what the index promised is corrupt too.
            if (
                trace is not None
                and trace.fingerprint == fingerprint
                and trace.covers(required_mask)
            ):
                with self._io_lock:
                    self.disk_hits += 1
                return trace
            with self._io_lock:
                rows = self._index.get(fingerprint, ())
                if any(row is entry for row in rows):
                    self.corrupt_segments += 1
                    self._drop_entry_locked(entry)
        self.flush()
        return None

    def fingerprints(self) -> List[str]:
        known = set(super().fingerprints())
        with self._io_lock:
            known.update(key for key, rows in self._index.items() if rows)
        return sorted(known)

    def segment_count(self) -> int:
        with self._io_lock:
            return sum(len(rows) for rows in self._index.values())

    def clear(self) -> None:
        super().clear()
        with self._io_lock:
            for rows in list(self._index.values()):
                for entry in list(rows):
                    self._drop_entry_locked(entry)
            self._index.clear()
            self._write_index_locked()
