"""TraceStore / DiskTraceStore contract tests: concurrency, corruption, restart.

The serving daemon stakes its correctness on the store contract: fingerprint
× mask-superset lookup, covered-trace eviction, and — for the disk tier —
clean misses on corrupt segments plus an index that round-trips across
restarts.  These tests exercise exactly that, with synthetic traces (the
contract is mask/fingerprint arithmetic; no guest execution involved) plus
one real recorded trace for file-format fidelity and one committed legacy v1
segment (stores written before v1 writing was retired keep serving).
"""

from __future__ import annotations

import json
import shutil
import struct
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import AnalysisSession, RunSpec
from repro.api.spec import LIGHTWEIGHT, LOOP_PROFILE
from repro.engine.cache import TraceStore
from repro.jsvm.hooks import TR_STATEMENT, Trace, TraceError, open_trace_source
from repro.jsvm.tracecodec import BinaryTraceSource, _skip_block
from repro.serve.protocol import encode_json
from repro.serve.store import DiskTraceStore


def make_trace(mask: int, fingerprint: str = "fp-a", workload: str = "w") -> Trace:
    """A minimal, valid trace (empty event stream) for contract tests."""
    return Trace(mask=mask, workload=workload, fingerprint=fingerprint)


# ---------------------------------------------------------------- base store
class TestTraceStoreContract:
    def test_mask_superset_lookup_and_puts_counter(self):
        store = TraceStore()
        store.put(make_trace(0b0110))
        assert store.puts == 1
        assert store.find("fp-a", 0b0010).mask == 0b0110
        assert store.find("fp-a", 0b1000) is None
        assert store.find("fp-b", 0b0010) is None
        assert store.hits == 1 and store.misses == 2

    def test_covered_trace_eviction(self):
        store = TraceStore()
        store.put(make_trace(0b0001))
        store.put(make_trace(0b0011))
        assert len(store.traces_for("fp-a")) == 1
        assert store.traces_for("fp-a")[0].mask == 0b0011

    def test_has_does_not_touch_counters(self):
        store = TraceStore()
        store.put(make_trace(0b0011))
        assert store.has("fp-a", 0b0001)
        assert not store.has("fp-a", 0b0100)
        assert store.hits == 0 and store.misses == 0

    def test_flush_and_close_are_noops(self):
        store = TraceStore()
        store.put(make_trace(1))
        store.flush()
        store.close()
        assert store.find("fp-a", 1) is not None

    def test_fallback_hook_memorizes_and_counts_a_hit(self):
        loaded = make_trace(0b0011)

        class Backed(TraceStore):
            def _find_fallback(self, fingerprint, required_mask):
                return loaded if fingerprint == "fp-a" else None

        store = Backed()
        assert store.find("fp-a", 0b0001) is loaded
        assert store.hits == 1 and store.misses == 0
        # Memorized: the second lookup never consults the fallback.
        assert store.find("fp-a", 0b0010) is loaded
        assert store.puts == 0  # memorization is not a recording


# ------------------------------------------------------- counter lock scope
class TestCounterLockDiscipline:
    """``hits``/``misses``/``puts`` must move under ``self._lock``.

    The serve daemon reports these counters via ``/v1/stats`` while its
    thread pool hammers ``find``; unlocked read-modify-write updates lose
    increments under contention.  Each thread below uses distinct
    fingerprints so every ``find`` exercises the fallback-hit or miss path
    (memory hits are already counted under the lock) and totals are exact.
    """

    THREADS = 8
    OPS = 3000

    def _hammer(self, worker) -> None:
        import sys

        barrier = threading.Barrier(self.THREADS)
        errors = []

        def run(seed: int) -> None:
            barrier.wait()
            try:
                worker(seed)
            except BaseException as exc:  # noqa: BLE001 - surface to the test
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(self.THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(old_interval)
        assert not errors

    def test_counters_only_move_under_the_store_lock(self):
        """Deterministic lock-discipline audit for every counter path.

        The GIL makes a bare ``+= 1`` effectively atomic on current CPython
        (no eval-breaker check inside straight-line bytecode), so a hammer
        alone cannot expose an unlocked update — but the stats contract is
        the lock, not the GIL.  Intercept attribute writes and require the
        store lock to be held whenever a counter moves.
        """
        loaded = make_trace(0b0011, fingerprint="fp-backed")

        class Audited(TraceStore):
            def _find_fallback(self, fingerprint, required_mask):
                return loaded if fingerprint == "fp-backed" else None

            def __setattr__(self, name, value):
                if name in ("hits", "misses", "puts") and getattr(
                    self, "_audit", False
                ):
                    assert self._lock.locked(), (
                        f"counter {name!r} mutated without holding the store lock"
                    )
                object.__setattr__(self, name, value)

        store = Audited()
        store._audit = True
        store.put(make_trace(0b0001))  # puts
        assert store.find("fp-a", 0b0001) is not None  # memory-hit path
        assert store.find("fp-backed", 0b0001) is loaded  # fallback-hit path
        assert store.find("fp-none", 0b0001) is None  # miss path
        assert (store.puts, store.hits, store.misses) == (1, 2, 1)

    def test_miss_counter_is_exact_under_contention(self):
        store = TraceStore()

        def worker(seed: int) -> None:
            for step in range(self.OPS):
                assert store.find(f"miss-{seed}-{step}", 0b1) is None

        self._hammer(worker)
        assert store.misses == self.THREADS * self.OPS
        assert store.hits == 0

    def test_fallback_hit_counter_is_exact_under_contention(self):
        class Backed(TraceStore):
            def _find_fallback(self, fingerprint, required_mask):
                return make_trace(0b1, fingerprint=fingerprint)

        store = Backed()

        def worker(seed: int) -> None:
            for step in range(self.OPS):
                assert store.find(f"hit-{seed}-{step}", 0b1) is not None

        self._hammer(worker)
        assert store.hits == self.THREADS * self.OPS
        assert store.misses == 0

    def test_puts_counter_is_exact_under_contention(self):
        store = TraceStore()

        def worker(seed: int) -> None:
            for step in range(self.OPS):
                store.put(make_trace(0b1, fingerprint=f"fp-{seed}-{step}"))

        self._hammer(worker)
        assert store.puts == self.THREADS * self.OPS


# ---------------------------------------------------------------- disk store
class TestDiskTraceStore:
    def test_put_persists_segment_and_index(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        trace = store.put(make_trace(0b0101))
        assert store.segments_written == 1
        index = json.loads((tmp_path / "index.json").read_text())
        assert index["version"] == 1
        (entry,) = index["entries"]
        assert entry["fingerprint"] == "fp-a"
        assert entry["mask"] == 0b0101
        assert entry["digest"] == trace.digest()
        assert (tmp_path / entry["file"]).is_file()
        # Segments reuse the CLI trace file format.
        assert Trace.load(str(tmp_path / entry["file"])).digest() == trace.digest()

    def test_duplicate_put_does_not_rewrite_index(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        store.put(make_trace(0b0011))
        assert store.index_writes == 1

        writes = []
        original = store._write_index_locked

        def counting() -> None:
            writes.append(1)
            original()

        store._write_index_locked = counting
        # Same digest: the segment and index already hold this trace, so a
        # second put must leave the index file untouched.
        store.put(make_trace(0b0011))
        assert not writes
        assert store.index_writes == 1
        assert store.segments_written == 1
        # A genuinely new (covering) trace dirties the index and writes once.
        store.put(make_trace(0b0111))
        assert len(writes) == 1
        assert store.index_writes == 2

    def test_index_round_trip_across_restart(self, tmp_path):
        first = DiskTraceStore(tmp_path)
        trace = first.put(make_trace(0b0111))
        first.close()

        reopened = DiskTraceStore(tmp_path)
        assert len(reopened) == 0  # memory empty; only the index was read
        assert reopened.has("fp-a", 0b0001)
        found = reopened.find("fp-a", 0b0001)
        assert found is not None and found.digest() == trace.digest()
        assert reopened.disk_hits == 1 and reopened.hits == 1
        # Now memorized: a second find is a pure memory hit.
        assert reopened.find("fp-a", 0b0010) is found
        assert reopened.disk_hits == 1
        assert reopened.puts == 0  # loading is not a recording

    def test_covered_eviction_removes_on_disk_segments(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        small = store.put(make_trace(0b0001))
        big = store.put(make_trace(0b0011))
        assert store.segment_count() == 1
        remaining = list(tmp_path.glob("*.trace.bin"))
        assert len(remaining) == 1
        assert store._segment_name("fp-a", big.digest()) == remaining[0].name
        assert small.digest() not in remaining[0].name

    def test_disjoint_masks_coexist(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        store.put(make_trace(0b0001))
        store.put(make_trace(0b0110))
        assert store.segment_count() == 2
        # Cheapest covering trace preferred on disk too.
        reopened = DiskTraceStore(tmp_path)
        assert reopened.find("fp-a", 0b0010).mask == 0b0110

    def test_corrupt_segment_is_a_clean_miss(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        store.put(make_trace(0b0011))
        (segment,) = tmp_path.glob("*.trace.bin")
        segment.write_bytes(b"\x1f\x8b garbage that is not gzip json")

        reopened = DiskTraceStore(tmp_path)
        assert reopened.find("fp-a", 0b0001) is None  # no exception
        assert reopened.corrupt_segments == 1
        assert reopened.misses == 1
        # The poisoned entry is dropped: index rewritten, file gone.
        assert not list(tmp_path.glob("*.trace.bin"))
        assert json.loads((tmp_path / "index.json").read_text())["entries"] == []
        # A fresh recording re-populates cleanly.
        reopened.put(make_trace(0b0011))
        assert reopened.find("fp-a", 0b0001) is not None

    def test_truncated_segment_is_a_clean_miss(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        store.put(make_trace(0b0011))
        (segment,) = tmp_path.glob("*.trace.bin")
        whole = segment.read_bytes()
        segment.write_bytes(whole[: len(whole) // 2])

        reopened = DiskTraceStore(tmp_path)
        assert reopened.find("fp-a", 0b0001) is None
        assert reopened.corrupt_segments == 1

    def test_missing_segment_file_is_a_clean_miss(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        store.put(make_trace(0b0011))
        for segment in tmp_path.glob("*.trace.bin"):
            segment.unlink()
        reopened = DiskTraceStore(tmp_path)
        assert reopened.find("fp-a", 0b0001) is None
        assert reopened.corrupt_segments == 1

    def test_fingerprint_mismatched_segment_is_dropped(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        store.put(make_trace(0b0011, fingerprint="fp-real"))
        store.close()
        # Hand-edit the index row to claim a fingerprint the binary segment
        # it names does not carry.
        index_path = tmp_path / "index.json"
        index = json.loads(index_path.read_text())
        (row,) = index["entries"]
        row["fingerprint"] = "fp-imposter"
        index_path.write_text(json.dumps(index))
        reopened = DiskTraceStore(tmp_path)
        assert reopened.find("fp-imposter", 0b0001) is None
        assert reopened.corrupt_segments == 1
        assert reopened.misses == 1
        # The lying entry is dropped: index rewritten, segment gone.
        assert json.loads(index_path.read_text())["entries"] == []
        assert not list(tmp_path.glob("*.trace.bin"))

    def test_legacy_v1_segment_keeps_serving(self, tmp_path, v1_chunks_fixture):
        # A store written while segments were v1 gzip-NDJSON: its index row
        # names a .trace.json.gz file, which still loads through the v1 reader.
        header = open_trace_source(str(v1_chunks_fixture))
        name = f"{header.fingerprint[:16]}-{header.digest()[:16]}.trace.json.gz"
        shutil.copyfile(v1_chunks_fixture, tmp_path / name)
        row = {
            "fingerprint": header.fingerprint,
            "digest": header.digest(),
            "mask": header.mask,
            "workload": header.workload,
            "events": header.event_count,
            "file": name,
        }
        (tmp_path / "index.json").write_text(
            json.dumps({"version": 1, "entries": [row]})
        )
        store = DiskTraceStore(tmp_path)
        found = store.find(header.fingerprint, header.mask)
        assert found is not None
        assert found.digest() == header.digest()
        assert store.disk_hits == 1 and store.corrupt_segments == 0
        ref = store.segment_ref(header.fingerprint, header.mask)
        assert ref["path"] == str(tmp_path / name)

    def test_corrupt_index_means_empty_store_not_crash(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        store.put(make_trace(0b0011))
        (tmp_path / "index.json").write_text("{ not json")
        reopened = DiskTraceStore(tmp_path)
        assert reopened.find("fp-a", 0b0001) is None
        assert reopened.segment_count() == 0

    def test_flush_on_close_writes_dirty_index(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        store.put(make_trace(0b0011))
        # Dirty the in-memory index without an immediate write.
        with store._io_lock:
            store._index["fp-a"][0]["workload"] = "renamed"
            store._dirty = True
        store.close()
        index = json.loads((tmp_path / "index.json").read_text())
        assert index["entries"][0]["workload"] == "renamed"

    def test_clear_removes_segments_and_index_entries(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        store.put(make_trace(0b0011))
        store.put(make_trace(0b0100, fingerprint="fp-b"))
        store.clear()
        assert store.segment_count() == 0
        assert not list(tmp_path.glob("*.trace.*"))
        assert json.loads((tmp_path / "index.json").read_text())["entries"] == []

    def test_publish_installs_a_segment_staged_elsewhere(self, tmp_path):
        # The stage half needs no store object: a pool worker runs it with
        # nothing but the root path.
        store = DiskTraceStore(tmp_path)
        trace = make_trace(0b0110)
        tmp, row = DiskTraceStore.stage(tmp_path, trace)
        assert tmp.parent == tmp_path and tmp.name.endswith(".tmp")
        served = store.publish(tmp, row)
        assert not tmp.exists()
        # The memory tier serves the published segment's source, at rest.
        assert served.digest() == trace.digest() and served.load() == trace
        assert store.puts == 1 and store.segments_written == 1
        assert store.find("fp-a", 0b0110) is served
        assert DiskTraceStore(tmp_path).segment_count() == 1

    def test_failed_publish_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import repro.serve.store as store_module

        store = DiskTraceStore(tmp_path)
        tmp, row = DiskTraceStore.stage(tmp_path, make_trace(0b0011))

        def disk_full(*_args):
            raise OSError("disk full")

        monkeypatch.setattr(store_module.os, "replace", disk_full)
        with pytest.raises(OSError, match="disk full"):
            store.publish(tmp, row)
        assert not list(tmp_path.glob("*.tmp"))
        assert store.puts == 0 and store.segment_count() == 0

    def test_opening_a_store_sweeps_orphaned_temp_files(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        store.put(make_trace(0b0011))
        orphan = tmp_path / "0123456789abcdef-fedcba9876543210.trace.bin.99-1.tmp"
        orphan.write_bytes(b"half a segment")
        (tmp_path / "index.json.tmp").write_text("{")
        reopened = DiskTraceStore(tmp_path)
        assert not list(tmp_path.glob("*.tmp"))
        assert reopened.segment_count() == 1


# --------------------------------------------------------------- concurrency
class TestStoreConcurrency:
    @pytest.mark.parametrize("store_kind", ["memory", "disk"])
    def test_parallel_put_find_with_eviction(self, tmp_path, store_kind):
        store = TraceStore() if store_kind == "memory" else DiskTraceStore(tmp_path)
        fingerprints = ["fp-0", "fp-1", "fp-2"]
        masks = [0b0001, 0b0010, 0b0011, 0b0111, 0b1111]
        errors = []
        barrier = threading.Barrier(8)

        def worker(seed: int) -> None:
            barrier.wait()
            try:
                for step in range(30):
                    fingerprint = fingerprints[(seed + step) % len(fingerprints)]
                    mask = masks[(seed * 7 + step) % len(masks)]
                    if step % 3 == 0:
                        store.put(make_trace(mask, fingerprint=fingerprint))
                    else:
                        found = store.find(fingerprint, mask)
                        if found is not None:
                            assert found.covers(mask)
                            assert found.fingerprint == fingerprint
            except BaseException as exc:  # noqa: BLE001 - surface to the test
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Invariants after the storm (note: a narrower trace *may* coexist
        # with a broader sibling by design — find prefers the cheaper one):
        # every stored trace answers its own mask, lookups stay consistent,
        # and the final put for each fingerprint is served (its mask was
        # never evicted — eviction only removes covered traces).
        for fingerprint in fingerprints:
            traces = store.traces_for(fingerprint)
            assert traces, f"all traces vanished for {fingerprint}"
            for trace in traces:
                assert trace.fingerprint == fingerprint
                found = store.find(fingerprint, trace.mask)
                assert found is not None and found.covers(trace.mask)
                # Preference: no stored covering sibling is cheaper.
                cheaper = [
                    other
                    for other in traces
                    if other.covers(trace.mask)
                    and bin(other.mask).count("1") < bin(found.mask).count("1")
                ]
                assert not cheaper
        if store_kind == "disk":
            store.close()
            # Every indexed segment must load cleanly after the storm, and
            # the index must mirror the in-memory tier's answers.
            reopened = DiskTraceStore(tmp_path)
            for fingerprint in fingerprints:
                for trace in store.traces_for(fingerprint):
                    assert reopened.find(fingerprint, trace.mask) is not None
            assert reopened.corrupt_segments == 0

    def test_concurrent_puts_interleave_segment_writes(self, tmp_path, monkeypatch):
        """Two tenants must be able to serialize segments *simultaneously*.

        ``put`` used to hold ``_io_lock`` across the whole segment write; a
        two-party barrier inside ``write_binary_trace`` would then
        deadlock (the second putter blocks on the lock before ever reaching
        its write).  With the write outside the lock, both threads reach the
        barrier together and both segments publish intact.
        """
        from repro.jsvm import tracecodec

        store = DiskTraceStore(tmp_path)
        barrier = threading.Barrier(2, timeout=10.0)
        original = tracecodec.write_binary_trace

        def rendezvous(trace, path, chunk_events=None):
            barrier.wait()
            return original(trace, path, chunk_events=chunk_events)

        monkeypatch.setattr(tracecodec, "write_binary_trace", rendezvous)
        errors = []

        def put(fingerprint: str) -> None:
            try:
                store.put(make_trace(0b0011, fingerprint=fingerprint))
            except BaseException as exc:  # noqa: BLE001 - surface to the test
                errors.append(exc)

        threads = [
            threading.Thread(target=put, args=(f"fp-{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # A BrokenBarrierError here means one writer held the io lock
        # across its segment write while the other waited.
        assert not errors
        store.close()
        reopened = DiskTraceStore(tmp_path)
        assert reopened.segment_count() == 2
        for index in range(2):
            assert reopened.find(f"fp-{index}", 0b0001) is not None
        assert reopened.corrupt_segments == 0

    @staticmethod
    def _gate_segment_loads(monkeypatch):
        """Make the store's first segment open block until released (later
        opens, such as a put serving its own segment, pass); returns the
        events (started, release)."""
        import repro.serve.store as store_module

        started, release = threading.Event(), threading.Event()
        original = store_module.open_trace_source

        def gated(path):
            if not started.is_set():
                started.set()
                assert release.wait(10.0), "gated segment load never released"
            return original(path)

        monkeypatch.setattr(store_module, "open_trace_source", gated)
        return started, release

    def test_put_completes_while_another_segment_decodes(self, tmp_path, monkeypatch):
        """A disk find decodes outside ``_io_lock``: a put for fingerprint B
        must not wait for fingerprint A's segment decode."""
        seeded = DiskTraceStore(tmp_path)
        seeded.put(make_trace(0b0011, fingerprint="fp-a"))
        seeded.close()
        store = DiskTraceStore(tmp_path)  # index only: fp-a lives on disk
        started, release = self._gate_segment_loads(monkeypatch)
        found = []
        finder = threading.Thread(
            target=lambda: found.append(store.find("fp-a", 0b0001))
        )
        finder.start()
        try:
            assert started.wait(10.0)
            putter = threading.Thread(
                target=store.put, args=(make_trace(0b0001, fingerprint="fp-b"),)
            )
            putter.start()
            putter.join(timeout=5.0)
            put_done = not putter.is_alive()
        finally:
            release.set()
        finder.join(timeout=10.0)
        putter.join(timeout=10.0)
        assert put_done, "put for fp-b waited on fp-a's segment decode"
        assert not finder.is_alive()
        assert found[0] is not None and found[0].fingerprint == "fp-a"
        assert store.disk_hits == 1 and store.corrupt_segments == 0
        assert store.has("fp-b", 0b0001)

    def test_segment_evicted_during_decode_is_not_corrupt(self, tmp_path, monkeypatch):
        seeded = DiskTraceStore(tmp_path)
        seeded.put(make_trace(0b0001, fingerprint="fp-a"))
        seeded.close()
        store = DiskTraceStore(tmp_path)
        started, release = self._gate_segment_loads(monkeypatch)
        found = []
        finder = threading.Thread(
            target=lambda: found.append(store.find("fp-a", 0b0001))
        )
        finder.start()
        try:
            assert started.wait(10.0)
            # A covering put evicts (and unlinks) the segment being decoded.
            store.put(make_trace(0b0011, fingerprint="fp-a"))
        finally:
            release.set()
        finder.join(timeout=10.0)
        assert not finder.is_alive()
        assert found == [None]  # the evicted file is gone: a plain miss
        assert store.corrupt_segments == 0
        assert [row["mask"] for row in store._index["fp-a"]] == [0b0011]


# ------------------------------------------------------------- real recording
class TestRealTraceRoundTrip:
    def test_recorded_workload_trace_survives_restart(self, tmp_path):
        from repro.api import AnalysisSession, RunSpec
        from repro.engine.cache import workload_fingerprint
        from repro.workloads import get_workload

        spec = RunSpec.composed("lightweight", publish=False).replay()
        with AnalysisSession(trace_store=DiskTraceStore(tmp_path / "store")) as session:
            first = session.run("MyScript", spec)
        assert first.provenance.startswith("replay:")

        # A brand-new session over the same directory replays from disk:
        # zero guest executions, byte-identical envelope.
        store = DiskTraceStore(tmp_path / "store")
        with AnalysisSession(trace_store=store) as session:
            second = session.run("MyScript", spec)
        assert store.puts == 0
        assert store.disk_hits == 1
        assert second.to_dict() == first.to_dict()
        fingerprint = workload_fingerprint(get_workload("MyScript"))
        assert fingerprint in store.fingerprints()


# ------------------------------------------------------- lazy-decode fuzzing
_FIXTURE = Path(__file__).parent / "fixtures" / "myscript-container2.trace.bin"
#: A replay that never decodes the statement, property or variable groups.
_LAZY_SPEC = RunSpec.composed(LIGHTWEIGHT, LOOP_PROFILE, publish=False).replay()


def _served_payload(source) -> bytes:
    with AnalysisSession(trace_store=TraceStore()) as session:
        return encode_json(session.replay_trace(source, _LAZY_SPEC).to_dict())


def _frames(data: bytes):
    """``(offset, frame_bytes)`` per chunk frame of a binary segment."""
    source = BinaryTraceSource.from_bytes(data)
    return [
        (start - 4, data[start - 4 : end]) for _index, start, end in source._frames()
    ]


def _group_spans(data: bytes, opcode: int):
    """File byte ranges of every ``opcode`` group's column blocks."""
    source = BinaryTraceSource.from_bytes(data)
    arity = Trace._RECORD_LAYOUT[opcode][0]
    spans = []
    for (_index, body_start, _end), chunk in zip(source._frames(), source.chunks()):
        for group_opcode, _count, start in chunk._groups:
            if group_opcode == opcode:
                end = start
                for _block in range(arity):
                    end = _skip_block(chunk._body, end)
                spans.append((body_start + start, body_start + end))
    return spans


@pytest.fixture(scope="module")
def sealed_segment(tmp_path_factory):
    """MyScript as a multi-chunk container-3 store segment: the store's
    index text, the segment's name and bytes, and the served payload."""
    trace = open_trace_source(str(_FIXTURE)).load()
    root = tmp_path_factory.mktemp("sealed")
    store = DiskTraceStore(root, chunk_events=2048)
    store.put(trace)
    store.close()
    (segment,) = root.glob("*.trace.bin")
    data = segment.read_bytes()
    assert len(_frames(data)) > 2
    return {
        "trace": trace,
        "index": (root / "index.json").read_text(),
        "name": segment.name,
        "data": data,
        "payload": _served_payload(DiskTraceStore(root).find(trace.fingerprint, trace.mask)),
        "statements": _group_spans(data, TR_STATEMENT),
        "work": tmp_path_factory.mktemp("mutants"),
    }


@st.composite
def _mutations(draw, data: bytes, statements):
    kind = draw(st.sampled_from(["flip", "unread-flip", "footer-flip", "truncate", "splice"]))
    if kind.endswith("flip"):
        if kind == "flip":
            at = draw(st.integers(0, len(data) - 1))
        elif kind == "unread-flip":  # inside a group the replay never decodes
            start, end = draw(st.sampled_from(statements))
            at = draw(st.integers(start, end - 1))
        else:  # the footer: counts, seal and offset index, outside the seal
            footer_len = struct.unpack_from("<I", data, len(data) - 12)[0]
            at = draw(st.integers(len(data) - 12 - footer_len, len(data) - 13))
        mutated = bytearray(data)
        mutated[at] ^= 1 << draw(st.integers(0, 7))
        return bytes(mutated)
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    # Splice: chunk i's frame replaced by chunk j's, with the offset index
    # rewritten to tile the new frames, so only the seal can tell.
    frames = _frames(data)
    i = draw(st.integers(0, len(frames) - 1))
    j = draw(st.integers(0, len(frames) - 1))
    bodies = [frame for _offset, frame in frames]
    bodies[i] = bodies[j]
    head_end = frames[0][0]
    footer_len = struct.unpack_from("<I", data, len(data) - 12)[0]
    footer = data[len(data) - 12 - footer_len : len(data) - 12]
    offsets, at = [], head_end
    for body in bodies:
        offsets.append(at)
        at += len(body)
    index_bytes = b"".join(struct.pack("<Q", offset) for offset in offsets)
    footer = footer[: len(footer) - len(index_bytes)] + index_bytes
    return b"".join(
        [data[:head_end], *bodies, footer, struct.pack("<I", len(footer)), data[-8:]]
    )


class TestLazyDecodeCorruption:
    """Corruption of a sealed segment, anywhere (also inside groups a replay
    never decodes), is a clean miss with the index entry dropped; ``verify``
    refuses the same bytes."""

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_mutated_segment_is_a_clean_miss_or_serves_identically(
        self, sealed_segment, data
    ):
        seed = sealed_segment
        mutated = data.draw(_mutations(seed["data"], seed["statements"]))
        root = Path(tempfile.mkdtemp(dir=seed["work"]))
        (root / "index.json").write_text(seed["index"])
        (root / seed["name"]).write_bytes(mutated)
        trace = seed["trace"]
        store = DiskTraceStore(root)
        found = store.find(trace.fingerprint, trace.mask)
        if found is None:
            assert store.segment_count() == 0 and store.corrupt_segments == 1
            assert not (root / seed["name"]).exists()
        else:
            assert _served_payload(found) == seed["payload"]
        if mutated != seed["data"]:
            probe = root / "probe.trace.bin"
            probe.write_bytes(mutated)
            with pytest.raises(TraceError):
                open_trace_source(str(probe)).verify()
        shutil.rmtree(root)

    def test_offset_pointing_inside_a_frame_is_a_clean_miss(self, sealed_segment, tmp_path):
        # The offset index sits outside the seal: the one-time check walks
        # it, so the damage is a miss rather than a failed replay later.
        seed = sealed_segment
        data = bytearray(seed["data"])
        second_at = len(data) - 12 - 8 * (len(_frames(seed["data"])) - 1)
        (second,) = struct.unpack_from("<Q", data, second_at)
        struct.pack_into("<Q", data, second_at, second + 1)
        (tmp_path / "index.json").write_text(seed["index"])
        (tmp_path / seed["name"]).write_bytes(bytes(data))
        store = DiskTraceStore(tmp_path)
        assert store.find(seed["trace"].fingerprint, seed["trace"].mask) is None
        assert store.corrupt_segments == 1 and store.segment_count() == 0
