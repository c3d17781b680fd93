"""Benchmark: binary columnar trace codec vs NDJSON — the acceptance gates.

The package writes only the binary container; the gzip-NDJSON baseline is
written here by :func:`_write_ndjson_reference`, the retired v1 chunked
writer kept as a private reference helper (its output is the exact format
the package still reads).  Three numbers on the 10× fluidSim trace (~3.15M
events):

* **decode throughput**: streaming all chunks of the v2 binary file and
  materializing every event tuple must run ≥ 3× the events/sec of the same
  trace's gzipped-NDJSON file;
* **on-disk size**: the binary segment must be ≤ 0.6× the gzipped NDJSON
  equivalent;
* **zero-copy pool attach**: handing a disk-backed segment to a pool worker
  by ``(path, digest)`` reference ships zero trace bytes over the pipe
  (the worker mmaps the shared segment itself).

Content identity rides along: both files must materialize to the recorded
trace's identity (the v1 file to ``Trace.legacy_digest()``, the identity v1
headers carry; the binary file to ``Trace.digest()``), and an incremental
replay of either file must produce identical analysis rows.  Results land in
``BENCH_trace_codec.json``; ``collect_summary.py --check`` blocks on the
throughput/size/attach keys being present and numeric.
"""

from __future__ import annotations

import gzip
import json
import os
import time

from repro.analysis.casestudy import CaseStudyRunner, pipeline_trace_mask
from repro.ceres.loop_profiler import LoopProfiler
from repro.engine.workerpool import PoolTask, WorkerPool
from repro.jsvm.hooks import TRACE_CHUNK_FORMAT, TraceReplayer, open_trace_source
from repro.jsvm.tracecodec import _chunk_deltas, write_binary_trace
from repro.serve.store import DiskTraceStore

from test_bench_stream_memory import _fluid_workload

CHUNK_EVENTS = 65536
DECODE_SPEEDUP_GATE = 3.0
SIZE_RATIO_GATE = 0.6
DECODE_REPEATS = 3


def _write_ndjson_reference(trace, path: str, chunk_events: int, digest: str) -> int:
    """Write ``trace`` as v1 chunked gzip-NDJSON (the decode/size baseline).

    A header line carrying the provenance and the full-content ``digest``
    (v1 files carry :meth:`Trace.legacy_digest`), one line
    per chunk whose intern-table deltas cover exactly the entries its events
    first reference, and a footer line with the chunk and event totals.
    Returns the number of chunks written.
    """
    events = trace.events
    header = {
        "format": TRACE_CHUNK_FORMAT,
        "version": trace.version,
        "mask": trace.mask,
        "workload": trace.workload,
        "fingerprint": trace.fingerprint,
        "ms_per_op": trace.ms_per_op,
        "start_ms": trace.start_ms,
        "end_ms": trace.end_ms,
        "env_count": trace.env_count,
        "dropped": list(trace.dropped),
        "digest": digest,
        "events": len(events),
        "chunk_events": chunk_events,
    }
    chunk_count = len(range(0, len(events), chunk_events))
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write(json.dumps(header, separators=(",", ":")) + "\n")
        for chunk_index, (batch, strings, nodes, objects, env_delta) in enumerate(
            _chunk_deltas(trace, chunk_events)
        ):
            payload = {
                "chunk": chunk_index,
                "strings": strings,
                "nodes": [list(e) for e in nodes],
                "objects": [list(e) for e in objects],
                "envs": env_delta,
                "events": [list(r) for r in batch],
            }
            handle.write(json.dumps(payload, separators=(",", ":")) + "\n")
        footer = {"end": True, "chunks": chunk_count, "events": len(events)}
        handle.write(json.dumps(footer, separators=(",", ":")) + "\n")
    return chunk_count


def _attach_probe(context, heavy, fingerprint, mask):
    """Pool task: absorb the heavy payload, report whether the trace landed."""
    context.install(None, heavy)
    return context.trace_store.has(fingerprint, mask)


def _decode_all(path: str) -> tuple:
    """(events decoded, seconds) for one full streaming decode of ``path``."""
    source = open_trace_source(path)
    start = time.perf_counter()
    total = 0
    for chunk in source.chunks():
        total += len(chunk.events)
    elapsed = time.perf_counter() - start
    close = getattr(source, "close", None)
    if close is not None:
        close()
    return total, elapsed


def _best_rate(path: str) -> float:
    """Best-of-N decode throughput (events/sec) — N runs absorb machine noise."""
    best = 0.0
    for _ in range(DECODE_REPEATS):
        total, elapsed = _decode_all(path)
        best = max(best, total / elapsed)
    return best


def _loop_rows(path: str) -> list:
    profiler = LoopProfiler()
    TraceReplayer(open_trace_source(path)).replay([profiler])
    return [profiler.profiles[key].as_row() for key in sorted(profiler.profiles)]


def test_bench_trace_codec_gates(benchmark, tmp_path):
    runner = CaseStudyRunner()
    mask = pipeline_trace_mask()
    trace = runner.record_trace(_fluid_workload(40), mask)

    json_path = str(tmp_path / "fluid-10x.trace.json.gz")
    bin_path = str(tmp_path / "fluid-10x.trace.bin")
    legacy_digest = trace.legacy_digest()
    _write_ndjson_reference(trace, json_path, CHUNK_EVENTS, legacy_digest)
    write_binary_trace(trace, bin_path, chunk_events=CHUNK_EVENTS)
    size_json = os.path.getsize(json_path)
    size_bin = os.path.getsize(bin_path)
    size_ratio = size_bin / size_json

    json_rate = _best_rate(json_path)
    bin_rate = benchmark.pedantic(
        lambda: _best_rate(bin_path), rounds=1, iterations=1
    )
    speedup = bin_rate / json_rate

    # Content identity across encodings: each file materializes to the
    # recorded trace's identity in its format, and incremental replay rows
    # agree.
    digest_identical = (
        open_trace_source(json_path).load().digest() == legacy_digest
        and open_trace_source(bin_path).load().digest() == trace.digest()
    )
    assert digest_identical, "an encoding diverged from the recorded trace"
    payload_identical = _loop_rows(json_path) == _loop_rows(bin_path)
    assert payload_identical, "analysis rows diverged across encodings"

    # Zero-copy pool attach: the worker opens the disk segment itself.
    store = DiskTraceStore(tmp_path / "store")
    store.put(trace)
    fingerprint = trace.fingerprint

    def heavy():
        ref = store.segment_ref(fingerprint, mask)
        if ref is not None:
            return {"trace": None, "trace_ref": ref, "bytecode": None}
        return {"trace": store.find(fingerprint, mask), "trace_ref": None,
                "bytecode": None}

    with WorkerPool(width=1) as pool:
        task = PoolTask(
            fn=_attach_probe,
            args=(fingerprint, mask),
            cache_key=fingerprint,
            heavy=heavy,
            label="attach-probe",
        )
        (attached,) = pool.run_tasks([task])
        assert attached, "pool worker failed to attach the shared segment"
        attach_bytes = pool.trace_bytes_shipped
        attach_refs = pool.trace_refs_shipped
    store.close()
    assert attach_bytes == 0, (
        f"warm disk-backed attach shipped {attach_bytes} trace bytes over the pipe"
    )
    assert attach_refs == 1

    assert speedup >= DECODE_SPEEDUP_GATE, (
        f"binary decode only {speedup:.2f}x NDJSON "
        f"({bin_rate:.0f} vs {json_rate:.0f} events/sec)"
    )
    assert size_ratio <= SIZE_RATIO_GATE, (
        f"binary segment is {size_ratio:.3f}x the gzipped NDJSON "
        f"({size_bin} vs {size_json} bytes)"
    )

    benchmark.extra_info.update(
        {
            "artifact_name": "BENCH_trace_codec.json",
            "events": len(trace.events),
            "chunk_events": CHUNK_EVENTS,
            "decode_events_per_sec_binary": round(bin_rate),
            "decode_events_per_sec_json": round(json_rate),
            "decode_speedup": round(speedup, 3),
            "size_binary_bytes": size_bin,
            "size_json_gz_bytes": size_json,
            "size_ratio": round(size_ratio, 4),
            "digest_identical": digest_identical,
            "payload_identical": payload_identical,
            "pool_attach_trace_bytes_shipped": attach_bytes,
            "pool_attach_trace_refs_shipped": attach_refs,
        }
    )
