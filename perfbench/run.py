"""One benchmark for the repo: batch runs and serve traffic, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 15 --trace 0

Workloads (each reports every end-to-end metric):

* ``cold`` — the cold 12-app sweep (``python -m repro report`` from an empty
  in-memory store) then *mixed* serve traffic: warm keys plus seeded ad-hoc
  script submissions, each a unique fingerprint that records, encodes and
  stores.  Everything that records a trace runs here.
* ``warm`` — the live API spec set (``ceres-overhead``: uninstrumented,
  mode 1 and mode 2 on all 12 apps, a fresh session, no store) then *warm*
  serve traffic on a populated store: the daemon never runs the guest.

End-to-end metrics (``--trace 0``):

* ``setup_s`` — median of three rounds of CLI start (``python -m repro
  list``) plus a daemon start on a fresh store copy until ``/healthz``;
* ``batch_s``, ``peak_rss_mb`` — wall time and peak RSS (``wait4``) of the
  sweep or api-live subprocess;
* ``daemon_rss_mb`` — the daemon's peak RSS (``VmHWM``) after all phases;
* ``restart_s`` — the restart phase: one first-touch request per app;
* ``capacity_rps`` — completions per second in the closed-loop phase;
* ``cold_ms`` — mean latency of requests that miss the daemon's memory
  tier: script submissions (``cold``) or restart-phase first touches
  (``warm``).  A mean, not a median: the twelve first touches are twelve
  different apps, and their median jumps between apps from run to run;
* ``slo_attainment`` — share of open-loop requests sent that succeeded,
  passed the output check and finished within ``serve.SLO_MS``.

Warm-request latency in the open-loop phase (p50 and p90, timed from when
each request was due) is measured on every run but not gated: on a shared
2-core host its run-to-run spread is 0.3-0.5 of its median, wider than any
bound the driver allows.  Untraced runs print it and store the raw samples;
traced runs report it as ``serve.p50_ms`` and ``serve.p90_ms``.

``--trace 1`` runs the same phases with spans around the program's public
layer functions in every program process (``tracing.py``), plus the
null-baseline probe (``layers.py``), and reports per-layer metrics.  It
also runs the batch once untraced to report the tracing overhead.

Each run appends its raw samples, phase reports and host fingerprint to
``.perfbench/results.jsonl``; ``--steadiness`` prints the median and
quartiles per metric and workload over that file.  ``--regen-expected``
rewrites the committed expected outputs from the current program.

The last line of standard output is the result object the driver reads.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import batch
import serve
import tracing
from common import (
    BENCH_DIR,
    WORK,
    BenchError,
    cpu_ticks,
    host_fingerprint,
    measured_child,
    percentile,
    python_argv,
    quartiles,
    require_program,
)

WORKLOADS = {"cold": ("sweep", True), "warm": ("api", False)}
SETUP_ROUNDS = 3
PROBE_APPS = ("Normal Mapping", "HAAR.js")
RESULTS = WORK / "results.jsonl"

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "peak_rss_mb": "MB",
    "daemon_rss_mb": "MB",
    "restart_s": "s",
    "capacity_rps": "1/s",
    "cold_ms": "ms",
    "slo_attainment": "share",
}


#: Which end-to-end metric (on which workload) each layer should move;
#: on every other pairing the prediction is no change.
_RECORD = "cold batch_s, cold cold_ms"
_REPLAY = "cold batch_s; capacity_rps (both)"
_DECODE = "restart_s (both), warm cold_ms"
_FANOUT = "cold batch_s, peak_rss_mb"
_QUEUE = "cold cold_ms, slo_attainment; serve.p90_ms"
PREDICTIONS = {
    "jsvm.parse_s": "all, slightly (guard)",
    "jsvm.exec_hooked_s": _RECORD,
    "hooks.record_s": _RECORD,
    "hooks.events": _RECORD,
    "hooks.record_span_s": _RECORD,
    "jsvm.exec_plain_s": "warm batch_s only",
    "jsvm.plain_ops_per_s": "warm batch_s only",
    "ceres.live_lightweight_s": "warm batch_s only",
    "ceres.live_loop_profile_s": "warm batch_s only",
    "hooks.replay_s": _REPLAY,
    "hooks.replay_span_s": _REPLAY,
    "ceres.lightweight_s": _REPLAY,
    "browser.gecko_s": _REPLAY,
    "ceres.loop_profile_s": _REPLAY,
    "ceres.dependence_s": _REPLAY,
    "tracecodec.encode_s": "cold cold_ms",
    "tracecodec.segment_bytes": "cold cold_ms",
    "serve.store_put_s": "cold cold_ms",
    "tracecodec.decode_s": _DECODE,
    "tracecodec.decode_events_per_s": _DECODE,
    "serve.store_disk_find_s": _DECODE,
    "store.disk_hits": _DECODE,
    "engine.fanout_efficiency": _FANOUT,
    "engine.ship_bytes": _FANOUT,
    "engine.ship_s": _FANOUT,
    "api.result_json_s": "serve.p50_ms (both)",
    "serve.response_bytes": "serve.p50_ms (both)",
    "serve.overhead_ms": "serve.p50_ms (both)",
    "serve.p50_ms": "ungated end-to-end figure (both)",
    "serve.p90_ms": "ungated end-to-end figure (both)",
    "serve.queued_ms": _QUEUE,
    "serve.run_ms": _QUEUE,
    "serve.rejected": _QUEUE,
    "serve.coalesced": _QUEUE,
    "store.recordings": "invariant: cold = script count, warm = 0",
    "store.hits": "invariant",
    "store.misses": "invariant",
    "analysis.tables_s": "cold batch_s (negligible; guard)",
    "trace.coverage": "tracing quality",
    "trace.overhead": "tracing quality",
}


def measure_setup(store: Path, daemon_prefix) -> tuple:
    """Median of CLI start + daemon start (fresh store copy) over rounds.

    The last round's daemon is kept (idle until the serve phases) and
    returned with the median, so no extra daemon start is paid.
    """
    samples = []
    for round_index in range(SETUP_ROUNDS):
        started = time.perf_counter()
        cli = measured_child(python_argv("-m", "repro", "list"), WORK / "list.stdout")
        if cli["returncode"] != 0:
            raise BenchError("python -m repro list failed")
        last = round_index == SETUP_ROUNDS - 1
        daemon = serve.Daemon(store, daemon_prefix if last else None)
        samples.append(time.perf_counter() - started)
        if not last:
            daemon.stop()
    return statistics.median(samples), daemon


def open_latency(served: dict) -> dict:
    """p50 and p90 of warm open-loop latency, timed from when each was due."""
    warm_open = [r.latency_ms for r in served["open"] if not r.script and not r.error]
    if not warm_open:
        raise BenchError("no successful warm request in the open-loop phase")
    return {"p50_ms": percentile(warm_open, 0.5), "p90_ms": percentile(warm_open, 0.9)}


def end_to_end(batch_result: dict, served: dict, setup_s: float, mixed: bool) -> dict:
    closed_ok = [r for r in served["closed"] if not r.error]
    if mixed:
        cold = [r for r in served["open"] + served["closed"] if r.script and not r.error]
    else:
        cold = [r for r in served["restart"] if not r.error]
    open_sent = served["open"]
    met = [r for r in open_sent if not r.error and r.latency_ms <= serve.SLO_MS]
    if not closed_ok or not cold:
        raise BenchError("no successful requests in a serve phase")
    return {
        "setup_s": setup_s,
        "batch_s": batch_result["wall"],
        "peak_rss_mb": batch_result["rss_mb"],
        "daemon_rss_mb": served["daemon_rss_mb"],
        "restart_s": served["restart_s"],
        "capacity_rps": served["capacity_rps"],
        "cold_ms": statistics.mean(r.latency_ms for r in cold),
        "slo_attainment": len(met) / len(open_sent),
    }


def per_layer(spans, probe: dict, batch_result: dict, untraced_wall: float,
              served: dict) -> dict:
    """Per-layer metrics from the traced run's spans, probe and counters."""
    own = tracing.self_times(spans)
    latency = open_latency(served)

    def spent(prefix: str) -> float:
        return sum(seconds for name, seconds in own.items() if name.startswith(prefix))

    def count(name: str, field: str) -> int:
        return tracing.summed(spans, name, field)

    plain = spent("api.run[none|live]")
    ops = batch_result["plain_ops"]
    decode_s = spent("tracecodec.decode")
    workers = [s for s in spans if s["name"] == "engine.worker_task"]
    fanout = [s for s in spans if s["name"] == "engine.fanout"]
    worker_ns = sum(s["end"] - s["start"] for s in workers)
    fanout_ns = sum(s["end"] - s["start"] for s in fanout)
    width = len({s["pid"] for s in workers}) or 1
    ok = [r for r in served["open"] + served["closed"] if not r.error]
    overhead = [
        (r.done - r.sent) * 1000.0 - r.server["queued_ms"] - r.server["run_ms"]
        for r in ok
        if not r.script
    ]
    first, warm, end = (served["stats"][phase] for phase in ("start", "warm", "end"))
    metrics = {
        "jsvm.parse_s": own.get("jsvm.parse", 0.0),
        "jsvm.exec_hooked_s": probe["jsvm.exec_hooked_s"],
        "hooks.record_s": probe["hooks.record_s"],
        "hooks.events": probe["hooks.events"],
        "hooks.record_span_s": own.get("hooks.record", 0.0),
        "jsvm.exec_plain_s": plain,
        "jsvm.plain_ops_per_s": ops / plain if plain else 0.0,
        "ceres.live_lightweight_s": max(0.0, spent("api.run[gecko,lightweight|live]") - plain),
        "ceres.live_loop_profile_s": max(0.0, spent("api.run[loop_profile|live]") - plain),
        "hooks.replay_s": probe["hooks.replay_s"],
        "hooks.replay_span_s": own.get("hooks.replay", 0.0),
        "ceres.lightweight_s": probe["ceres.lightweight_s"],
        "browser.gecko_s": probe["browser.gecko_s"],
        "ceres.loop_profile_s": probe["ceres.loop_profile_s"],
        "ceres.dependence_s": probe["ceres.dependence_s"],
        "tracecodec.encode_s": own.get("tracecodec.encode", 0.0),
        "tracecodec.segment_bytes": count("tracecodec.encode", "bytes"),
        "serve.store_put_s": own.get("serve.store_put", 0.0),
        "tracecodec.decode_s": decode_s,
        "tracecodec.decode_events_per_s": (
            count("tracecodec.decode", "events") / decode_s if decode_s else 0.0
        ),
        "serve.store_disk_find_s": own.get("serve.store_find", 0.0),
        "store.disk_hits": end["store"].get("disk_hits", 0) - first["store"].get("disk_hits", 0),
        "engine.fanout_efficiency": worker_ns / (width * fanout_ns) if fanout_ns else 0.0,
        "engine.ship_bytes": sum(s.get("ship_bytes", 0) for s in workers),
        "engine.ship_s": sum(s.get("ship_ns", 0) for s in workers) / 1e9,
        "api.result_json_s": own.get("api.result_json", 0.0),
        "serve.response_bytes": sum(r.server["response_bytes"] for r in ok),
        "serve.overhead_ms": statistics.median(overhead) if overhead else 0.0,
        "serve.p50_ms": latency["p50_ms"],
        "serve.p90_ms": latency["p90_ms"],
        "serve.queued_ms": statistics.median([r.server["queued_ms"] for r in ok]),
        "serve.run_ms": statistics.median([r.server["run_ms"] for r in ok]),
        "serve.rejected": end["responses_by_status"].get("429", 0),
        "serve.coalesced": end["queue"]["coalesced"] - warm["queue"]["coalesced"],
        "store.recordings": end["recordings"] - first["recordings"],
        "store.hits": end["store"]["hits"] - first["store"]["hits"],
        "store.misses": end["store"]["misses"] - first["store"]["misses"],
        "analysis.tables_s": own.get("analysis.tables", 0.0),
        "trace.coverage": tracing.coverage(spans),
        "trace.overhead": batch_result["wall"] / untraced_wall if untraced_wall else 0.0,
    }
    return metrics


def run_probe() -> dict:
    result = measured_child(
        python_argv(str(BENCH_DIR / "layers.py"), *PROBE_APPS), WORK / "probe.stdout"
    )
    if result["returncode"] != 0:
        raise BenchError("layer probe failed")
    return json.loads(result["stdout"])


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    batch_kind, mixed = WORKLOADS[workload]
    require_program()
    WORK.mkdir(exist_ok=True)
    store = serve.populated_store()
    ticks_start = cpu_ticks()
    spans_dir = WORK / "spans"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir()
    daemon_spans = spans_dir / "daemon.json"
    daemon_prefix = [str(BENCH_DIR / "traced.py"), str(daemon_spans)] if trace else None
    setup_s, daemon = measure_setup(store, daemon_prefix)
    try:
        batch_result, served, metrics, units = _measure(
            batch_kind, mixed, seed, seconds, trace, daemon, spans_dir, setup_s
        )
    finally:
        daemon.stop()

    errors = ([batch_result["error"]] if batch_result["error"] else []) + served["errors"]
    requests = served["restart"] + served["open"] + served["closed"]
    failed = sum(1 for r in requests if r.error) + (1 if batch_result["error"] else 0)
    attempted = len(requests) + max(1, len(batch_result["items"]))
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_fingerprint(),
        "metrics": metrics,
        "ungated": open_latency(served),
        "errors": errors,
        "generator": served["generator"],
        "cpu_ticks": {key: value - ticks_start[key] for key, value in cpu_ticks().items()},
        "batch_cpu_s": batch_result["cpu"],
        "phases": [
            serve.phase_report("restart", served["restart"]),
            serve.phase_report("open", served["open"]),
            serve.phase_report("closed", served["closed"]),
        ],
        "samples": {
            "batch_items_s": batch_result["items"],
            "restart_ms": [r.latency_ms for r in served["restart"]],
            "open_ms": [[r.key, r.latency_ms] for r in served["open"]],
            "closed_ms": [[r.key, r.latency_ms] for r in served["closed"]],
            "open_late_ms": [(r.sent - r.due) * 1000.0 for r in served["open"]],
        },
    }
    with open(RESULTS, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "errors": errors,
        "record": record,
    }


def _measure(batch_kind, mixed, seed, seconds, trace, daemon, spans_dir, setup_s):
    """The batch and serve phases; per-layer metrics when ``trace``."""
    if not trace:
        batch_result = batch.run_batch(batch_kind)
        served = serve.run_serve(daemon, seed, mixed, seconds)
        return batch_result, served, end_to_end(batch_result, served, setup_s, mixed), END_TO_END
    untraced_wall = batch.run_batch(batch_kind)["wall"]
    batch_spans = spans_dir / "batch.json"
    batch_result = batch.run_batch(batch_kind, [str(BENCH_DIR / "traced.py"), str(batch_spans)])
    served = serve.run_serve(daemon, seed, mixed, seconds)  # stops the daemon: spans written
    spans = tracing.load_spans(batch_spans) + tracing.load_spans(spans_dir / "daemon.json")
    probe = run_probe()
    metrics = per_layer(spans, probe, batch_result, untraced_wall, served)
    return batch_result, served, metrics, {name: _layer_unit(name) for name in metrics}


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes"):
        return "B"
    if name.startswith("trace.") or name.endswith("efficiency"):
        return "ratio"
    return "count"


def steadiness() -> None:
    """Median and quartiles per metric x workload over ``results.jsonl``."""
    rows = {}
    for line in RESULTS.read_text().splitlines():
        record = json.loads(line)
        for name, value in record["metrics"].items():
            rows.setdefault((record["workload"], record["trace"], name), []).append(value)
    print(f"{'workload':8} {'metric':32} {'n':>3} {'q1':>12} {'median':>12} {'q3':>12} {'iqr/med':>8}")
    for (workload, traced, name), values in sorted(rows.items()):
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / median if median else 0.0
        label = workload + ("*" if traced else "")
        print(f"{label:8} {name:32} {len(values):3} {q1:12.4f} {median:12.4f} {q3:12.4f} {spread:8.3f}")


def regen_expected() -> None:
    """Rewrite expected/report.txt and expected/api_live.json from this program."""
    require_program()
    WORK.mkdir(exist_ok=True)
    report = measured_child(python_argv("-m", "repro", "report"), WORK / "sweep.stdout")
    (batch.EXPECTED / "report.txt").write_bytes(report["stdout"])
    api = measured_child(python_argv(str(BENCH_DIR / "api_live.py")), WORK / "api.stdout")
    batch.write_expected_api(api["stdout"], batch.EXPECTED / "api_live.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.steadiness:
            steadiness()
            return 0
        if args.regen_expected:
            regen_expected()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    record = result.pop("record")
    errors = result.pop("errors")
    print(json.dumps({"host": record["host"], "generator": record["generator"],
                      "phases": record["phases"]}))
    for error in errors:
        print(f"CHECK FAILED: {error}")
    for name, value in record["ungated"].items():
        print(f"{name:32} {value:16.4f} ms     (not gated)")
    for name, metric in result["metrics"].items():
        moves = f"  -> {PREDICTIONS[name]}" if args.trace else ""
        print(f"{name:32} {metric['value']:16.4f} {metric['unit']:6}{moves}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
