"""The serving daemon: stdlib HTTP in front of one shared analysis session.

``ServeDaemon`` owns an :class:`~repro.api.session.AnalysisSession` whose
trace store is (optionally) a :class:`~repro.serve.store.DiskTraceStore`, a
:class:`~repro.serve.dedup.SingleFlightExecutor`, and a
``ThreadingHTTPServer``.  Handler threads only parse/validate and wait;
analyses run on the executor's bounded worker pool.

Endpoints (all JSON; see :mod:`repro.serve.protocol` for shapes):

* ``GET  /healthz`` — liveness + listen address;
* ``GET  /v1/workloads`` — registered workloads with content fingerprints,
  so clients can key submissions and cache lookups without running anything;
* ``GET  /v1/stats`` — request/queue/store/pool counters (``recordings``
  is the number of guest executions — the single-flight proof);
* ``POST /v1/analyze`` — one submission object → one response envelope, or
  ``{"requests": [...]}`` → an NDJSON stream of envelopes, each line
  written as its analysis completes.

Every submission maps to a replaying, non-publishing
:class:`~repro.api.spec.RunSpec` (see the protocol module's byte-identity
notes): a cold key records the workload's union-mask trace once into the
shared store, every later (or coalesced concurrent) request replays it.

With a disk store, analyses leave the daemon for the session pipeline's
worker pool.  A cold key records there
(:meth:`~repro.engine.pipeline.AnalysisPipeline.record_on_pool`): a worker
runs the guest, digests and encodes the trace into a temp segment in the
store root, and the daemon only publishes it.  A warm request replays there
(:meth:`~repro.engine.pipeline.AnalysisPipeline.replay_on_pool`): a worker
attaches the stored segment once and returns the finished result, so the
daemon only dispatches the request and wraps the envelope, and concurrent
requests use as many cores as the pool has workers.  The whole pool forks
in ``ServeDaemon.__init__``, before any executor or HTTP thread exists.
Without ``fork``, or with an in-memory store or a pool width of 1, both
run in process.  ``/v1/stats`` reports the pool under ``pool``.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional

from ..api.session import AnalysisSession
from ..engine.cache import TraceStore, workload_fingerprint
from .dedup import Job, QueueFullError, SingleFlightExecutor
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    SubmitRequest,
    encode_json,
    parse_body,
    parse_submit,
)
from .store import DiskTraceStore


class ServeDaemon:
    """One serving process: session + store + single-flight pool + HTTP."""

    def __init__(
        self,
        store_dir: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        queue_depth: int = 64,
        default_tier: Optional[str] = None,
        request_log: bool = False,
    ) -> None:
        self.store: TraceStore = (
            DiskTraceStore(store_dir) if store_dir is not None else TraceStore()
        )
        self.session = AnalysisSession(trace_store=self.store, default_tier=default_tier)
        # Fork the pool while this is still the only thread.
        self.session.pipeline.start_pool()
        self.executor = SingleFlightExecutor(workers=workers, queue_depth=queue_depth)
        self.request_log = request_log
        self.started_at = time.monotonic()
        self.requests = 0
        self.responses_by_status: Dict[int, int] = {}
        self._stats_lock = threading.Lock()
        self._fingerprints: Dict[str, str] = {}
        self._closed = False
        self.httpd = _ServeHTTPServer((host, port), _Handler, daemon=self)
        self.host, self.port = self.httpd.server_address[:2]

    # ------------------------------------------------------------- lifecycle
    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` (or an interrupt)."""
        self.httpd.serve_forever(poll_interval=0.2)

    def shutdown(self) -> None:
        """Stop the HTTP loop from another thread (idempotent)."""
        self.httpd.shutdown()

    def close(self) -> None:
        """Release everything: HTTP socket, worker pool, session, store.

        Closing the session closes its trace store, which flushes the disk
        index — the shutdown guarantee ``python -m repro serve`` relies on.
        """
        if self._closed:
            return
        self._closed = True
        self.httpd.server_close()
        self.executor.shutdown()
        self.session.close()

    def __enter__(self) -> "ServeDaemon":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -------------------------------------------------------------- serving
    def workload_rows(self) -> List[Dict[str, str]]:
        """Registered workloads with content fingerprints (cached per name)."""
        from ..workloads.base import get_workload, workload_names

        rows = []
        for name in workload_names():
            fingerprint = self._fingerprints.get(name)
            if fingerprint is None:
                fingerprint = workload_fingerprint(get_workload(name))
                self._fingerprints[name] = fingerprint
            rows.append({"name": name, "fingerprint": fingerprint})
        return rows

    def stats(self) -> Dict[str, Any]:
        store = self.store
        store_stats: Dict[str, Any] = {
            "kind": type(store).__name__,
            "hits": store.hits,
            "misses": store.misses,
            "traces_in_memory": len(store),
        }
        if isinstance(store, DiskTraceStore):
            store_stats.update(
                root=str(store.root),
                segments=store.segment_count(),
                segments_written=store.segments_written,
                disk_hits=store.disk_hits,
                corrupt_segments=store.corrupt_segments,
            )
        with self._stats_lock:
            responses = dict(sorted(self.responses_by_status.items()))
            requests = self.requests
        return {
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.monotonic() - self.started_at,
            "requests": requests,
            "responses_by_status": responses,
            #: Guest executions since startup — concurrent identical
            #: submissions must move this by exactly one.
            "recordings": store.puts,
            "queue": self.executor.stats(),
            "store": store_stats,
            "pool": self.session.pipeline.pool_stats(),
        }

    def submit(self, request: SubmitRequest) -> Job:
        """Map a submission onto the single-flight executor.

        The job's result is the complete, canonical response body — every
        coalesced waiter receives byte-identical bytes.
        """
        workload = request.resolve_workload()
        fingerprint = workload_fingerprint(workload)
        spec = request.spec()
        key = request.key(fingerprint)

        def execute(job: Job) -> bytes:
            cache_state = "warm" if self.store.has(fingerprint, spec.combined_mask()) else "cold"
            started = time.perf_counter()
            result = self.session.run(workload, spec)
            run_seconds = time.perf_counter() - started
            envelope = {
                "protocol": PROTOCOL_VERSION,
                "server": {
                    "cache": cache_state,
                    "coalesced_waiters": job.waiters,
                    "queued_ms": round(job.queued_seconds * 1000.0, 3),
                    "run_ms": round(run_seconds * 1000.0, 3),
                },
                "result": result.to_dict(),
            }
            return encode_json(envelope)

        return self.executor.submit(key, execute)

    # ------------------------------------------------------------ accounting
    def count_response(self, status: int) -> None:
        with self._stats_lock:
            self.requests += 1
            self.responses_by_status[status] = self.responses_by_status.get(status, 0) + 1


class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, daemon: ServeDaemon) -> None:
        self.serve_daemon = daemon
        super().__init__(address, handler)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    #: Hard ceiling on one analysis, queueing included.
    JOB_TIMEOUT_SECONDS = 600.0

    #: Socket timeout for every read and write on a connection
    #: (``StreamRequestHandler.timeout``): a client that stalls mid-request
    #: is dropped instead of holding a handler thread forever.
    timeout = 10.0

    @property
    def daemon(self) -> ServeDaemon:
        return self.server.serve_daemon

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.daemon.request_log:
            super().log_message(format, *args)

    # ------------------------------------------------------------ responses
    def _respond(self, status: int, body: bytes, headers: Optional[Dict[str, str]] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self.daemon.count_response(status)

    def _respond_json(self, status: int, payload: Any, headers: Optional[Dict[str, str]] = None) -> None:
        self._respond(status, encode_json(payload), headers)

    def _respond_error(self, error: ProtocolError) -> None:
        headers = {}
        if error.retry_after is not None:
            headers["Retry-After"] = str(error.retry_after)
        self._respond_json(error.status, error.to_payload(), headers)

    # --------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path == "/healthz":
                self._respond_json(
                    200,
                    {
                        "status": "ok",
                        "protocol": PROTOCOL_VERSION,
                        "address": f"{self.daemon.host}:{self.daemon.port}",
                    },
                )
            elif self.path == "/v1/workloads":
                self._respond_json(200, {"workloads": self.daemon.workload_rows()})
            elif self.path == "/v1/stats":
                self._respond_json(200, self.daemon.stats())
            elif self.path == "/":
                self._respond_json(
                    200,
                    {
                        "service": "repro-serve",
                        "protocol": PROTOCOL_VERSION,
                        "endpoints": [
                            "GET /healthz",
                            "GET /v1/workloads",
                            "GET /v1/stats",
                            "POST /v1/analyze",
                        ],
                    },
                )
            else:
                self._respond_error(ProtocolError("not_found", f"no route for {self.path}"))
        except (BrokenPipeError, ConnectionResetError):
            pass

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path != "/v1/analyze":
                self._respond_error(ProtocolError("not_found", f"no route for {self.path}"))
                return
            try:
                data = parse_body(self._read_body())
                if isinstance(data, dict) and "requests" in data:
                    self._analyze_batch(data)
                else:
                    self._analyze_one(data)
            except ProtocolError as error:
                self._respond_error(error)
            except TimeoutError:
                raise  # a stalled client: handle_one_request closes the connection
            except Exception as exc:  # pragma: no cover - defensive surface
                self._respond_error(ProtocolError("internal", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, ConnectionResetError):
            pass

    def do_PUT(self) -> None:  # noqa: N802
        self._respond_error(ProtocolError("method_not_allowed", "use GET or POST"))

    do_DELETE = do_PUT

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise ProtocolError("bad_request", "invalid Content-Length header")
        from .protocol import MAX_BODY_BYTES

        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                "payload_too_large", f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        return self.rfile.read(length) if length else b""

    def _submit(self, data: Any) -> Job:
        request = parse_submit(data)
        try:
            return self.daemon.submit(request)
        except QueueFullError as full:
            raise ProtocolError(
                "queue_full", str(full), retry_after=full.retry_after
            ) from None

    def _await_body(self, job: Job) -> bytes:
        try:
            return job.wait(timeout=self.JOB_TIMEOUT_SECONDS)
        except ProtocolError:
            raise
        except TimeoutError as exc:
            raise ProtocolError("internal", str(exc)) from None
        except Exception as exc:
            raise ProtocolError("internal", f"{type(exc).__name__}: {exc}") from None

    def _analyze_one(self, data: Any) -> None:
        body = self._await_body(self._submit(data))
        self._respond(200, body)

    def _analyze_batch(self, data: Dict[str, Any]) -> None:
        """Stream one envelope per submission as NDJSON, in request order.

        Jobs are all submitted up front (so they pipeline through the worker
        pool) and each line is flushed as its analysis completes.  The
        response has no Content-Length; ``Connection: close`` delimits it.
        """
        requests = data.get("requests")
        if not isinstance(requests, list) or not requests:
            raise ProtocolError("bad_request", "'requests' must be a non-empty list")
        jobs: List[Any] = []
        for entry in requests:
            try:
                jobs.append(self._submit(entry))
            except ProtocolError as error:
                jobs.append(error)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        for job in jobs:
            if isinstance(job, ProtocolError):
                self.wfile.write(encode_json(job.to_payload()))
            else:
                try:
                    self.wfile.write(self._await_body(job))
                except ProtocolError as error:
                    self.wfile.write(encode_json(error.to_payload()))
            self.wfile.flush()
        self.daemon.count_response(200)


def run_daemon(
    store_dir: Optional[str],
    host: str,
    port: int,
    workers: int,
    queue_depth: int,
    default_tier: Optional[str] = None,
    request_log: bool = False,
    port_file: Optional[str] = None,
    announce=print,
) -> int:
    """CLI body of ``python -m repro serve``: build, announce, serve, flush."""
    daemon = ServeDaemon(
        store_dir=store_dir,
        host=host,
        port=port,
        workers=workers,
        queue_depth=queue_depth,
        default_tier=default_tier,
        request_log=request_log,
    )
    try:
        if port_file is not None:
            with open(port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{daemon.port}\n")
        store_desc = store_dir if store_dir is not None else "in-memory (no --store-dir)"
        announce(
            f"repro-serve listening on http://{daemon.host}:{daemon.port} "
            f"(store: {store_desc}, workers={workers}, queue={queue_depth})"
        )
        daemon.serve_forever()
        return 0
    finally:
        # Runs on normal shutdown *and* on SIGINT/SIGTERM (KeyboardInterrupt):
        # stops the executor and flushes the disk store index via session.close().
        daemon.close()
