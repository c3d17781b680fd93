"""End-to-end tests for the serving daemon (`python -m repro serve`).

Covers the wire protocol (parse/validate/error codes), the single-flight
executor, and — against a live in-thread daemon — the two acceptance
properties of the serving layer:

* **byte-identity**: the served ``result`` payload is byte-identical to an
  in-process ``AnalysisSession.run`` for every non-empty tracer-mode
  combination on five workloads;
* **single-flight**: N concurrent identical submissions execute the guest
  exactly once (the store's ``puts`` counter moves by one) and every caller
  receives identical response bytes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
import time
from pathlib import Path

import pytest

import repro.engine.pipeline as pipeline_module
from repro.api import AnalysisSession, RunSpec
from repro.api.spec import ALL_TRACERS
from repro.engine.cache import TraceStore, workload_fingerprint
from repro.engine.workerpool import PoolUnavailableError
from repro.jsvm.hooks import Trace
from repro.serve.client import ServeClient, ServeError, percentile, run_load
from repro.serve.dedup import Job, QueueFullError, SingleFlightExecutor
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    encode_json,
    parse_body,
    parse_submit,
)
from repro.serve.server import ServeDaemon
from repro.serve.store import DiskTraceStore
from repro.workloads import get_workload

#: The acceptance matrix: every non-empty subset of the bus tracers...
MODE_COMBOS = [
    combo
    for size in range(1, len(ALL_TRACERS) + 1)
    for combo in itertools.combinations(ALL_TRACERS, size)
]
#: ...on these five workloads (small → large, three paper categories).
MATRIX_WORKLOADS = ["MyScript", "Ace", "Harmony", "Normal Mapping", "sigma.js"]

#: An ad-hoc guest script slow enough that concurrent submissions overlap.
SLOW_SCRIPT = """
var total = 0;
var i = 0;
while (i < 4000) {
  total = total + i * i;
  i = i + 1;
}
total;
"""


def script_payload(seed: str, name: str) -> dict:
    return {
        "name": name,
        "sources": [{"path": f"{name}.js", "source": f"// {seed}\n" + SLOW_SCRIPT}],
    }


# ------------------------------------------------------------------- protocol
class TestProtocolParsing:
    def test_minimal_workload_submission(self):
        request = parse_submit({"workload": "MyScript"})
        assert request.workload == "MyScript"
        assert request.modes == ("lightweight",)
        assert request.script is None and request.tier is None

    def test_modes_are_canonicalized_and_deduplicated(self):
        shuffled = parse_submit(
            {"workload": "MyScript", "modes": ["dependence", "lightweight", "dependence"]}
        )
        ordered = parse_submit(
            {"workload": "MyScript", "modes": ["lightweight", "dependence"]}
        )
        assert shuffled.modes == ordered.modes == ("lightweight", "dependence")
        # Identical mode *sets* must share a single-flight key.
        assert shuffled.key("fp") == ordered.key("fp")

    def test_modes_accept_comma_separated_string(self):
        request = parse_submit({"workload": "MyScript", "modes": "gecko,lightweight"})
        assert request.modes == ("lightweight", "gecko")

    def test_script_submission_names_itself_from_content(self):
        payload = {"script": {"sources": [{"path": "a.js", "source": "1;"}]}}
        first = parse_submit(payload)
        second = parse_submit(payload)
        assert first.script is not None
        name, sources = first.script
        assert name.startswith("submitted-") and len(name) == len("submitted-") + 12
        assert sources == (("a.js", "1;"),)
        assert second.script == first.script  # content-derived, stable

    @pytest.mark.parametrize(
        "body",
        [
            {},  # neither workload nor script
            {"workload": "MyScript", "script": {"sources": [{"path": "a", "source": "1;"}]}},
            {"workload": 7},
            {"workload": "MyScript", "modes": []},
            {"workload": "MyScript", "modes": ["warp-drive"]},
            {"workload": "MyScript", "modes": 5},
            {"workload": "MyScript", "tier": "quantum"},
            {"workload": "MyScript", "focus_line": "12"},
            {"workload": "MyScript", "focus_line": True},
            {"workload": "MyScript", "modes": ["lightweight"], "focus_line": 3},
            {"script": {}},
            {"script": {"sources": []}},
            {"script": {"sources": [{"path": "a"}]}},
            {"script": {"name": "", "sources": [{"path": "a", "source": "1;"}]}},
        ],
    )
    def test_rejected_submissions(self, body):
        with pytest.raises(ProtocolError) as excinfo:
            parse_submit(body)
        assert excinfo.value.code == "bad_request"
        assert excinfo.value.status == 400

    def test_unknown_workload_resolves_to_404(self):
        request = parse_submit({"workload": "definitely-not-registered"})
        with pytest.raises(ProtocolError) as excinfo:
            request.resolve_workload()
        assert excinfo.value.code == "unknown_workload"
        assert excinfo.value.status == 404

    def test_spec_is_replaying_and_non_publishing(self):
        request = parse_submit(
            {"workload": "MyScript", "modes": ["dependence"], "focus_line": 4}
        )
        spec = request.spec()
        assert spec.publish is False
        assert spec.focus_line == 4

    def test_parse_body_maps_json_errors(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_body(b"{not json")
        assert excinfo.value.code == "bad_request"
        with pytest.raises(ProtocolError) as excinfo:
            parse_body(b"x" * ((1 << 20) + 1))
        assert excinfo.value.code == "payload_too_large"

    def test_encode_json_is_canonical(self):
        assert encode_json({"b": 1, "a": [2]}) == b'{"a":[2],"b":1}\n'


# --------------------------------------------------------------- retry-after
class TestRetryAfterParsing:
    """RFC 9110 allows both delta-seconds and HTTP-date; never negative."""

    @staticmethod
    def _retry(value: str):
        from repro.serve.client import _decode_error

        return _decode_error(429, b"{}", {"Retry-After": value}).retry_after

    def test_integer_seconds(self):
        assert self._retry("3") == 3
        assert self._retry("0") == 0

    def test_negative_integer_clamps_to_zero(self):
        assert self._retry("-7") == 0

    def test_http_date_form(self):
        import email.utils

        when = email.utils.formatdate(time.time() + 8, usegmt=True)
        delay = self._retry(when)
        assert delay is not None and 0 <= delay <= 10

    def test_past_http_date_clamps_to_zero(self):
        import email.utils

        when = email.utils.formatdate(time.time() - 120, usegmt=True)
        assert self._retry(when) == 0

    def test_garbage_header_is_ignored(self):
        assert self._retry("soon") is None
        assert self._retry("") is None

    def test_missing_headers_object(self):
        from repro.serve.client import _decode_error

        assert _decode_error(429, b"{}", None).retry_after is None


# ---------------------------------------------------------------- single-flight
class TestSingleFlightExecutor:
    def test_identical_keys_coalesce_onto_one_execution(self):
        executor = SingleFlightExecutor(workers=2, queue_depth=8)
        release = threading.Event()
        executions = []

        def work(job: Job) -> str:
            executions.append(job.key)
            release.wait(timeout=10)
            return "payload"

        first = executor.submit("k", work)
        second = executor.submit("k", work)
        assert second is first
        assert first.waiters == 2
        release.set()
        assert first.wait(timeout=10) == "payload"
        assert executions == ["k"]
        assert executor.accepted == 1 and executor.coalesced == 1
        executor.shutdown()

    def test_errors_reach_every_waiter(self):
        executor = SingleFlightExecutor(workers=1, queue_depth=4)
        release = threading.Event()

        def gate(job: Job):
            release.wait(timeout=10)

        def boom(job: Job):
            raise ValueError("guest exploded")

        # Block the only worker so both submissions coalesce while queued.
        gate_job = executor.submit("gate", gate)
        job = executor.submit("k", boom)
        same = executor.submit("k", boom)
        assert same is job and job.waiters == 2
        release.set()
        gate_job.wait(timeout=10)
        with pytest.raises(ValueError, match="guest exploded"):
            job.wait(timeout=10)
        assert executor.failed == 1
        executor.shutdown()

    def test_fifo_order_with_one_worker(self):
        executor = SingleFlightExecutor(workers=1, queue_depth=16)
        release = threading.Event()
        order = []

        def work(job: Job):
            release.wait(timeout=10)
            order.append(job.key)
            return job.key

        jobs = [executor.submit("gate", work)]
        time.sleep(0.05)  # let the worker pick up the gate job
        jobs += [executor.submit(key, work) for key in ("a", "b", "c")]
        release.set()
        for job in jobs:
            job.wait(timeout=10)
        assert order == ["gate", "a", "b", "c"]
        executor.shutdown()

    def test_queue_overflow_rejects_with_retry_after(self):
        executor = SingleFlightExecutor(workers=1, queue_depth=1)
        release = threading.Event()

        def work(job: Job):
            release.wait(timeout=10)
            return job.key

        running = executor.submit("running", work)
        time.sleep(0.05)  # worker now blocked on `running`; queue is empty
        queued = executor.submit("queued", work)
        with pytest.raises(QueueFullError) as excinfo:
            executor.submit("rejected", work)
        assert 1 <= excinfo.value.retry_after <= 60
        assert executor.rejected == 1
        # Coalescing still works while the queue is full.
        assert executor.submit("queued", work) is queued
        release.set()
        running.wait(timeout=10)
        queued.wait(timeout=10)
        executor.shutdown()

    def test_shutdown_refuses_new_work(self):
        executor = SingleFlightExecutor(workers=1, queue_depth=2)
        executor.shutdown()
        with pytest.raises(RuntimeError):
            executor.submit("k", lambda job: None)


# ------------------------------------------------------------------ live daemon
@contextlib.contextmanager
def serving(**kwargs):
    """A :class:`ServeDaemon` answering on a background thread."""
    with ServeDaemon(port=0, **kwargs) as running:
        thread = threading.Thread(target=running.serve_forever, daemon=True)
        thread.start()
        try:
            yield running
        finally:
            running.shutdown()
            thread.join(timeout=10)
            assert not thread.is_alive()


def client_for(running: ServeDaemon) -> ServeClient:
    return ServeClient(f"http://{running.host}:{running.port}")


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("serve-store")
    with serving(store_dir=str(store_dir), workers=3) as running:
        yield running


@pytest.fixture(scope="module")
def client(daemon):
    return client_for(daemon)


@pytest.fixture(scope="module")
def baseline():
    """An independent in-process session: the byte-identity reference."""
    with AnalysisSession(trace_store=TraceStore()) as session:
        yield session


class TestDaemonEndpoints:
    def test_health(self, client, daemon):
        health = client.health()
        assert health["status"] == "ok"
        assert health["protocol"] == PROTOCOL_VERSION
        assert health["address"].endswith(str(daemon.port))

    def test_workloads_report_content_fingerprints(self, client):
        rows = {row["name"]: row["fingerprint"] for row in client.workloads()}
        for name in MATRIX_WORKLOADS:
            assert rows[name] == workload_fingerprint(get_workload(name))

    def test_stats_shape(self, client):
        stats = client.stats()
        assert stats["protocol"] == PROTOCOL_VERSION
        assert stats["queue"]["workers"] == 3
        assert stats["store"]["kind"] == "DiskTraceStore"
        assert "recordings" in stats

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.status == 404 and excinfo.value.code == "not_found"

    def test_put_is_405(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("PUT", "/v1/analyze", payload={})
        assert excinfo.value.status == 405
        assert excinfo.value.code == "method_not_allowed"

    def test_unknown_workload_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.analyze(workload="definitely-not-registered")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_workload"

    def test_bad_modes_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.analyze(workload="MyScript", modes=["warp-drive"])
        assert excinfo.value.status == 400 and excinfo.value.code == "bad_request"

    def test_invalid_json_body_is_400(self, client, daemon):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"http://{daemon.host}:{daemon.port}/v1/analyze",
            data=b"{not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400


class TestByteIdentity:
    """Acceptance: served == in-process, per mode combination, per workload."""

    @pytest.mark.parametrize("name", MATRIX_WORKLOADS)
    def test_all_mode_combinations_match_in_process(self, client, baseline, name):
        assert len(MODE_COMBOS) == 15
        for combo in MODE_COMBOS:
            spec = RunSpec.composed(*combo, publish=False).replay()
            expected = baseline.run(name, spec)
            envelope = client.analyze(workload=name, modes=list(combo))
            served = envelope["result"]
            assert encode_json(served) == encode_json(expected.to_dict()), (
                f"served bytes diverge for {name} modes={combo}"
            )
            assert served["provenance"].startswith("replay:")
            assert served["commit_id"] is None

    def test_cold_and_warm_results_are_identical(self, client, daemon):
        payload = script_payload("cold-vs-warm", "serve-cold-warm")
        before = daemon.store.puts
        cold = client.analyze(script=payload, modes=["lightweight"])
        warm = client.analyze(script=payload, modes=["lightweight"])
        assert daemon.store.puts == before + 1
        assert cold["server"]["cache"] == "cold"
        assert warm["server"]["cache"] == "warm"
        assert encode_json(cold["result"]) == encode_json(warm["result"])

    def test_mode_subset_replays_the_recorded_union_trace(self, client, daemon):
        payload = script_payload("subset", "serve-subset")
        before = daemon.store.puts
        full = client.analyze(script=payload, modes=list(ALL_TRACERS))
        subset = client.analyze(script=payload, modes=["dependence"])
        assert daemon.store.puts == before + 1  # one recording serves both
        assert subset["server"]["cache"] == "warm"
        assert subset["result"]["provenance"] == full["result"]["provenance"]


class TestSingleFlightOverHTTP:
    def test_concurrent_identical_submissions_execute_once(self, client, daemon):
        payload = script_payload("single-flight", "serve-single-flight")
        fanout = 6
        barrier = threading.Barrier(fanout)
        bodies: list = [None] * fanout
        errors: list = []
        before_puts = daemon.store.puts
        before_coalesced = daemon.executor.coalesced

        def one(slot: int) -> None:
            barrier.wait(timeout=30)
            try:
                bodies[slot] = client.analyze_raw(script=payload, modes=["lightweight"])
            except ServeError as error:  # pragma: no cover - fail loudly below
                errors.append(error)

        threads = [threading.Thread(target=one, args=(i,)) for i in range(fanout)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert all(body is not None for body in bodies)
        # The proof: one guest execution, N identical byte payloads.
        assert daemon.store.puts == before_puts + 1
        assert len(set(bodies)) == 1
        assert daemon.executor.coalesced > before_coalesced
        parsed = json.loads(bodies[0].decode("utf-8"))
        assert parsed["server"]["coalesced_waiters"] >= 2

    def test_distinct_submissions_each_execute(self, client, daemon):
        before = daemon.store.puts
        results = [None, None]

        def one(slot: int) -> None:
            payload = script_payload(f"distinct-{slot}", f"serve-distinct-{slot}")
            results[slot] = client.analyze(script=payload, modes=["lightweight"])

        threads = [threading.Thread(target=one, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert daemon.store.puts == before + 2
        names = {res["result"]["workload"] for res in results if res is not None}
        assert names == {"serve-distinct-0", "serve-distinct-1"}


def _crash_mid_record(context, heavy, stage, ref, mask, root, chunk_events):
    """Stand-in pool record task: leave half a segment behind, then die."""
    (Path(root) / f"half-written.{os.getpid()}.tmp").write_bytes(b"partial")
    os._exit(13)


class _NoForkPool:
    def __init__(self, *args, **kwargs):
        raise PoolUnavailableError("fork start method unavailable")


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="the pool record path requires the fork start method",
)
class TestPoolRecording:
    """With a disk store, cold keys record on a pool worker; the daemon only
    publishes the segment the worker staged."""

    @pytest.fixture(autouse=True)
    def two_wide(self, monkeypatch):
        # Above 1 whatever the host's CPU count: the pool path applies.
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "2")

    @staticmethod
    def local_recording(store_dir, body):
        """The same submission recorded in process (width 1) into a store."""
        request = parse_submit(body)
        store = DiskTraceStore(store_dir)
        with AnalysisSession(trace_store=store, workers=1) as session:
            result = session.run(request.resolve_workload(), request.spec())
        assert store.puts == 1
        return result

    def test_pool_recording_matches_in_process(self, tmp_path):
        body = {"script": script_payload("pool", "serve-pool"), "modes": ["lightweight"]}
        local = self.local_recording(tmp_path / "local", body)
        with serving(store_dir=str(tmp_path / "pool")) as running:
            assert running.stats()["pool"]["workers_alive"] == 1  # forked up front
            served = client_for(running).analyze(**body)
            stats = running.stats()
        assert stats["recordings"] == 1
        assert stats["pool"]["recordings"] == 1
        assert stats["pool"]["in_process_fallbacks"] == 0
        assert "pool" not in served["result"]
        assert encode_json(served["result"]) == encode_json(local.to_dict())
        (local_segment,) = (tmp_path / "local").glob("*.trace.bin")
        (pool_segment,) = (tmp_path / "pool").glob("*.trace.bin")
        assert pool_segment.name == local_segment.name
        assert pool_segment.read_bytes() == local_segment.read_bytes()
        digest = Trace.load(str(local_segment)).digest()
        assert served["result"]["provenance"] == f"replay:{digest[:12]}"
        assert not list((tmp_path / "pool").glob("*.tmp"))

    def test_pool_unavailable_records_in_process(self, tmp_path, monkeypatch, baseline):
        monkeypatch.setattr(pipeline_module, "WorkerPool", _NoForkPool)
        body = {"script": script_payload("no-fork", "serve-no-fork"), "modes": ["lightweight"]}
        request = parse_submit(body)
        expected = baseline.run(request.resolve_workload(), request.spec())
        with serving(store_dir=str(tmp_path)) as running:
            before = running.stats()["recordings"]
            served = client_for(running).analyze(**body)
            stats = running.stats()
        assert stats["recordings"] == before + 1
        assert stats["pool"] == {
            "workers_alive": 0,
            "recordings": 0,
            "in_process_fallbacks": 1,
        }
        assert encode_json(served["result"]) == encode_json(expected.to_dict())

    @pytest.mark.parametrize("on_pool", [True, False], ids=["pool", "in-process"])
    def test_one_cold_request_counts_one_miss_and_one_recording(
        self, tmp_path, monkeypatch, on_pool
    ):
        if not on_pool:
            monkeypatch.setattr(pipeline_module, "WorkerPool", _NoForkPool)
        body = {
            "script": script_payload(f"one-miss-{on_pool}", "serve-one-miss"),
            "modes": ["lightweight"],
        }
        with serving(store_dir=str(tmp_path)) as running:
            before = running.stats()
            client_for(running).analyze(**body)
            after = running.stats()
        assert after["store"]["misses"] - before["store"]["misses"] == 1
        assert after["recordings"] - before["recordings"] == 1
        assert after["pool"]["recordings"] == (1 if on_pool else 0)

    def test_concurrent_identical_submissions_record_once(self, tmp_path):
        body = {"script": script_payload("pool-flight", "serve-pool-flight"), "modes": ["lightweight"]}
        fanout = 4
        barrier = threading.Barrier(fanout)
        bodies: list = [None] * fanout
        with serving(store_dir=str(tmp_path), workers=fanout) as running:
            client = client_for(running)

            def one(slot: int) -> None:
                barrier.wait(timeout=30)
                bodies[slot] = client.analyze_raw(**body)

            threads = [threading.Thread(target=one, args=(i,)) for i in range(fanout)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            stats = running.stats()
        assert stats["recordings"] == 1
        assert stats["pool"]["recordings"] == 1
        assert all(raw is not None for raw in bodies) and len(set(bodies)) == 1

    def test_worker_crash_fails_the_request_without_rerunning_it(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(pipeline_module, "_record_segment_task", _crash_mid_record)
        body = {"script": script_payload("crash", "serve-crash"), "modes": ["lightweight"]}
        with serving(store_dir=str(tmp_path)) as running:
            with pytest.raises(ServeError) as excinfo:
                client_for(running).analyze(**body)
            stats = running.stats()
        assert excinfo.value.status == 500
        assert "WorkerCrashError" in str(excinfo.value)
        assert stats["recordings"] == 0  # never re-run in the daemon
        assert stats["pool"]["in_process_fallbacks"] == 0
        # Both attempts died mid-write; the next open of the store sweeps them.
        assert len(list(tmp_path.glob("*.tmp"))) == 2
        DiskTraceStore(tmp_path)
        assert not list(tmp_path.glob("*.tmp"))


class TestBatchStreaming:
    def test_batch_streams_envelopes_in_request_order(self, client):
        names = ["MyScript", "Ace", "MyScript"]
        envelopes = list(client.analyze_many(names, modes=["lightweight"]))
        assert [env["result"]["workload"] for env in envelopes] == names
        assert all(env["protocol"] == PROTOCOL_VERSION for env in envelopes)

    def test_batch_reports_per_entry_errors_in_line(self, client, daemon):
        import urllib.request

        body = json.dumps(
            {
                "requests": [
                    {"workload": "MyScript", "modes": ["lightweight"]},
                    {"workload": "definitely-not-registered"},
                ]
            }
        ).encode("utf-8")
        request = urllib.request.Request(
            f"http://{daemon.host}:{daemon.port}/v1/analyze", data=body, method="POST"
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            lines = [json.loads(line) for line in response if line.strip()]
        assert len(lines) == 2
        assert lines[0]["result"]["workload"] == "MyScript"
        assert lines[1]["error"]["code"] == "unknown_workload"

    def test_empty_batch_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/v1/analyze", payload={"requests": []})
        assert excinfo.value.status == 400


class TestAdmissionControl:
    def test_full_queue_returns_429_with_retry_after(self, tmp_path):
        with ServeDaemon(port=0, workers=1, queue_depth=1) as small:
            thread = threading.Thread(target=small.serve_forever, daemon=True)
            thread.start()
            try:
                release = threading.Event()
                # Occupy the only worker, then fill the one queue slot.
                running = small.executor.submit("occupy", lambda job: release.wait(30))
                time.sleep(0.1)
                queued = small.executor.submit("fill", lambda job: None)
                local = ServeClient(f"http://{small.host}:{small.port}")
                with pytest.raises(ServeError) as excinfo:
                    local.analyze(workload="MyScript")
                assert excinfo.value.status == 429
                assert excinfo.value.code == "queue_full"
                assert excinfo.value.retry_after is not None
                assert excinfo.value.retry_after >= 1
                release.set()
                running.wait(timeout=10)
                queued.wait(timeout=10)
                # With room again (and retries honouring Retry-After), it runs.
                envelope = local.analyze(workload="MyScript", retries=4)
                assert envelope["result"]["workload"] == "MyScript"
            finally:
                small.shutdown()
                thread.join(timeout=10)


class TestServeCLI:
    def test_list_workloads_json_reports_fingerprints(self, capsys):
        from repro.__main__ import main

        assert main(["list", "--workloads", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {row["name"]: row["fingerprint"] for row in rows}
        assert by_name["MyScript"] == workload_fingerprint(get_workload("MyScript"))
        assert len(by_name) == len(rows)

    def test_submit_single_workload(self, daemon, capsys):
        from repro.__main__ import main

        url = f"http://{daemon.host}:{daemon.port}"
        assert main(["submit", "MyScript", "--url", url]) == 0
        out = capsys.readouterr().out
        assert "[replay:" in out and "cache=" in out

    def test_submit_batch_json(self, daemon, capsys):
        from repro.__main__ import main

        url = f"http://{daemon.host}:{daemon.port}"
        assert main(["submit", "MyScript", "Ace", "--url", url, "--json"]) == 0
        envelopes = json.loads(capsys.readouterr().out)
        assert [env["result"]["workload"] for env in envelopes] == ["MyScript", "Ace"]

    def test_submit_script_file(self, daemon, tmp_path, capsys):
        from repro.__main__ import main

        script = tmp_path / "adhoc.js"
        script.write_text(SLOW_SCRIPT)
        url = f"http://{daemon.host}:{daemon.port}"
        code = main(
            ["submit", "--script", str(script), "--script-name", "cli-adhoc", "--url", url]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "cache=" in captured.out

    def test_submit_requires_target(self, capsys):
        from repro.__main__ import main

        assert main(["submit"]) == 2
        assert "workload names" in capsys.readouterr().err

    def test_submit_unreachable_daemon_is_exit_2(self, capsys):
        from repro.__main__ import main

        # A port from the dynamic range with nothing listening.
        assert main(["submit", "MyScript", "--url", "http://127.0.0.1:1"]) == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_submit_unknown_workload_is_exit_2(self, daemon, capsys):
        from repro.__main__ import main

        url = f"http://{daemon.host}:{daemon.port}"
        assert main(["submit", "definitely-not-registered", "--url", url]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130_without_traceback(self, monkeypatch, capsys):
        import repro.__main__ as cli

        def interrupted(session, args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_list", interrupted)
        assert cli.main(["list"]) == 130
        err = capsys.readouterr().err
        assert "list: interrupted" in err
        assert "Traceback" not in err

    def test_serve_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.__main__ as cli
        import repro.serve.server as server_module

        def interrupted(**kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(server_module, "run_daemon", interrupted)
        assert cli.main(["serve", "--port", "0"]) == 130
        assert "serve: interrupted" in capsys.readouterr().err


class TestServeSubprocess:
    """The CI serve-smoke scenario: a real daemon process, signals included."""

    @pytest.fixture()
    def live_daemon(self, tmp_path):
        import os
        import signal as signal_module
        import subprocess
        import sys
        from pathlib import Path

        store_dir = tmp_path / "store"
        port_file = tmp_path / "port.txt"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--store-dir",
                str(store_dir),
                "--port-file",
                str(port_file),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not port_file.exists() or not port_file.read_text().strip():
                if process.poll() is not None:
                    raise AssertionError(
                        f"daemon died at startup: {process.stderr.read()}"
                    )
                if time.monotonic() > deadline:
                    raise AssertionError("daemon did not write its port file")
                time.sleep(0.05)
            port = int(port_file.read_text().strip())
            yield process, port, store_dir, signal_module
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

    def test_smoke_single_flight_then_sigint(self, live_daemon):
        process, port, store_dir, signal_module = live_daemon
        client = ServeClient(f"http://127.0.0.1:{port}")
        assert client.health()["status"] == "ok"

        # Two concurrent identical submissions + one distinct one.
        barrier = threading.Barrier(2)
        identical: list = [None, None]

        def one(slot: int) -> None:
            barrier.wait(timeout=30)
            identical[slot] = client.analyze_raw(
                workload="Normal Mapping", modes=["lightweight"]
            )

        threads = [threading.Thread(target=one, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        distinct = client.analyze(workload="MyScript", modes=["lightweight"])
        for thread in threads:
            thread.join(timeout=120)

        assert identical[0] is not None and identical[0] == identical[1]
        assert distinct["result"]["workload"] == "MyScript"
        # Exactly one guest execution per distinct submission key.
        assert client.stats()["recordings"] == 2

        # SIGINT: clean exit 130, disk index flushed with both fingerprints.
        process.send_signal(signal_module.SIGINT)
        stdout, stderr = process.communicate(timeout=30)
        assert process.returncode == 130, stderr
        assert "serve: interrupted" in stderr
        assert "Traceback" not in stderr
        index = json.loads((store_dir / "index.json").read_text())
        stored = {entry["fingerprint"] for entry in index["entries"]}
        expected = {
            workload_fingerprint(get_workload("Normal Mapping")),
            workload_fingerprint(get_workload("MyScript")),
        }
        assert stored == expected


class TestLoadHelpers:
    def test_percentile_interpolates(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.99) == 7.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0

    def test_run_load_against_live_daemon(self, client):
        report = run_load(
            client.base_url,
            ["MyScript"],
            modes=["lightweight"],
            clients=2,
            requests_per_client=3,
        )
        assert report["completed"] == 6
        assert report["errors"] == []
        assert report["req_per_sec"] > 0
        assert report["p50_ms"] <= report["p99_ms"]
        assert len(report["latencies_ms"]) == 6
