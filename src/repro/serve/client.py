"""Client for the serving daemon (stdlib ``urllib`` only) + load generator.

:class:`ServeClient` is what ``python -m repro submit`` and the serving
benchmark use; it speaks the :mod:`repro.serve.protocol` shapes, surfaces
daemon errors as :class:`ServeError` (with the wire code and status), and
can transparently honour ``Retry-After`` on 429 when asked to retry.

:func:`run_load` is the load generator: N concurrent clients issuing R
requests each against a live daemon, returning per-request latencies plus
p50/p99 and req/s — the numbers ``BENCH_serve_*.json`` carries.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, List, Optional, Sequence


class ServeError(Exception):
    """An error response (or transport failure) from the daemon."""

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        code: Optional[str] = None,
        retry_after: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.retry_after = retry_after


def _parse_retry_after(raw: str) -> Optional[int]:
    """Seconds to wait per a ``Retry-After`` header, clamped to ``>= 0``.

    RFC 9110 §10.2.3 allows either delta-seconds or an HTTP-date; a negative
    delta or a date in the past means "retry now", never a negative sleep.
    Unparseable values are ignored (the caller falls back to its default).
    """
    try:
        return max(0, int(raw))
    except ValueError:
        pass
    import datetime
    import email.utils

    try:
        when = email.utils.parsedate_to_datetime(raw)
    except (TypeError, ValueError):
        return None
    if when is None:
        return None
    if when.tzinfo is None:
        when = when.replace(tzinfo=datetime.timezone.utc)
    now = datetime.datetime.now(datetime.timezone.utc)
    delta = (when - now).total_seconds()
    return max(0, int(delta + 0.999))  # round partial seconds up


def _decode_error(status: int, body: bytes, headers) -> ServeError:
    code = message = None
    try:
        payload = json.loads(body.decode("utf-8"))
        error = payload.get("error", {})
        code = error.get("code")
        message = error.get("message")
    except (ValueError, AttributeError, UnicodeDecodeError):
        pass
    retry_after: Optional[int] = None
    raw_retry = headers.get("Retry-After") if headers is not None else None
    if raw_retry is not None:
        retry_after = _parse_retry_after(raw_retry)
    return ServeError(
        message or f"server returned HTTP {status}",
        status=status,
        code=code,
        retry_after=retry_after,
    )


class ServeClient:
    """A thin, thread-safe HTTP client for one daemon base URL."""

    def __init__(self, base_url: str, timeout: float = 300.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------- transport
    def _request_raw(self, method: str, path: str, body: Optional[bytes] = None):
        request = urllib.request.Request(
            self.base_url + path,
            data=body,
            method=method,
            headers={"Content-Type": "application/json"} if body is not None else {},
        )
        try:
            return urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            raise _decode_error(exc.code, exc.read(), exc.headers) from None
        except urllib.error.URLError as exc:
            raise ServeError(f"cannot reach {self.base_url}: {exc.reason}") from None

    def _request(self, method: str, path: str, payload: Any = None) -> bytes:
        body = None
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        with self._request_raw(method, path, body) as response:
            return response.read()

    @staticmethod
    def _parse(body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServeError(f"malformed response body: {exc}") from None

    # -------------------------------------------------------------- queries
    def health(self) -> Dict[str, Any]:
        return self._parse(self._request("GET", "/healthz"))

    def workloads(self) -> List[Dict[str, str]]:
        return self._parse(self._request("GET", "/v1/workloads"))["workloads"]

    def stats(self) -> Dict[str, Any]:
        return self._parse(self._request("GET", "/v1/stats"))

    # ------------------------------------------------------------ submissions
    @staticmethod
    def _submission(
        workload: Optional[str],
        modes: Sequence[str],
        tier: Optional[str],
        focus_line: Optional[int],
        script: Optional[Dict[str, Any]],
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"modes": list(modes)}
        if (workload is None) == (script is None):
            raise ValueError("exactly one of workload/script is required")
        if workload is not None:
            payload["workload"] = workload
        if script is not None:
            payload["script"] = script
        if tier is not None:
            payload["tier"] = tier
        if focus_line is not None:
            payload["focus_line"] = focus_line
        return payload

    def analyze_raw(
        self,
        workload: Optional[str] = None,
        modes: Sequence[str] = ("lightweight",),
        tier: Optional[str] = None,
        focus_line: Optional[int] = None,
        script: Optional[Dict[str, Any]] = None,
        retries: int = 0,
    ) -> bytes:
        """One submission → the exact response body bytes (byte-identity tests).

        With ``retries > 0``, 429 responses are retried after the daemon's
        ``Retry-After`` hint, up to that many times.
        """
        payload = self._submission(workload, modes, tier, focus_line, script)
        attempts = 0
        while True:
            try:
                return self._request("POST", "/v1/analyze", payload)
            except ServeError as error:
                if error.status != 429 or attempts >= retries:
                    raise
                attempts += 1
                time.sleep(error.retry_after if error.retry_after is not None else 1)

    def analyze(self, **kwargs) -> Dict[str, Any]:
        """One submission → the parsed response envelope."""
        return self._parse(self.analyze_raw(**kwargs))

    def analyze_many(
        self,
        workloads: Sequence[str],
        modes: Sequence[str] = ("lightweight",),
        tier: Optional[str] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Batch submission → envelopes streamed (NDJSON) as they complete."""
        requests = [
            self._submission(name, modes, tier, None, None) for name in workloads
        ]
        body = json.dumps({"requests": requests}).encode("utf-8")
        with self._request_raw("POST", "/v1/analyze", body) as response:
            for line in response:
                line = line.strip()
                if line:
                    yield self._parse(line)


# ---------------------------------------------------------------- load gen
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 on empty input."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def run_load(
    base_url: str,
    workloads: Sequence[str],
    modes: Sequence[str] = ("lightweight",),
    clients: int = 4,
    requests_per_client: int = 10,
    retries: int = 8,
) -> Dict[str, Any]:
    """Drive N concurrent clients round-robin over ``workloads``.

    Returns latencies (ms, per request, arrival order per client), p50/p99,
    req/s over the whole run, and any error strings (which the benchmark
    treats as failures).
    """
    latencies_ms: List[float] = []
    errors: List[str] = []
    lock = threading.Lock()

    def one_client(client_index: int) -> None:
        client = ServeClient(base_url)
        for request_index in range(requests_per_client):
            name = workloads[(client_index + request_index) % len(workloads)]
            started = time.perf_counter()
            try:
                client.analyze_raw(workload=name, modes=modes, retries=retries)
            except ServeError as error:
                with lock:
                    errors.append(f"{name}: {error}")
                continue
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            with lock:
                latencies_ms.append(elapsed_ms)

    threads = [
        threading.Thread(target=one_client, args=(index,), daemon=True)
        for index in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    completed = len(latencies_ms)
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "completed": completed,
        "errors": errors,
        "elapsed_seconds": elapsed,
        "req_per_sec": completed / elapsed if elapsed > 0 else 0.0,
        "latencies_ms": latencies_ms,
        "p50_ms": percentile(latencies_ms, 0.50),
        "p99_ms": percentile(latencies_ms, 0.99),
    }
