"""Analysis-as-a-service: the multi-tenant serving tier.

The batch tool runs one analysis per process; this package puts a long-lived
HTTP+JSON daemon in front of one shared
:class:`~repro.api.session.AnalysisSession` so many clients can submit
workloads (by registry name or as ad-hoc script sources) and receive
:class:`~repro.api.results.RunResult` envelopes.  Three layers make it more
than a wrapper:

* :mod:`repro.serve.store` — a :class:`DiskTraceStore` with the in-memory
  :class:`~repro.engine.cache.TraceStore`'s fingerprint × mask-superset
  contract, persisting sealed binary trace segments (container 3, see
  :mod:`repro.jsvm.tracecodec`) plus a JSON index so recordings survive
  restarts and are shared across every client;
* :mod:`repro.serve.dedup` — single-flight deduplication (concurrent
  identical requests coalesce onto one in-flight computation) over a bounded
  worker pool with a FIFO admission queue (overflow → HTTP 429);
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — the stdlib
  ``ThreadingHTTPServer`` daemon behind ``python -m repro serve`` and the
  ``urllib``-based client behind ``python -m repro submit`` plus the
  load-generator benchmark.

No dependency beyond the standard library is involved anywhere in this
package.  Import the submodules directly: the package imports none of them,
so :mod:`repro.serve.client` stays a pure ``urllib`` client and only the
daemon imports the analysis stack.
"""
