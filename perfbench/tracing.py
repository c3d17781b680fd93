"""Spans around the program's public layer functions, recorded from outside.

:func:`install` wraps the functions in :data:`TARGETS` (by module attribute,
so callers that imported them by name are wrapped too).  Each call records a
span: name, start and end (``perf_counter_ns``), parent span, request id,
process id and a few counts.  Spans stay in memory and are written as one
JSON list when the process ends (:func:`dump`).  A forked fan-out worker
writes its own spans file after every task, since it never exits normally.

:func:`self_times` turns spans into per-layer self time: a span's duration
minus the part of it its same-thread children cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pickle
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List

_local = threading.local()
_ids = itertools.count(1)
_requests = itertools.count(1)
SPANS: List[dict] = []


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


class Span:
    """Context manager recording one span on the calling thread's stack."""

    __slots__ = ("record",)

    def __init__(self, name: str, root: bool = False) -> None:
        stack = _stack()
        parent = stack[-1] if stack else None
        request = next(_requests) if root or parent is None else parent["request"]
        self.record = {
            "id": next(_ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "request": request,
            "pid": os.getpid(),
            "thread": threading.get_ident(),
            "start": 0,
            "end": 0,
        }

    def __enter__(self) -> dict:
        _stack().append(self.record)
        self.record["start"] = time.perf_counter_ns()
        return self.record

    def __exit__(self, *exc) -> None:
        self.record["end"] = time.perf_counter_ns()
        _stack().pop()
        SPANS.append(self.record)


def _wrap(function: Callable, name, root: bool = False, count=None) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span_name = name(*args, **kwargs) if callable(name) else name
        with Span(span_name, root=root) as record:
            result = function(*args, **kwargs)
            if count is not None:
                record.update(count(result, *args))
        return result

    wrapper.__wrapped_by_perfbench__ = True
    return wrapper


def _run_name(self, workload, spec=None, *args, **kwargs) -> str:
    """``api.run[<tracers>|<live or replay>]`` for one ``AnalysisSession.run``."""
    tracers = ",".join(sorted(spec.tracers)) if spec is not None else "lightweight"
    policy = "replay" if getattr(spec, "trace_policy", None) == "replay" else "live"
    return f"api.run[{tracers or 'none'}|{policy}]"


def _trace_counts(trace, *args) -> dict:
    return {"events": len(getattr(trace, "events", ()) or ())}


def _file_bytes(_result, _trace, path, *args) -> dict:
    return {"bytes": os.path.getsize(path)}


#: (module, attribute path, span name or namer, request root, counter)
TARGETS = [
    ("repro.engine.cache", "parse", "jsvm.parse", False, None),
    ("repro.ceres.proxy", "parse", "jsvm.parse", False, None),
    ("repro.jsvm.interpreter", "parse", "jsvm.parse", False, None),
    ("repro.analysis.casestudy", "CaseStudyRunner.record_trace", "hooks.record", False, _trace_counts),
    ("repro.analysis.casestudy", "CaseStudyRunner.measure_runtime_from_trace", "ceres.lightweight", False, None),
    ("repro.analysis.casestudy", "CaseStudyRunner.profile_loops_from_trace", "ceres.loop_profile", False, None),
    ("repro.analysis.casestudy", "CaseStudyRunner.analyze_nests_from_trace", "ceres.dependence", False, None),
    ("repro.jsvm.hooks", "TraceReplayer.replay", "hooks.replay", False, None),
    ("repro.jsvm.tracecodec", "write_binary_trace", "tracecodec.encode", False, _file_bytes),
    ("repro.jsvm.tracecodec", "BinaryTraceSource.load", "tracecodec.decode", False, _trace_counts),
    ("repro.serve.store", "DiskTraceStore.put", "serve.store_put", False, None),
    ("repro.serve.store", "DiskTraceStore.find", "serve.store_find", False, None),
    ("repro.engine.pipeline", "build_tables", "analysis.tables", False, None),
    ("repro.engine.pipeline", "AnalysisPipeline.analyze_many", "engine.fanout", False, None),
    ("repro.api.results", "RunResult.to_dict", "api.result_json", False, None),
    ("repro.serve.server", "encode_json", "api.result_json", False, None),
    ("repro.api.session", "AnalysisSession.run", _run_name, True, None),
]


def _worker_wrapper(function: Callable, spans_path: str) -> Callable:
    """Wrap the fan-out worker entry: span it, size what it ships back."""

    @functools.wraps(function)
    def wrapper(payload):
        with Span("engine.worker_task", root=True) as record:
            outcome = function(payload)
            started = time.perf_counter_ns()
            record["ship_bytes"] = len(pickle.dumps(outcome))
            record["ship_ns"] = time.perf_counter_ns() - started
        dump(f"{spans_path}.{os.getpid()}")
        return outcome

    return wrapper


def _job_submit_wrapper(submit: Callable) -> Callable:
    """Run each daemon job inside one ``serve.job`` request span."""

    @functools.wraps(submit)
    def wrapper(self, key, fn):
        def traced_job(job):
            with Span("serve.job", root=True):
                return fn(job)

        return submit(self, key, traced_job)

    return wrapper


def install(spans_path: str) -> None:
    """Wrap every target; the fan-out worker entry dumps to ``spans_path.<pid>``."""
    for module_name, attribute, name, root, count in TARGETS:
        module = importlib.import_module(module_name)
        owner_path, _, leaf = attribute.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        if getattr(original, "__wrapped_by_perfbench__", False):
            continue
        setattr(owner, leaf, _wrap(original, name, root=root, count=count))
    pipeline = importlib.import_module("repro.engine.pipeline")
    pipeline._analyze_in_worker = _worker_wrapper(pipeline._analyze_in_worker, spans_path)
    dedup = importlib.import_module("repro.serve.dedup")
    executor = dedup.SingleFlightExecutor
    executor.submit = _job_submit_wrapper(executor.submit)


def dump(path: str) -> None:
    """Write this process's spans as JSON."""
    Path(path).write_text(json.dumps(SPANS))


def load_spans(spans_path: Path) -> List[dict]:
    """Spans from ``spans_path`` and every per-process file beside it."""
    spans: List[dict] = []
    for path in sorted(spans_path.parent.glob(spans_path.name + "*")):
        spans.extend(json.loads(path.read_text()))
    unique = {(span["pid"], span["id"]): span for span in spans}
    return list(unique.values())


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Seconds of self time per span name (children subtracted)."""
    child_ns: Dict[tuple, int] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            child_ns[key] = child_ns.get(key, 0) + span["end"] - span["start"]
    totals: Dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - child_ns.get((span["pid"], span["id"]), 0)
        name = span["name"]
        totals[name] = totals.get(name, 0.0) + own / 1e9
    return totals


def coverage(spans: List[dict], containers=("serve.job", "engine.worker_task", "engine.fanout")) -> float:
    """Share of traced time that lands in a named layer.

    Traced time is the duration of every root span (one with no parent in
    its own process), except the fan-out parent, which only waits for its
    workers.  Layer time is the self time of every span but the containers,
    whose self time is glue no layer owns.
    """
    ids = {(span["pid"], span["id"]) for span in spans}
    roots = [
        span for span in spans
        if (span["pid"], span["parent"]) not in ids and span["name"] != "engine.fanout"
    ]
    traced = sum(span["end"] - span["start"] for span in roots) / 1e9
    own = self_times(spans)
    layer = sum(seconds for name, seconds in own.items() if name not in containers)
    return layer / traced if traced else 0.0


def summed(spans: List[dict], name: str, field: str) -> int:
    return sum(span.get(field, 0) for span in spans if span["name"] == name)
