"""Batch analysis engine: cached parsing, staged scheduling and fan-out.

This package owns the *how* of running the paper's case-study methodology at
scale, leaving the *what* (the four-step methodology itself) to
:mod:`repro.analysis`:

* :class:`ScriptCache` — source→AST (and loop-index) caching keyed by content
  hash, so a workload's scripts are parsed and indexed once per process even
  though every instrumentation mode uses a fresh browser session;
* :mod:`repro.engine.stages` — the explicit stage schedule (profile →
  loop-profile → dependence → parallel model) for one workload;
* :class:`AnalysisPipeline` — the batch driver: per-workload stage
  scheduling, result caching keyed by the requested workload set, and
  fan-out across workloads on the persistent :class:`WorkerPool`.
"""

from .cache import ScriptCache, source_digest, workload_fingerprint
from .pipeline import AnalysisPipeline, PipelineResult, resolve_worker_count
from .stages import Stage, default_stages, run_stages
from .workerpool import (
    PoolTask,
    PoolUnavailableError,
    UnknownWorkloadError,
    WorkerCrashError,
    WorkerPool,
)

__all__ = [
    "AnalysisPipeline",
    "PipelineResult",
    "PoolTask",
    "PoolUnavailableError",
    "ScriptCache",
    "Stage",
    "UnknownWorkloadError",
    "WorkerCrashError",
    "WorkerPool",
    "default_stages",
    "resolve_worker_count",
    "run_stages",
    "source_digest",
    "workload_fingerprint",
]
