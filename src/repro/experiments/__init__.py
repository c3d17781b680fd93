"""Experiment registry mapping paper tables/figures to runnable code.

The deprecated ``run_case_study`` shim was removed after its promised two-PR
compatibility window: use :meth:`repro.api.AnalysisSession.case_study` (the
shared fallback session remains available via :func:`default_session`).
"""

from .registry import (
    Experiment,
    build_registry,
    default_session,
    run_all_experiments,
    run_experiment,
)

__all__ = [
    "Experiment",
    "build_registry",
    "default_session",
    "run_all_experiments",
    "run_experiment",
]
