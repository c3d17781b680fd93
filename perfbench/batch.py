"""Batch phases: the cold 12-app sweep and the live API spec set.

Both run as fresh subprocesses, as a user runs them; wall time and peak RSS
are read from outside (``wait4``).  Their output checks:

* ``sweep-cold``: ``python -m repro report`` stdout is byte-equal to
  ``expected/report.txt``, and its fluidSim, Raytracing and Normal Mapping
  rows equal ``tests/goldens/case_study_tables.txt`` (whitespace-normalized,
  because column widths follow the widest row);
* ``api-live``: every payload digest equals ``expected/api_live.json``, and
  each app's mode 1 total equals its uninstrumented virtual clock.

Neither path may write a trace segment; both run with a fresh working
directory whose file count is checked afterwards.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional

from common import BENCH_DIR, ROOT, WORK, measured_child, python_argv

EXPECTED = BENCH_DIR / "expected"
GOLDEN_TABLES = ROOT / "tests" / "goldens" / "case_study_tables.txt"
GOLDEN_APPS = ("fluidSim", "Realtime Raytracing", "Normal Mapping")


def _golden_rows(text: str) -> List[List[str]]:
    return [
        line.split()
        for line in text.splitlines()
        if any(line.startswith(name + " ") for name in GOLDEN_APPS)
    ]


def _check_sweep(stdout: bytes) -> Optional[str]:
    if stdout != (EXPECTED / "report.txt").read_bytes():
        return "sweep stdout differs from expected/report.txt"
    golden = _golden_rows(GOLDEN_TABLES.read_text(encoding="utf-8"))
    produced = _golden_rows(stdout.decode("utf-8"))
    if [row for row in produced if row in golden] != golden:
        return "sweep rows differ from tests/goldens/case_study_tables.txt"
    return None


def _check_api(stdout: bytes) -> Optional[str]:
    runs = json.loads(stdout)["runs"]
    expected = json.loads((EXPECTED / "api_live.json").read_text())
    digests = {f"{run['workload']}/{run['spec']}": run["digest"] for run in runs}
    if digests != expected:
        return "api-live payload digests differ from expected/api_live.json"
    by_key = {(run["workload"], run["spec"]): run for run in runs}
    for (workload, spec), run in by_key.items():
        if spec == "lightweight":
            baseline = by_key[(workload, "uninstrumented")]["clock_seconds"]
            if run["total_seconds"] != baseline:
                return f"{workload}: mode 1 total != uninstrumented clock"
    return None


def _run_in_clean_dir(argv, name: str) -> dict:
    """Run ``argv`` from an empty scratch cwd; fail if it leaves files."""
    cwd = WORK / f"{name}-cwd"
    cwd.mkdir(parents=True, exist_ok=True)
    for stale in cwd.iterdir():
        stale.unlink()
    result = measured_child(argv, WORK / f"{name}.stdout", cwd=cwd)
    result["written"] = sorted(path.name for path in cwd.iterdir())
    return result


def run_batch(kind: str, argv_prefix: Optional[List[str]] = None) -> dict:
    """One ``sweep`` or ``api`` batch; ``argv_prefix`` wraps it (tracing).

    Returns wall seconds, peak RSS, the per-item latencies the batch
    reports (``api`` only) and the output check's error, if any.
    """
    if kind == "sweep":
        program = ["-m", "repro", "report"]
        check = _check_sweep
    else:
        program = [str(BENCH_DIR / "api_live.py")]
        check = _check_api
    argv = python_argv(*(argv_prefix or []), *program)
    result = _run_in_clean_dir(argv, kind)
    error = None
    if result["returncode"] != 0:
        error = f"{kind} exited with {result['returncode']}"
    elif result["written"]:
        error = f"{kind} wrote files: {result['written']}"
    else:
        error = check(result["stdout"])
    items, plain_ops = [], 0
    if kind == "api" and result["returncode"] == 0:
        runs = json.loads(result["stdout"])["runs"]
        items = [run["seconds"] for run in runs]
        plain_ops = sum(run["ops"] for run in runs if run["spec"] == "uninstrumented")
    return {
        "wall": result["wall"],
        "rss_mb": result["rss_mb"],
        "cpu": result["cpu"],
        "items": items,
        "plain_ops": plain_ops,
        "error": error,
    }


def write_expected_api(stdout: bytes, path: Path) -> None:
    """Regenerate ``expected/api_live.json`` from one api-live stdout."""
    runs = json.loads(stdout)["runs"]
    digests = {f"{run['workload']}/{run['spec']}": run["digest"] for run in runs}
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
