"""Process, statistics and host helpers shared by the benchmark phases.

Every program process the benchmark starts runs from the checkout's ``src``
tree with no ``REPRO_*`` variable in its environment, so the CLI, the API
and the daemon all run in their shipped default configuration.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space for stores, spans and caches; listed in ``.gitignore``.
WORK = ROOT / ".perfbench"


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed start)."""


def require_program() -> None:
    if not (SRC / "repro" / "__main__.py").is_file():
        raise BenchError(f"no program sources under {SRC}; run from a checkout root")


def program_env() -> Dict[str, str]:
    """Environment for program processes: ``src`` importable, no knobs set."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def measured_child(
    argv: Sequence[str], stdout_path: Path, cwd: Optional[Path] = None, timeout: float = 170.0
) -> dict:
    """Run ``argv`` to completion: wall time, peak RSS (MB), CPU and stdout.

    The child is reaped through ``wait4``, so peak RSS covers the process
    and every descendant it waited for (fan-out workers included).  Standard
    output goes to ``stdout_path``, so there is no pipe to drain meanwhile.
    """
    stdout_path.parent.mkdir(parents=True, exist_ok=True)
    with open(stdout_path, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), env=program_env(), cwd=cwd, stdout=out, stderr=subprocess.DEVNULL
        )
        deadline = started + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise BenchError(f"{' '.join(argv)} exceeded {timeout}s")
            time.sleep(0.005)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu": usage.ru_utime + usage.ru_stime,
        "returncode": proc.returncode,
        "stdout": stdout_path.read_bytes(),
    }


def python_argv(*args: str) -> List[str]:
    return [sys.executable, *args]


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0, 0.0, 0.0]
    return statistics.quantiles(values, n=4)


def percentile(values: Sequence[float], share: float) -> float:
    """Linearly interpolated percentile (``share`` in 0..1) of a sample."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def source_digest() -> str:
    """Content hash of the program sources (keys per-checkout caches)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_fingerprint() -> dict:
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def cpu_ticks() -> dict:
    """Host-wide busy and stolen CPU ticks (``/proc/stat``), for the results."""
    fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    values = [int(field) for field in fields]
    return {"busy": values[0] + values[1] + values[2], "steal": values[7] if len(values) > 7 else 0}


def vm_hwm_mb(pid: int) -> Optional[float]:
    """Peak resident set of a live process, from ``/proc/<pid>/status``."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None
