"""The ``api-live`` batch: the ``ceres-overhead`` spec set, live, on all 12 apps.

Run as its own process (``PYTHONPATH=src python perfbench/api_live.py``): a
fresh :class:`~repro.api.session.AnalysisSession` runs
``RunSpec.uninstrumented()``, ``RunSpec.lightweight()`` and
``RunSpec.loop_profile()`` for every Table 1 application, with no trace store
lookups.  Prints one JSON object: per-run wall time, payload digest and the
virtual-clock figures the benchmark's output check needs.
"""

import hashlib
import json
import time

from repro.api.session import AnalysisSession
from repro.api.spec import RunSpec
from repro.jsvm.clock import VirtualClock
from repro.workloads import workload_names

SPECS = (
    ("uninstrumented", RunSpec.uninstrumented),
    ("lightweight", RunSpec.lightweight),
    ("loop_profile", RunSpec.loop_profile),
)


def result_digest(result) -> str:
    text = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> None:
    runs = []
    with AnalysisSession() as session:
        for name in workload_names():
            for label, make_spec in SPECS:
                started = time.perf_counter()
                result = session.run(name, make_spec())
                seconds = time.perf_counter() - started
                runs.append(
                    {
                        "workload": name,
                        "spec": label,
                        "seconds": seconds,
                        "digest": result_digest(result),
                        "clock_seconds": result.clock_seconds,
                        "total_seconds": result.total_seconds,
                        "ops": round(result.clock_seconds * 1000.0 / VirtualClock().ms_per_op),
                    }
                )
    print(json.dumps({"runs": runs}))


if __name__ == "__main__":
    main()
