"""Populate a disk trace store and compute the expected served results.

Run as its own process (``PYTHONPATH=src python perfbench/populate.py DIR
KEYS_JSON``): records every Table 1 application's union-mask trace into
``DIR/store`` exactly as the daemon's cold path would (``record_trace`` into
a :class:`~repro.serve.store.DiskTraceStore`), then runs every submission in
``KEYS_JSON`` in process through ``AnalysisSession.run`` and writes the
SHA-256 of each canonical ``result`` object to ``DIR/expected.json``.

Also used, with ``--scripts``, to compute the expected results of ad-hoc
script submissions in a fresh in-memory session.
"""

import hashlib
import json
import sys
from pathlib import Path

from repro.api.session import AnalysisSession
from repro.serve.protocol import encode_json, parse_submit
from repro.serve.store import DiskTraceStore
from repro.workloads import workload_names


def result_digest(session, body: dict) -> str:
    request = parse_submit(body)
    result = session.run(request.resolve_workload(), request.spec())
    # encode_json appends a newline; the served envelope embeds the object.
    return hashlib.sha256(encode_json(result.to_dict())[:-1]).hexdigest()


def main(argv) -> int:
    if argv[0] == "--scripts":
        bodies = json.loads(Path(argv[1]).read_text())
        with AnalysisSession() as session:
            digests = [result_digest(session, body) for body in bodies]
        print(json.dumps(digests))
        return 0
    root = Path(argv[0])
    keys = json.loads(Path(argv[1]).read_text())
    with AnalysisSession(trace_store=DiskTraceStore(root / "store")) as session:
        for name in workload_names():
            session.record_trace(name)
        expected = {key: result_digest(session, body) for key, body in keys.items()}
    (root / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
