"""The environment knobs the package reads, pinned as one exact set.

Every ``REPRO_*`` variable is an alternative code path that needs its own
coverage, so adding (or dropping) one should show up as a visible diff of
this file rather than slip in unnoticed.  Names are matched anywhere in the
package source, so a removed knob cannot linger in a docstring either.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent

EXPECTED_KNOBS = {
    "REPRO_ENGINE_WORKERS",
    "REPRO_FORCE_CLOSURE_TIER",
    "REPRO_FORCE_DICT_SCOPES",
    "REPRO_TRACE_CHUNK_EVENTS",
}


def test_knob_set_is_pinned():
    found = set()
    for path in PACKAGE_ROOT.rglob("*.py"):
        found.update(re.findall(r"REPRO_[A-Z0-9_]+", path.read_text(encoding="utf-8")))
    assert found == EXPECTED_KNOBS
