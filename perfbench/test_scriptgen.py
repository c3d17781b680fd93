"""Tests for the seeded guest-script generator (run with ``PYTHONPATH=src``)."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import scriptgen  # noqa: E402

from repro.browser.window import BrowserSession  # noqa: E402
from repro.engine.cache import workload_fingerprint  # noqa: E402
from repro.jsvm.hooks import HookBus  # noqa: E402
from repro.jsvm.parser import parse  # noqa: E402
from repro.serve.protocol import parse_submit  # noqa: E402

INDICES = range(6)


@pytest.mark.parametrize("index", INDICES)
def test_script_parses(index):
    _name, sources = scriptgen.generate(11, index)
    for path, source in sources:
        parse(source, name=path)


@pytest.mark.parametrize("index", INDICES)
def test_script_finishes_within_op_budget(index):
    _name, sources = scriptgen.generate(11, index)
    session = BrowserSession(hooks=HookBus())
    session.interp.max_ops = scriptgen.OP_BUDGET
    for path, source in sources:
        session.run_script(source, name=path)
    assert 0 < session.interp.stats.ops <= scriptgen.OP_BUDGET


def test_fingerprints_unique_per_index_and_seed():
    fingerprints = set()
    for seed in (1, 2):
        for index in range(20):
            request = parse_submit(scriptgen.submission(seed, index, ["lightweight"]))
            fingerprints.add(workload_fingerprint(request.resolve_workload()))
    assert len(fingerprints) == 40


def test_same_seed_same_script():
    assert scriptgen.generate(5, 3) == scriptgen.generate(5, 3)
