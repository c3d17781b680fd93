"""Multiprocessing (wall-clock) speculation tests.

These fork real OS processes, so they run in a separate, non-blocking CI job
rather than tier-1: set ``REPRO_MP_SPECULATION=1`` to enable them.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.jsvm.interpreter import Interpreter
from repro.jsvm.parser import parse
from repro.parallel.speculative import SpeculationController, SpeculationOptions

pytestmark = [
    pytest.mark.skipif(
        os.environ.get("REPRO_MP_SPECULATION") != "1",
        reason="set REPRO_MP_SPECULATION=1 to run the forked-process speculation tests",
    ),
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable on this platform",
    ),
]


def run_mp_speculation(workers: int = 4):
    interp = Interpreter()
    interp.run_source("var out = []; var i; for (i = 0; i < 400; i++) { out.push(0); }")
    program = parse(
        "for (var j = 0; j < 400; j++) {"
        " var acc = 0;"
        " for (var k = 0; k < 25; k++) { acc = acc + k * j; }"
        " out[j] = acc; }",
        name="mp-kernel.js",
    )
    controller = SpeculationController(
        program.body[0].node_id,
        SpeculationOptions(workers=workers, use_processes=True),
        kind="for",
    )
    interp.speculation = controller
    interp.run(program)
    interp.speculation = None
    return interp, controller.outcomes[0]


class TestProcessReplay:
    def test_commits_with_wall_clock_report(self):
        _interp, outcome = run_mp_speculation()
        assert outcome.status == "committed"
        wall = outcome.wall
        assert wall is not None and "error" not in wall
        assert wall["mode"] == "fork"
        assert len(wall["chunk_wall_s"]) == 4
        assert wall["parallel_wall_s"] > 0
        assert wall["serial_wall_s"] > 0
        assert wall["wall_speedup"] > 0

    def test_children_replay_deterministically(self):
        """Child-process replays must produce byte-identical state to the
        in-process replay (digest cross-check)."""
        _interp, outcome = run_mp_speculation()
        assert outcome.wall.get("digest_match") is True

    def test_serial_result_unaffected_by_process_mode(self):
        interp_mp, _ = run_mp_speculation()
        from repro.jsvm.snapshot import heap_digest

        interp_plain = Interpreter()
        interp_plain.run_source("var out = []; var i; for (i = 0; i < 400; i++) { out.push(0); }")
        interp_plain.run_source(
            "for (var j = 0; j < 400; j++) {"
            " var acc = 0;"
            " for (var k = 0; k < 25; k++) { acc = acc + k * j; }"
            " out[j] = acc; }"
        )
        assert heap_digest(interp_mp.global_env) == heap_digest(interp_plain.global_env)
