"""Shared fixtures for the test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.browser.window import BrowserSession
from repro.jsvm.hooks import HookBus
from repro.jsvm.interpreter import Interpreter
from repro.survey.population import generate_population


@pytest.fixture
def interp() -> Interpreter:
    """A fresh interpreter with no tracers attached."""
    return Interpreter()


@pytest.fixture
def hooks() -> HookBus:
    return HookBus()


@pytest.fixture
def session() -> BrowserSession:
    """A fresh browser session (interpreter + DOM + event loop)."""
    return BrowserSession()


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def v1_chunks_fixture() -> Path:
    """Committed v1 chunked gzip-NDJSON trace: MyScript under the full
    pipeline mask, 512 events per chunk (22 chunks).  The package no longer
    writes v1; this file and :func:`v1_loops_fixture` pin its readers."""
    return FIXTURES / "myscript-v1-chunks.trace.json.gz"


@pytest.fixture(scope="session")
def v1_loops_fixture() -> Path:
    """Committed v1 single-document JSON trace: MyScript under ``EV_LOOP``
    only (264 events)."""
    return FIXTURES / "myscript-v1-loops.trace.json"


@pytest.fixture(scope="session")
def population():
    """The 174-respondent synthetic survey population (expensive enough to share)."""
    return generate_population(seed=2015)


def run_js(source: str, interpreter: Interpreter | None = None):
    """Helper: run a source string and return (result, interpreter)."""
    interpreter = interpreter or Interpreter()
    result = interpreter.run_source(source)
    return result, interpreter
