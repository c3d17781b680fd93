"""A Gecko-style sampling profiler.

Section 3.1 of the paper cross-checks the JS-CERES in-loop time against the
Mozilla Gecko profiler and observes an anomaly: the *active* CPU time
reported by Gecko is sometimes **lower** than the time JS-CERES measures
inside loops.  The paper attributes this to Gecko sampling at *function*
granularity: "a long running computation within a single function may be seen
as inactive time".

This module reproduces that methodology artifact.  The profiler samples the
guest call stack at a fixed virtual-time interval, but — when
``function_granularity`` is enabled (the default, matching Gecko) — a sample
only counts as *active* if a function-call boundary (enter or exit) occurred
since the previous sample.  Tight loops that stay inside one function for a
long time therefore under-report, exactly as in the paper; loops that call
out frequently are attributed correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..jsvm.hooks import EV_FUNCTION, EV_STATEMENT, Tracer


@dataclass
class GeckoProfile:
    """Aggregated output of a profiling run: running sample counters."""

    sample_interval_ms: float = 1.0
    sample_count: int = 0
    active_count: int = 0

    @property
    def active_ms(self) -> float:
        return self.active_count * self.sample_interval_ms

    @property
    def total_sampled_ms(self) -> float:
        return self.sample_count * self.sample_interval_ms


class GeckoProfiler(Tracer):
    """Sampling profiler attached to the interpreter hook bus.

    Parameters
    ----------
    sample_interval_ms:
        Virtual time between samples (Gecko's default is ~1ms).
    function_granularity:
        When True (default) reproduce Gecko's function-level sampling bias:
        a sample is marked active only if guest function call activity was
        observed since the previous sample.  When False every sample taken
        while guest code is on the stack counts as active (an idealized
        statement-level sampler).

    Only the sample and active counters are kept, so memory stays O(1) in
    the run length.
    """

    EVENTS = EV_FUNCTION | EV_STATEMENT

    def __init__(
        self,
        sample_interval_ms: float = 1.0,
        function_granularity: bool = True,
    ) -> None:
        self.sample_interval_ms = sample_interval_ms
        self.function_granularity = function_granularity
        self.profile = GeckoProfile(sample_interval_ms=sample_interval_ms)
        self._last_sample_ms: Optional[float] = None
        self._call_activity_since_sample = False
        self._statements_since_sample = 0

    # -- hook events ---------------------------------------------------------
    def on_function_enter(self, interp, func, call_node) -> None:
        self._call_activity_since_sample = True

    def on_function_exit(self, interp, func) -> None:
        self._call_activity_since_sample = True

    def on_statement(self, interp, node) -> None:
        self._statements_since_sample += 1
        now = interp.clock.now()
        if self._last_sample_ms is None:
            self._last_sample_ms = now
            return
        while now - self._last_sample_ms >= self.sample_interval_ms:
            self._last_sample_ms += self.sample_interval_ms
            self._take_sample()

    # -- internals -------------------------------------------------------------
    def _take_sample(self) -> None:
        if self.function_granularity:
            active = self._call_activity_since_sample
        else:
            active = self._statements_since_sample > 0
        self.profile.sample_count += 1
        if active:
            self.profile.active_count += 1
        self._call_activity_since_sample = False
        self._statements_since_sample = 0

    # -- results ---------------------------------------------------------------
    def active_seconds(self) -> float:
        return self.profile.active_ms / 1000.0

    def reset(self) -> None:
        self.profile = GeckoProfile(sample_interval_ms=self.sample_interval_ms)
        self._last_sample_ms = None
        self._call_activity_since_sample = False
        self._statements_since_sample = 0
