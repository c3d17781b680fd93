"""Declarative run specifications for :class:`~repro.api.session.AnalysisSession`.

A :class:`RunSpec` names the tracers to attach for one instrumented run.  The
paper stages its three modes to keep instrumentation overhead from biasing
wall-clock measurements; in this reproduction every tracer is *clock-neutral*
(the interpreter charges virtual time per operation regardless of the
subscriber mask), so any subset of tracers can attach to one
:class:`~repro.jsvm.hooks.HookBus` in a single pass and produce numbers
identical to the staged runs.  :meth:`RunSpec.combined_mask` exposes the OR of
the composed tracers' event masks — the single integer the compiled execution
core consults per construct.

Specs compose with ``|``::

    spec = RunSpec.lightweight() | RunSpec.loop_profile()
    result = session.run(workload, spec)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from ..jsvm.tiers import validate_tier

#: Valid ``RunSpec.trace_policy`` values (``None`` = plain live run).
TRACE_POLICIES = ("record", "replay")

#: Tracer kind names (the strings used in ``RunSpec.tracers`` and in
#: :attr:`~repro.api.results.RunResult.payloads` keys).
LIGHTWEIGHT = "lightweight"
GECKO = "gecko"
LOOP_PROFILE = "loop_profile"
DEPENDENCE = "dependence"
#: Speculative parallel re-execution (see :mod:`repro.parallel.speculative`).
#: Not a hook-bus tracer: the session runs the four-stage analysis to obtain
#: dependence verdicts, then re-runs the workload once per DOALL nest with a
#: speculation controller installed.
SPECULATE = "speculate"

#: Canonical tracer order (used for deterministic labels and payload listing).
#: ``speculate`` is a *mode*, not a bus tracer, so it is listed separately.
ALL_TRACERS = (LIGHTWEIGHT, GECKO, LOOP_PROFILE, DEPENDENCE)

#: Every valid ``RunSpec.tracers`` entry, in canonical order.
ALL_MODES = ALL_TRACERS + (SPECULATE,)

#: Short names used in results-repository commit labels; the single-tracer
#: labels match the historical ``JSCeres.run_*`` report names exactly.
_COMMIT_NAMES = {
    LIGHTWEIGHT: "lightweight",
    GECKO: "gecko",
    LOOP_PROFILE: "loops",
    DEPENDENCE: "dependence",
    SPECULATE: "speculate",
}


class UnknownFocusLineError(ValueError):
    """``focus_line`` matched no registered loop.

    The legacy ``JSCeres.run_dependence`` silently fell back to analyzing
    *all* loops in this case — a silent change of semantics.  The session
    raises instead, listing the lines that do declare loops.
    """

    def __init__(self, workload: str, focus_line: int, known_lines: List[int]) -> None:
        self.workload = workload
        self.focus_line = focus_line
        self.known_lines = list(known_lines)
        super().__init__(
            f"no loop at line {focus_line} in workload {workload!r}; "
            f"loops are declared at lines {self.known_lines}"
        )

    def __reduce__(self):
        # Rebuilt from its own fields, so it crosses a pool pipe intact.
        return type(self), (self.workload, self.focus_line, self.known_lines)


@dataclass(frozen=True)
class RunSpec:
    """Which tracers to attach (and how to focus them) for one run.

    ``tracers`` is any subset of :data:`ALL_TRACERS`; the empty set is the
    uninstrumented baseline.  ``focus_line`` / ``focus_loop_id`` direct the
    dependence analyzer at one loop (requires the ``dependence`` tracer).
    ``publish`` controls whether the rendered report is committed to the
    session's results repository (uninstrumented runs never commit).
    """

    tracers: FrozenSet[str] = frozenset()
    focus_line: Optional[int] = None
    focus_loop_id: Optional[int] = None
    publish: bool = True
    #: Speculation knobs (meaningful only with the ``speculate`` mode):
    #: worker count (None = the paper machine's 8 hardware threads),
    #: iteration partitioning strategy, and whether chunks additionally run
    #: in forked OS processes for wall-clock numbers.
    speculate_workers: Optional[int] = None
    speculate_strategy: Optional[str] = None
    speculate_processes: bool = False
    #: Trace policy: ``None`` runs live; ``"record"`` runs live *and*
    #: captures a :class:`~repro.jsvm.hooks.Trace` into the session's store;
    #: ``"replay"`` drives the tracers from a stored (or freshly recorded)
    #: trace with **no** guest execution.  See :meth:`record` / :meth:`replay`.
    trace_policy: Optional[str] = None
    #: Execution-tier policy (see :mod:`repro.jsvm.tiers`): ``None`` uses
    #: the session default (``"auto"``), or name ``"auto"``/``"bytecode"``/
    #: ``"closure"`` explicitly.  Tiers are byte-identical by contract, so
    #: this knob affects speed only, never results.
    tier: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tracers", frozenset(self.tracers))
        unknown = self.tracers - set(ALL_MODES)
        if unknown:
            raise ValueError(
                f"unknown tracer kind(s) {sorted(unknown)}; known: {list(ALL_MODES)}"
            )
        if (self.focus_line is not None or self.focus_loop_id is not None) and (
            DEPENDENCE not in self.tracers
        ):
            raise ValueError(
                "focus_line/focus_loop_id require the 'dependence' tracer "
                f"(got tracers={sorted(self.tracers)})"
            )
        if SPECULATE not in self.tracers and (
            self.speculate_workers is not None
            or self.speculate_strategy is not None
            or self.speculate_processes
        ):
            raise ValueError(
                "speculate_workers/speculate_strategy/speculate_processes require "
                f"the 'speculate' mode (got tracers={sorted(self.tracers)})"
            )
        if self.speculate_strategy not in (None, "block", "cyclic"):
            raise ValueError(
                f"unknown speculation strategy {self.speculate_strategy!r}; "
                "known: 'block', 'cyclic'"
            )
        if self.trace_policy is not None:
            if self.trace_policy not in TRACE_POLICIES:
                raise ValueError(
                    f"unknown trace policy {self.trace_policy!r}; "
                    f"known: {list(TRACE_POLICIES)} (or None for a live run)"
                )
            if not (self.tracers - {SPECULATE}):
                raise ValueError(
                    f"trace_policy={self.trace_policy!r} requires at least one "
                    f"bus tracer (got tracers={sorted(self.tracers)})"
                )
        validate_tier(self.tier)

    # ------------------------------------------------------------ constructors
    @classmethod
    def uninstrumented(cls) -> "RunSpec":
        """Baseline: no tracers, no commit (the overhead-benchmark reference)."""
        return cls(tracers=frozenset(), publish=False)

    @classmethod
    def lightweight(cls, with_gecko: bool = True) -> "RunSpec":
        """Mode 1: total time + in-loop time (+ Gecko-style active time)."""
        kinds = {LIGHTWEIGHT, GECKO} if with_gecko else {LIGHTWEIGHT}
        return cls(tracers=frozenset(kinds))

    @classmethod
    def loop_profile(cls) -> "RunSpec":
        """Mode 2: per-syntactic-loop instance/time/trip-count statistics."""
        return cls(tracers=frozenset({LOOP_PROFILE}))

    @classmethod
    def dependence(
        cls,
        focus_line: Optional[int] = None,
        focus_loop_id: Optional[int] = None,
    ) -> "RunSpec":
        """Mode 3: dependence analysis, optionally focused on one loop."""
        return cls(
            tracers=frozenset({DEPENDENCE}),
            focus_line=focus_line,
            focus_loop_id=focus_loop_id,
        )

    @classmethod
    def speculate(
        cls,
        workers: Optional[int] = None,
        strategy: Optional[str] = None,
        processes: bool = False,
    ) -> "RunSpec":
        """Speculative parallel re-execution of every DOALL-verdict nest.

        The session runs the four-stage analysis (the ``ceres`` dependence
        verdicts gate which nests speculate), then re-executes each eligible
        nest in ``workers`` isolated contexts and reports executed vs
        modelled speedup; compose with other modes freely (``RunSpec.speculate()
        | RunSpec.lightweight()``).
        """
        return cls(
            tracers=frozenset({SPECULATE}),
            speculate_workers=workers,
            speculate_strategy=strategy,
            speculate_processes=processes,
        )

    @classmethod
    def composed(
        cls,
        *tracers: str,
        focus_line: Optional[int] = None,
        focus_loop_id: Optional[int] = None,
        publish: bool = True,
    ) -> "RunSpec":
        """An explicit multi-tracer spec, e.g. ``composed(LIGHTWEIGHT, LOOP_PROFILE)``."""
        return cls(
            tracers=frozenset(tracers),
            focus_line=focus_line,
            focus_loop_id=focus_loop_id,
            publish=publish,
        )

    # ------------------------------------------------------------ trace policy
    def record(self) -> "RunSpec":
        """A copy of this spec that also captures a trace during the live run.

        The session stores the recorded trace in its
        :class:`~repro.engine.cache.TraceStore` (keyed by workload
        fingerprint) and attaches it to ``result.artifacts.trace``; later
        ``replay()`` runs of any tracer subset are then free of guest
        execution.
        """
        return dataclasses.replace(self, trace_policy="record")

    def replay(self) -> "RunSpec":
        """A copy of this spec whose tracers replay a recorded trace.

        The session looks up a stored trace covering this spec's event mask
        for the workload's fingerprint, recording one first if none exists,
        and drives the tracers from it — payloads and report text are
        byte-identical to a live run.  The ``speculate`` mode is not a bus
        tracer and still executes (its whole point is re-execution).
        """
        return dataclasses.replace(self, trace_policy="replay")

    def live(self) -> "RunSpec":
        """A copy of this spec with the default live-execution policy."""
        return dataclasses.replace(self, trace_policy=None)

    # -------------------------------------------------------------------- tier
    def with_tier(self, tier: Optional[str]) -> "RunSpec":
        """A copy of this spec pinned to an execution-tier policy."""
        return dataclasses.replace(self, tier=validate_tier(tier))

    # ------------------------------------------------------------- composition
    def __or__(self, other: "RunSpec") -> "RunSpec":
        """Merge two specs into one single-pass run.

        Tracer sets union; focus settings must agree (or be set on only one
        side) since a run drives a single dependence analyzer.
        """
        if not isinstance(other, RunSpec):
            return NotImplemented

        def merge(mine, theirs, what):
            if mine is not None and theirs is not None and mine != theirs:
                raise ValueError(f"cannot compose specs with conflicting {what}: {mine} != {theirs}")
            return mine if mine is not None else theirs

        return RunSpec(
            tracers=self.tracers | other.tracers,
            focus_line=merge(self.focus_line, other.focus_line, "focus_line"),
            focus_loop_id=merge(self.focus_loop_id, other.focus_loop_id, "focus_loop_id"),
            publish=self.publish and other.publish,
            speculate_workers=merge(
                self.speculate_workers, other.speculate_workers, "speculate_workers"
            ),
            speculate_strategy=merge(
                self.speculate_strategy, other.speculate_strategy, "speculate_strategy"
            ),
            speculate_processes=self.speculate_processes or other.speculate_processes,
            trace_policy=merge(self.trace_policy, other.trace_policy, "trace_policy"),
            tier=merge(self.tier, other.tier, "tier"),
        )

    # ------------------------------------------------------------------ masks
    def combined_mask(self) -> int:
        """OR of the composed tracers' event masks (one bus, single pass).

        Tracers in this reproduction never advance the virtual clock, so
        every combination of masks is compatible — composing tracers cannot
        perturb each other's measurements.  The mask is what the compiled
        execution core consults once per construct.
        """
        from ..browser.gecko_profiler import GeckoProfiler
        from ..ceres.dependence import DependenceAnalyzer
        from ..ceres.lightweight import LightweightProfiler
        from ..ceres.loop_profiler import LoopProfiler

        classes = {
            LIGHTWEIGHT: LightweightProfiler,
            GECKO: GeckoProfiler,
            LOOP_PROFILE: LoopProfiler,
            DEPENDENCE: DependenceAnalyzer,
        }
        mask = 0
        for kind in self.tracers:
            if kind == SPECULATE:
                # Speculation is not a bus tracer: its analysis and replay
                # runs are separate passes, so the composed main pass stays
                # unaffected.
                continue
            mask |= classes[kind].declared_events()
        return mask

    def instrumentation_mode(self):
        """The proxy :class:`~repro.ceres.proxy.InstrumentationMode` to request.

        The heaviest requested tracer decides how the proxy tags the
        documents; with no tracers the proxy serves them uninstrumented.
        """
        from ..ceres.proxy import InstrumentationMode

        if DEPENDENCE in self.tracers:
            return InstrumentationMode.DEPENDENCE
        if LOOP_PROFILE in self.tracers:
            return InstrumentationMode.LOOP_PROFILE
        if self.tracers:
            return InstrumentationMode.LIGHTWEIGHT
        return InstrumentationMode.NONE

    # ------------------------------------------------------------------ labels
    def modes(self) -> List[str]:
        """The composed tracer kinds in canonical order."""
        return [kind for kind in ALL_MODES if kind in self.tracers]

    def commit_suffix(self) -> Optional[str]:
        """Report name suffix for the results repository (None = no commit).

        Single-tracer specs keep the historical names (``-lightweight``,
        ``-loops``, ``-dependence``); a lightweight+gecko pair is still a
        mode-1 run.  Composed specs join their short names deterministically.
        """
        if not self.tracers or not self.publish:
            return None
        if LIGHTWEIGHT in self.tracers and self.tracers <= {LIGHTWEIGHT, GECKO}:
            return "lightweight"
        if len(self.tracers) == 1:
            return _COMMIT_NAMES[next(iter(self.tracers))]
        return "+".join(_COMMIT_NAMES[kind] for kind in self.modes())

    # ------------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, object]:
        data = {
            "tracers": sorted(self.tracers),
            "focus_line": self.focus_line,
            "focus_loop_id": self.focus_loop_id,
            "publish": self.publish,
            "speculate_workers": self.speculate_workers,
            "speculate_strategy": self.speculate_strategy,
            "speculate_processes": self.speculate_processes,
        }
        # Serialized only when set, so pre-trace envelopes keep their bytes.
        if self.trace_policy is not None:
            data["trace_policy"] = self.trace_policy
        if self.tier is not None:
            data["tier"] = self.tier
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunSpec":
        return cls(
            tracers=frozenset(data.get("tracers", ())),
            focus_line=data.get("focus_line"),
            focus_loop_id=data.get("focus_loop_id"),
            publish=bool(data.get("publish", True)),
            speculate_workers=data.get("speculate_workers"),
            speculate_strategy=data.get("speculate_strategy"),
            speculate_processes=bool(data.get("speculate_processes", False)),
            trace_policy=data.get("trace_policy"),
            tier=data.get("tier"),
        )
