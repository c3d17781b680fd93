"""JS-CERES instrumentation mode 2: loop profiling.

Section 3.2: for each syntactic loop the tool computes "the number of times
it is encountered, the total, average, and variance of its running time, and
the total, average, and variance of its trip count", using Welford's online
algorithm for the variances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..jsvm.hooks import EV_LOOP, Tracer
from .ids import IndexRegistry
from .welford import OnlineStats


@dataclass
class LoopProfile:
    """Aggregated statistics for one syntactic loop."""

    loop_id: int
    label: str
    kind: str
    line: int
    program: str
    instances: int = 0
    trip_stats: OnlineStats = field(default_factory=OnlineStats)
    time_stats_ms: OnlineStats = field(default_factory=OnlineStats)
    #: ids of loops that were open when this loop was entered (outermost
    #: first), observed at runtime — lets the analysis rebuild dynamic nests.
    observed_parents: List[int] = field(default_factory=list)

    @property
    def total_time_ms(self) -> float:
        return self.time_stats_ms.total

    @property
    def mean_trip_count(self) -> float:
        return self.trip_stats.mean

    @property
    def trip_count_std(self) -> float:
        return self.trip_stats.std

    def as_row(self) -> dict:
        return {
            "loop": self.label,
            "program": self.program,
            "instances": self.instances,
            "total_ms": round(self.total_time_ms, 3),
            "mean_ms": round(self.time_stats_ms.mean, 3),
            "var_ms": round(self.time_stats_ms.variance, 3),
            "mean_trips": round(self.trip_stats.mean, 2),
            "trips_std": round(self.trip_stats.std, 2),
        }


@dataclass
class _OpenInstance:
    loop_id: int
    start_ms: float
    trip_count: int = 0


class LoopProfiler(Tracer):
    """Per-syntactic-loop instance/time/trip-count statistics."""

    #: Mode 2 also only subscribes to loop events (Section 3.2).
    EVENTS = EV_LOOP

    def __init__(self, registry: Optional[IndexRegistry] = None) -> None:
        self.registry = registry
        self.profiles: Dict[int, LoopProfile] = {}
        #: Open loop instances; a closed one is folded into its profile's
        #: Welford accumulators and dropped, so resident memory is bounded by
        #: the *deepest open nest* regardless of how many instances run.
        self._open: List[_OpenInstance] = []
        #: High-water mark of simultaneously open loop instances — the
        #: profiler's actual per-nest memory bound, reported by the
        #: streaming-memory benchmark.
        self.peak_open_instances = 0

    # -- hook events --------------------------------------------------------
    def on_loop_enter(self, interp, node) -> None:
        profile = self._profile_for(node)
        profile.instances += 1
        parents = [inst.loop_id for inst in self._open]
        if parents and not profile.observed_parents:
            profile.observed_parents = parents
        self._open.append(_OpenInstance(loop_id=node.node_id, start_ms=interp.clock.now()))
        if len(self._open) > self.peak_open_instances:
            self.peak_open_instances = len(self._open)

    def on_loop_iteration(self, interp, node, iteration) -> None:
        for instance in reversed(self._open):
            if instance.loop_id == node.node_id:
                instance.trip_count += 1
                break

    def on_loop_exit(self, interp, node, trip_count) -> None:
        for index in range(len(self._open) - 1, -1, -1):
            if self._open[index].loop_id == node.node_id:
                instance = self._open.pop(index)
                profile = self._profile_for(node)
                profile.trip_stats.push(instance.trip_count)
                profile.time_stats_ms.push(interp.clock.now() - instance.start_ms)
                return

    # -- queries -----------------------------------------------------------
    def _profile_for(self, node) -> LoopProfile:
        profile = self.profiles.get(node.node_id)
        if profile is None:
            label = self.registry.loop_label(node.node_id) if self.registry else f"loop#{node.node_id}"
            program = ""
            kind = type(node).__name__.replace("Statement", "").lower()
            if self.registry is not None:
                for index in self.registry.indexes.values():
                    if node.node_id in index.loops:
                        site = index.loops[node.node_id]
                        program, kind = site.program, site.kind
                        break
            profile = LoopProfile(
                loop_id=node.node_id,
                label=label,
                kind=kind,
                line=getattr(node, "line", 0),
                program=program,
            )
            self.profiles[node.node_id] = profile
        return profile

    def total_loop_time_ms(self) -> float:
        """Total time attributed to *top-level* loop instances.

        Nested loops are excluded to avoid double counting (their time is
        already included in the enclosing loop's running time).
        """
        return sum(p.total_time_ms for p in self.profiles.values() if not p.observed_parents)

    def hottest(self, count: int = 10) -> List[LoopProfile]:
        return sorted(self.profiles.values(), key=lambda p: p.total_time_ms, reverse=True)[:count]

    def by_label(self, label: str) -> Optional[LoopProfile]:
        for profile in self.profiles.values():
            if profile.label == label:
                return profile
        return None
