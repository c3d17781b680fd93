"""JS-CERES instrumentation mode 3: runtime dependence analysis.

This tracer reproduces Section 3.3 of the paper:

* It maintains the loop-characterization stack (:class:`LoopStack`).
* Every object creation site stamps the new object with the current stack
  (standing in for the ``Proxy`` wrapper used by the original tool), and
  every *environment* creation stamps the environment, which is how writes to
  ``var``-scoped variables are characterized.
* Every variable write, property write and property read is diffed against
  the relevant stamp; problematic accesses produce
  :class:`~repro.ceres.warnings_.DependenceWarning` records whose rendered
  form matches the paper's ``while(line 24) ok ok -> for(line 6) ok
  dependence`` notation.
* Reads of properties written in a *different* iteration are detected via a
  per-(object, property) snapshot of the stack at the last write, yielding
  flow-dependence warnings.

Because this instrumentation has a very high overhead, the paper lets the
user focus the analysis on one loop; ``focus_loop_id`` provides the same
capability (``None`` analyses every loop).

In addition to the warnings themselves, the tracer gathers per-iteration
*access-pattern summaries* for the focused loop (which properties of which
shared objects each iteration reads/writes).  These are not part of the
original tool's output — the paper's authors inspected access patterns
manually — but they feed the automated difficulty rubric in
:mod:`repro.analysis.difficulty` that regenerates Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..jsvm.hooks import EV_ENV, EV_LOOP, EV_OBJECT, EV_PROP, EV_VAR, Tracer
from ..jsvm.values import JSArray, JSObject
from .ids import IndexRegistry
from .loopstack import CharTriple, LoopStack, Stamp, diff_stamp, is_problematic
from .warnings_ import DependenceWarning, RecursionWarning, WarningKind

#: Maximum number of distinct iterations sampled per access-pattern record.
_MAX_SAMPLED_ITERATIONS = 4096


@dataclass
class AccessPattern:
    """Per-iteration read/write footprint of one shared target in the focus loop."""

    name: str
    target_kind: str  # "variable" | "object"
    creation_site_label: str = ""
    #: iteration -> set of property names written (variables use the name itself)
    writes_by_iteration: Dict[int, Set[str]] = field(default_factory=dict)
    reads_by_iteration: Dict[int, Set[str]] = field(default_factory=dict)
    compound_writes: int = 0  # writes that were read-modify-write on the same property
    total_writes: int = 0
    total_reads: int = 0
    #: cross-iteration reads of values written in the *same instance* of the
    #: focus loop (true loop-carried flow dependences)
    flow_dependences: int = 0
    truncated: bool = False

    def record_write(self, iteration: int, prop: str) -> None:
        self.total_writes += 1
        bucket = self.writes_by_iteration.setdefault(iteration, set())
        if len(self.writes_by_iteration) <= _MAX_SAMPLED_ITERATIONS:
            bucket.add(prop)
        else:
            self.truncated = True

    def record_read(self, iteration: int, prop: str) -> None:
        self.total_reads += 1
        bucket = self.reads_by_iteration.setdefault(iteration, set())
        if len(self.reads_by_iteration) <= _MAX_SAMPLED_ITERATIONS:
            bucket.add(prop)
        else:
            self.truncated = True

    # -- pattern queries used by the difficulty rubric -----------------------
    def writes_are_disjoint(self) -> bool:
        """True when no property is written by two different iterations."""
        seen: Set[str] = set()
        for props in self.writes_by_iteration.values():
            if props & seen:
                return False
            seen |= props
        return True

    def overlapping_write_targets(self) -> Set[str]:
        seen: Set[str] = set()
        overlap: Set[str] = set()
        for props in self.writes_by_iteration.values():
            overlap |= props & seen
            seen |= props
        return overlap

    def has_flow_dependence(self) -> bool:
        return self.flow_dependences > 0


@dataclass
class DependenceReport:
    """Full output of one dependence-analysis run."""

    focus_loop_id: Optional[int]
    focus_loop_label: str
    warnings: List[DependenceWarning] = field(default_factory=list)
    recursion_warnings: List[RecursionWarning] = field(default_factory=list)
    patterns: Dict[Tuple[str, Any], AccessPattern] = field(default_factory=dict)
    iterations_observed: int = 0

    def problematic_names(self) -> List[str]:
        return sorted({w.name for w in self.warnings})

    def warnings_of_kind(self, kind: WarningKind) -> List[DependenceWarning]:
        return [w for w in self.warnings if w.kind == kind]

    def has_flow_dependences(self) -> bool:
        return any(w.kind == WarningKind.FLOW_READ for w in self.warnings)


class DependenceAnalyzer(Tracer):
    """Dependence-analysis tracer (JS-CERES mode 3).

    Every variable and property access reaches this tracer, so the
    per-event path is kept cheap:

    * **O(1) out-of-focus path.** ``_focus_open`` counts the open instances
      of the focus loop (of *any* loop when unfocused), maintained by
      :meth:`on_loop_enter` and :meth:`on_loop_exit` from the entry
      :meth:`LoopStack.pop_loop` actually removed.  An access is analysed
      only while it is non-zero, so the many accesses outside the focus
      loop cost one attribute test instead of a stack scan.
    * **Per-stack-state memos.** The stamp diff (triples plus the
      problematic verdict), the current snapshot and the focus iteration
      depend only on the loop stack (and the stamp), and the stack only
      changes on loop events.  They are cached until the next push,
      iteration or pop, which clears all of them.  Diffs are keyed by
      ``id(stamp)``; the cache entry holds the stamp itself, so a stamp
      replaced (and otherwise freed) within one stack state cannot hand
      its id to a different stamp while the entry lives.
    * Creation-site labels are memoised per site, warning records are
      built only for new keys, and pattern keys are tuples.

    The memos are per analyzer, so analyzers sharing one replay pass (and
    the stand-in objects whose creation stamps they all write) never see
    each other's cached state.
    """

    #: Mode 3 watches loops, creation sites, environments and every variable
    #: and property access — the paper's "very high overhead" configuration.
    EVENTS = EV_LOOP | EV_OBJECT | EV_ENV | EV_VAR | EV_PROP

    def __init__(
        self,
        registry: Optional[IndexRegistry] = None,
        focus_loop_id: Optional[int] = None,
    ) -> None:
        self.registry = registry
        self.focus_loop_id = focus_loop_id
        self.stack = LoopStack()
        self.warnings: Dict[Tuple, DependenceWarning] = {}
        self.recursion_loop_ids: Set[int] = set()
        self.patterns: Dict[Tuple[str, Any], AccessPattern] = {}
        self.iterations_observed = 0
        #: (id(object), property) -> stack snapshot of the last write
        self._last_write_stamp: Dict[Tuple[int, str], Stamp] = {}
        #: environment -> creation stamp (environments are not JSObjects).
        #: Keyed by the environment *itself*: live scopes hash by identity,
        #: while trace replay hands dense integer indexes — value-hashed, so
        #: no stand-in object per recorded scope needs to stay resident.
        #: Both stamp maps are evicted as nests close (:meth:`_evict_closed`),
        #: keeping resident memory bounded by the *open* nests.
        self._env_stamps: Dict[Any, Stamp] = {}
        #: names of variables that hold per-iteration aliases (informational)
        self._variable_names: Dict[int, str] = {}
        #: Strong references to every object observed at creation.  The
        #: analyzer keys patterns and write stamps by ``id()``; letting guest
        #: objects die mid-run would allow CPython to reuse their ids and
        #: silently merge unrelated targets — making reports depend on the
        #: process's allocation history.  Retention keeps ids unambiguous
        #: (and results deterministic) for the analyzer's lifetime.  Under
        #: replay it costs one pointer per object the replayer already holds.
        self._retained: List[Any] = []
        #: Open instances of the focus loop (of every loop when unfocused).
        self._focus_open = 0
        #: creation site -> registry label (only sites the registry knows)
        self._site_labels: Dict[int, str] = {}
        # Per-stack-state memos, cleared by _stack_changed().
        #: id(stamp) -> (stamp, triples, is_problematic)
        self._diffs: Dict[int, Tuple[Stamp, Tuple[CharTriple, ...], bool]] = {}
        self._snapshot: Optional[Stamp] = None
        self._focus_iter: Optional[int] = None

    # ------------------------------------------------------------------ labels
    def _label(self, loop_id: int) -> str:
        if self.registry is not None:
            return self.registry.loop_label(loop_id)
        return f"loop#{loop_id}"

    def _creation_label(self, obj: Any) -> str:
        if not isinstance(obj, JSObject):
            return ""
        site = obj.creation_site
        label = self._site_labels.get(site)
        if label is not None:
            return label
        if site >= 0 and self.registry is not None:
            for index in self.registry.indexes.values():
                creation = index.creation_sites.get(site)
                if creation is not None:
                    # Registries only append indexes, so the first index
                    # holding this site stays the first: the label is final.
                    self._site_labels[site] = creation.label
                    return creation.label
        if isinstance(obj, JSArray):
            return "array"
        return obj.class_name.lower()

    # -------------------------------------------------------------- loop hooks
    def _stack_changed(self) -> None:
        self._diffs.clear()
        self._snapshot = None
        self._focus_iter = None

    def on_loop_enter(self, interp, node) -> None:
        loop_id = node.node_id
        self.stack.push_loop(loop_id)
        self._stack_changed()
        if self._in_focus(loop_id):
            self._focus_open += 1
        if self.stack.recursion_warnings and loop_id in self.stack.recursion_warnings:
            self.recursion_loop_ids.add(loop_id)

    def on_loop_iteration(self, interp, node, iteration) -> None:
        self.stack.next_iteration(node.node_id)
        self._stack_changed()
        if self._in_focus(node.node_id):
            self.iterations_observed += 1

    def on_loop_exit(self, interp, node, trip_count) -> None:
        loop_id = node.node_id
        popped = self.stack.pop_loop(loop_id)
        self._stack_changed()
        if popped is not None and self._in_focus(loop_id):
            self._focus_open -= 1
        self._evict_closed(loop_id)

    def _evict_closed(self, loop_id: int) -> None:
        """Drop stamp state no later event can observe, after ``loop_id`` exits."""
        if not self.stack.entries:
            # Every held stamp now references dead loop instances: instance
            # counters are globally monotonic, so a stamp whose instances are
            # all closed diffs identically to the empty stamp, and the flow
            # check (same instance required) can never match it again.
            # Dropping the maps is therefore behavior-identical.
            self._last_write_stamp.clear()
            self._env_stamps.clear()
        elif (
            self.focus_loop_id is not None
            and loop_id == self.focus_loop_id
            and not self._focus_open
        ):
            # Focused analysis: flow detection only ever matches the current
            # focus-loop *instance*, which just closed — stamps from it are
            # dead.  (Env stamps stay: warning triples for still-open outer
            # loops depend on them.)
            self._last_write_stamp.clear()

    # --------------------------------------------------------- creation stamps
    def on_object_created(self, interp, obj, node) -> None:
        if isinstance(obj, JSObject):
            obj.creation_stamp = self._current_snapshot()
            self._retained.append(obj)

    def on_env_created(self, interp, env, kind) -> None:
        stamp = self._current_snapshot()
        if not stamp:
            # An empty stamp is what lookups default to — don't store it.
            return
        # The dict key is the environment itself (identity-keyed, so a
        # recycled id can never alias it); no extra retention needed.
        self._env_stamps[env] = stamp

    # ------------------------------------------------------------ access hooks
    def on_var_write(self, interp, name, env, value, node) -> None:
        if not self._focus_open:
            return
        _stamp, triples, problematic = self._diff(self._env_stamps.get(env, ()))
        self._record_pattern("variable", name, "", write=True, prop=name, identity=name)
        if problematic:
            self._add_warning(WarningKind.VAR_WRITE, name, triples, "", node)

    def on_prop_write(self, interp, obj, name, value, node) -> None:
        if not self._focus_open or not isinstance(obj, JSObject):
            return
        stamp: Stamp = obj.creation_stamp if obj.creation_stamp is not None else ()
        _stamp, triples, problematic = self._diff(stamp)
        # An object's creation label doubles as its target name.
        label = self._creation_label(obj)
        self._record_pattern("object", label, label, write=True, prop=name, identity=id(obj))
        if problematic:
            self._add_warning(WarningKind.PROP_WRITE, f"{label}.{name}", triples, label, node)
        # Remember the stack at this write so future reads can detect flow deps.
        self._last_write_stamp[(id(obj), name)] = self._current_snapshot()

    def on_prop_read(self, interp, obj, name, node) -> None:
        if not self._focus_open or not isinstance(obj, JSObject):
            return
        label = self._creation_label(obj)
        self._record_pattern("object", label, label, write=False, prop=name, identity=id(obj))
        write_stamp = self._last_write_stamp.get((id(obj), name))
        if write_stamp is None:
            return
        if not self._is_cross_iteration_write(write_stamp):
            # Last write happened before the loop (read-only input) or in the
            # current iteration (iteration-private) — no loop-carried flow.
            return
        _stamp, triples, _problematic = self._diff(write_stamp)
        pattern = self.patterns.get(("object", id(obj)))
        if pattern is not None:
            pattern.flow_dependences += 1
        self._add_warning(WarningKind.FLOW_READ, f"{label}.{name}", triples, label, node)

    def _is_cross_iteration_write(self, write_stamp: Stamp) -> bool:
        """True when the last write happened in the *same instance* of the
        relevant loop but in a *different iteration* — the paper's definition
        of a flow dependence (Section 3.3, access type c).

        With a focus loop only that loop is considered; otherwise any
        currently open loop qualifies.
        """
        stamp_by_loop = {entry.loop_id: entry for entry in write_stamp}
        for entry in self.stack.entries:
            if self.focus_loop_id is not None and entry.loop_id != self.focus_loop_id:
                continue
            written = stamp_by_loop.get(entry.loop_id)
            if written is not None and written.instance == entry.instance and written.iteration != entry.iteration:
                return True
        return False

    # ----------------------------------------------------------------- helpers
    def _in_focus(self, loop_id: int) -> bool:
        return self.focus_loop_id is None or loop_id == self.focus_loop_id

    def _current_snapshot(self) -> Stamp:
        """:meth:`LoopStack.snapshot`, shared until the stack next changes."""
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = self.stack.snapshot()
        return snapshot

    def _diff(self, stamp: Stamp) -> Tuple[Stamp, Tuple[CharTriple, ...], bool]:
        """``(stamp, diff_stamp(stack, stamp), is_problematic)``, memoised."""
        cached = self._diffs.get(id(stamp))
        if cached is None:
            triples = tuple(diff_stamp(self.stack.entries, stamp))
            cached = (stamp, triples, is_problematic(triples, self.focus_loop_id))
            self._diffs[id(stamp)] = cached
        return cached

    def _focus_iteration(self) -> int:
        """Current iteration number of the focus loop (or of the innermost loop)."""
        iteration = self._focus_iter
        if iteration is None:
            iteration = -1
            if self.focus_loop_id is not None:
                for entry in self.stack.entries:
                    if entry.loop_id == self.focus_loop_id:
                        iteration = entry.iteration
                        break
            elif self.stack.entries:
                iteration = self.stack.entries[-1].iteration
            self._focus_iter = iteration
        return iteration

    def _record_pattern(
        self,
        kind: str,
        name: str,
        creation_label: str,
        write: bool,
        prop: str,
        identity: Any,
    ) -> None:
        # Object patterns are tracked per runtime object (``identity`` is its
        # id: distinct objects allocated at the same site have independent
        # footprints); variables are tracked per name.
        iteration = self._focus_iteration()
        if iteration < 0:
            return
        key = (kind, identity)
        pattern = self.patterns.get(key)
        if pattern is None:
            pattern = AccessPattern(name=name, target_kind=kind, creation_site_label=creation_label)
            self.patterns[key] = pattern
        if write:
            pattern.record_write(iteration, prop)
        else:
            pattern.record_read(iteration, prop)

    def _add_warning(
        self,
        kind: WarningKind,
        name: str,
        triples: Tuple[CharTriple, ...],
        creation_label: str,
        node,
    ) -> None:
        existing = self.warnings.get((kind, name, triples))
        if existing is None:
            warning = DependenceWarning(
                kind=kind,
                name=name,
                triples=triples,
                focus_loop_id=self.focus_loop_id,
                creation_site_label=creation_label,
                first_line=getattr(node, "line", 0),
                sample_iterations=[self._focus_iteration()],
            )
            self.warnings[warning.key()] = warning
        else:
            existing.occurrences += 1
            if len(existing.sample_iterations) < 64:
                iteration = self._focus_iteration()
                if iteration not in existing.sample_iterations:
                    existing.sample_iterations.append(iteration)

    # ------------------------------------------------------------------ report
    def report(self) -> DependenceReport:
        focus_label = self._label(self.focus_loop_id) if self.focus_loop_id is not None else "(all loops)"
        recursion = [
            RecursionWarning(loop_id=loop_id, loop_label=self._label(loop_id))
            for loop_id in sorted(self.recursion_loop_ids)
        ]
        warnings = list(self.warnings.values())
        # The paper discards results for nests affected by recursion.
        if self.recursion_loop_ids:
            warnings = [
                w
                for w in warnings
                if not any(t.loop_id in self.recursion_loop_ids for t in w.triples)
            ]
        return DependenceReport(
            focus_loop_id=self.focus_loop_id,
            focus_loop_label=focus_label,
            warnings=warnings,
            recursion_warnings=recursion,
            patterns=dict(self.patterns),
            iterations_observed=self.iterations_observed,
        )

    def render_warnings(self) -> List[str]:
        return [w.render(self._label) for w in self.warnings.values()]
