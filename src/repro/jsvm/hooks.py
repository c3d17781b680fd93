"""Instrumentation hook bus for the mini-JavaScript interpreter.

JS-CERES (the paper's tool) instruments JavaScript *on the wire*, inserting
callbacks before/after loops, around iterations and on every variable or
property access.  In this reproduction the interpreter plays the role of the
instrumented engine: it emits the same events through a :class:`HookBus`, and
each JS-CERES instrumentation mode is implemented as a :class:`Tracer`
subscribed to the bus.

Keeping the three modes as separate tracers mirrors the staged design of the
paper (Section 3): lightweight profiling, loop profiling, and dependence
analysis are attached one at a time to keep instrumentation overhead from
biasing the measurements.

Event tiers
-----------

Every event class has a bit in a subscriber *mask* (``EV_*`` constants).  A
tracer declares the events it needs via :attr:`Tracer.EVENTS`; the bus ORs
the declarations of all attached tracers into :attr:`HookBus.mask` and pushes
the result into every bound interpreter (``interp.trace_mask``).  The
interpreter's compiled code consults that single integer once per construct,
so a run with zero tracers never builds event arguments or enters the bus at
all — the "minimal discernible impact" baseline of Sections 3.1/3.2.

Trace records (record-once / replay-many)
-----------------------------------------

The second half of this module decouples event *emission* from event
*analysis*: a :class:`TraceRecorder` is a tracer that captures every event of
a requested mask as one flat, typed tuple (interned node / name / object /
environment ids plus the virtual-clock stamp) into a versioned
:class:`Trace`, and a :class:`TraceReplayer` drives any ordinary
:class:`Tracer` from such a stream — producing payloads byte-identical to a
live run without re-executing the guest program.  Two invariants make this
sound, both established (and tested) in earlier PRs:

* tracers are **clock-neutral** — the virtual clock advances per interpreted
  operation regardless of the subscriber mask, so the stamps recorded under
  the union mask are exactly what any tracer subset would have observed live;
* per-event-class streams are **mask-independent** — enabling one event class
  never changes the content of another class's events, so a trace recorded
  with mask ``M`` replays any tracer whose mask is a subset of ``M``.

Schema version 1 deliberately elides guest *values* (the ``value`` argument
of write events): no shipped tracer consumes them, and eliding them keeps
records flat and serializable.  A recording may additionally *drop* whole
hook methods nobody will replay (e.g. ``on_var_read`` — every shipped tracer
subscribes to ``EV_VAR`` for the writes); the dropped method names are part
of the trace, and replay refuses a tracer that overrides one of them instead
of silently starving it.  Bump :data:`TRACE_SCHEMA_VERSION` if a future
revision changes record shapes or starts carrying values.

On disk, traces are written in one encoding only: the binary columnar
container of :mod:`repro.jsvm.tracecodec`
(:func:`~repro.jsvm.tracecodec.write_binary_trace`).  The v1 text formats —
a single JSON document (:meth:`Trace.from_json`) and chunked NDJSON
(:class:`TraceFileSource`), either optionally gzip-wrapped — are read-only:
:func:`open_trace_source` sniffs the leading bytes and opens every format
this package ever wrote.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import logging
import marshal
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

logger = logging.getLogger(__name__)

# -- event mask bits ----------------------------------------------------------
EV_LOOP = 1 << 0  #: loop enter / iteration / exit
EV_FUNCTION = 1 << 1  #: guest function enter / exit
EV_VAR = 1 << 2  #: variable reads and writes
EV_PROP = 1 << 3  #: property reads and writes
EV_OBJECT = 1 << 4  #: object / array / function instantiation
EV_ENV = 1 << 5  #: environment frame creation
EV_BRANCH = 1 << 6  #: dynamically evaluated predicates
EV_HOST = 1 << 7  #: DOM / canvas / timer host accesses
EV_STATEMENT = 1 << 8  #: statement-level sampling
EV_RECURSION = 1 << 9  #: loop-characterization recursion warnings

EV_ALL = (
    EV_LOOP
    | EV_FUNCTION
    | EV_VAR
    | EV_PROP
    | EV_OBJECT
    | EV_ENV
    | EV_BRANCH
    | EV_HOST
    | EV_STATEMENT
    | EV_RECURSION
)

#: hook-method name -> event bit, used to derive a mask for legacy tracers
#: that override methods without declaring :attr:`Tracer.EVENTS`.
_METHOD_EVENTS = {
    "on_loop_enter": EV_LOOP,
    "on_loop_iteration": EV_LOOP,
    "on_loop_exit": EV_LOOP,
    "on_function_enter": EV_FUNCTION,
    "on_function_exit": EV_FUNCTION,
    "on_env_created": EV_ENV,
    "on_var_write": EV_VAR,
    "on_var_read": EV_VAR,
    "on_object_created": EV_OBJECT,
    "on_prop_write": EV_PROP,
    "on_prop_read": EV_PROP,
    "on_branch": EV_BRANCH,
    "on_host_access": EV_HOST,
    "on_statement": EV_STATEMENT,
    "on_recursion_warning": EV_RECURSION,
}


class Tracer:
    """Base class with no-op implementations of every instrumentation event.

    Subclasses override only the events they need.  All callbacks receive the
    interpreter as the first argument so tracers can read the virtual clock or
    the current call stack without holding their own reference.

    Subclasses should declare the event classes they subscribe to in
    :attr:`EVENTS` (an OR of ``EV_*`` bits) so the bus can compute a minimal
    dispatch mask.  When ``EVENTS`` is ``None`` the bus falls back to
    inspecting which hook methods the subclass overrides.
    """

    #: OR of ``EV_*`` bits this tracer needs; ``None`` = derive from overrides.
    EVENTS: Optional[int] = None

    @classmethod
    def declared_events(cls) -> int:
        """The event mask this tracer subscribes to.

        The override-derived mask is always included, so a subclass that
        inherits an ``EVENTS`` declaration but overrides additional hook
        methods still receives those events.
        """
        mask = cls.EVENTS if cls.EVENTS is not None else 0
        for method_name, bit in _METHOD_EVENTS.items():
            if getattr(cls, method_name) is not getattr(Tracer, method_name):
                mask |= bit
        return mask

    def subscribed_events(self) -> int:
        """The mask *this instance* subscribes to.

        Defaults to the class-level :meth:`declared_events`;
        :class:`TraceRecorder` overrides it because its mask is a per-instance
        recording request, not a property of the class.
        """
        return type(self).declared_events()

    # -- loops ---------------------------------------------------------------
    def on_loop_enter(self, interp: Any, node: Any) -> None:
        """A syntactic loop was entered (a new runtime *instance* begins)."""

    def on_loop_iteration(self, interp: Any, node: Any, iteration: int) -> None:
        """A new iteration of the innermost open loop is about to run."""

    def on_loop_exit(self, interp: Any, node: Any, trip_count: int) -> None:
        """The loop instance finished (normally or via break/return/throw)."""

    # -- functions -----------------------------------------------------------
    def on_function_enter(self, interp: Any, func: Any, call_node: Any) -> None:
        """A guest function call started."""

    def on_function_exit(self, interp: Any, func: Any) -> None:
        """A guest function call returned (or unwound)."""

    # -- environments and variables -------------------------------------------
    def on_env_created(self, interp: Any, env: Any, kind: str) -> None:
        """A new environment frame was created (``kind`` is 'function'/'block')."""

    def on_var_write(self, interp: Any, name: str, env: Any, value: Any, node: Any) -> None:
        """A variable binding was written."""

    def on_var_read(self, interp: Any, name: str, env: Any, node: Any) -> None:
        """A variable binding was read."""

    # -- objects and properties ------------------------------------------------
    def on_object_created(self, interp: Any, obj: Any, node: Any) -> None:
        """A guest object/array/function was instantiated."""

    def on_prop_write(self, interp: Any, obj: Any, name: str, value: Any, node: Any) -> None:
        """A property of a guest object was written."""

    def on_prop_read(self, interp: Any, obj: Any, name: str, node: Any) -> None:
        """A property of a guest object was read."""

    # -- control flow / host interaction ---------------------------------------
    def on_branch(self, interp: Any, node: Any, taken: bool) -> None:
        """A dynamically evaluated predicate selected a branch."""

    def on_host_access(self, interp: Any, category: str, detail: str, node: Any) -> None:
        """Guest code touched a host subsystem (``dom``, ``canvas``, ``timer``...)."""

    def on_statement(self, interp: Any, node: Any) -> None:
        """A statement is about to execute (used by sampling profilers)."""

    def on_recursion_warning(self, interp: Any, node: Any) -> None:
        """Recursive calls made the loop-characterization stack grow (Section 3.3)."""


class HookBus:
    """Dispatches interpreter events to the attached tracers.

    The bus maintains a per-event subscriber :attr:`mask` (OR of the attached
    tracers' declared events) plus the boolean ``wants_*`` flags derived from
    it.  Interpreters :meth:`bind` themselves to the bus so that attaching or
    detaching a tracer immediately updates their cached ``trace_mask`` — the
    single integer the compiled execution core consults per construct.
    """

    def __init__(self) -> None:
        self.tracers: List[Tracer] = []
        self.mask = 0
        #: Weak references to bound interpreters: a bus outliving its
        #: interpreters (e.g. one bus reused across many sessions) must not
        #: keep their guest heaps alive.
        self._bound: List[Any] = []
        self._refresh_flags()

    def bind(self, interp: Any) -> None:
        """Register an interpreter whose ``trace_mask`` mirrors this bus."""
        import weakref

        self._bound = [ref for ref in self._bound if ref() is not None and ref() is not interp]
        self._bound.append(weakref.ref(interp))
        interp.trace_mask = self.mask

    def unbind(self, interp: Any) -> None:
        self._bound = [ref for ref in self._bound if ref() is not None and ref() is not interp]

    def attach(self, tracer: Tracer) -> Tracer:
        self.tracers.append(tracer)
        self._refresh_flags()
        return tracer

    def detach(self, tracer: Tracer) -> None:
        if tracer in self.tracers:
            self.tracers.remove(tracer)
        self._refresh_flags()

    def clear(self) -> None:
        self.tracers.clear()
        self._refresh_flags()

    def _refresh_flags(self) -> None:
        mask = 0
        for tracer in self.tracers:
            mask |= tracer.subscribed_events()
        self.mask = mask
        self.wants_loops = bool(mask & EV_LOOP)
        self.wants_functions = bool(mask & EV_FUNCTION)
        self.wants_vars = bool(mask & EV_VAR)
        self.wants_props = bool(mask & EV_PROP)
        self.wants_objects = bool(mask & EV_OBJECT)
        self.wants_envs = bool(mask & EV_ENV)
        self.wants_branches = bool(mask & EV_BRANCH)
        self.wants_host = bool(mask & EV_HOST)
        self.wants_statements = bool(mask & EV_STATEMENT)
        self.any_tracer = bool(self.tracers)
        alive = []
        for ref in self._bound:
            interp = ref()
            if interp is not None:
                interp.trace_mask = mask
                alive.append(ref)
        self._bound = alive

    # -- dispatch helpers (thin wrappers; hot paths check the mask first) ----
    def loop_enter(self, interp, node) -> None:
        for tracer in self.tracers:
            tracer.on_loop_enter(interp, node)

    def loop_iteration(self, interp, node, iteration) -> None:
        for tracer in self.tracers:
            tracer.on_loop_iteration(interp, node, iteration)

    def loop_exit(self, interp, node, trip_count) -> None:
        for tracer in self.tracers:
            tracer.on_loop_exit(interp, node, trip_count)

    def function_enter(self, interp, func, call_node) -> None:
        for tracer in self.tracers:
            tracer.on_function_enter(interp, func, call_node)

    def function_exit(self, interp, func) -> None:
        for tracer in self.tracers:
            tracer.on_function_exit(interp, func)

    def env_created(self, interp, env, kind) -> None:
        for tracer in self.tracers:
            tracer.on_env_created(interp, env, kind)

    def var_write(self, interp, name, env, value, node) -> None:
        for tracer in self.tracers:
            tracer.on_var_write(interp, name, env, value, node)

    def var_read(self, interp, name, env, node) -> None:
        for tracer in self.tracers:
            tracer.on_var_read(interp, name, env, node)

    def object_created(self, interp, obj, node) -> None:
        for tracer in self.tracers:
            tracer.on_object_created(interp, obj, node)

    def prop_write(self, interp, obj, name, value, node) -> None:
        for tracer in self.tracers:
            tracer.on_prop_write(interp, obj, name, value, node)

    def prop_read(self, interp, obj, name, node) -> None:
        for tracer in self.tracers:
            tracer.on_prop_read(interp, obj, name, node)

    def branch(self, interp, node, taken) -> None:
        for tracer in self.tracers:
            tracer.on_branch(interp, node, taken)

    def host_access(self, interp, category, detail, node) -> None:
        for tracer in self.tracers:
            tracer.on_host_access(interp, category, detail, node)

    def statement(self, interp, node) -> None:
        for tracer in self.tracers:
            tracer.on_statement(interp, node)

    def recursion_warning(self, interp, node) -> None:
        for tracer in self.tracers:
            tracer.on_recursion_warning(interp, node)


# ===========================================================================
# Trace-record schema (version 1)
# ===========================================================================

#: Version stamp of the trace-record schema; bump on any change to record
#: shapes, intern-table layouts or serialization.
TRACE_SCHEMA_VERSION = 1

#: Magic ``format`` marker of v1 single-document JSON trace files (read-only).
TRACE_FORMAT = "repro-trace"

#: Magic ``format`` marker of v1 chunked (streaming) trace files (read-only):
#: an NDJSON header line, one line per bounded chunk of events (with
#: intern-table *deltas*), and a trailing footer line.  A chunked file replays
#: in O(chunk) resident memory; :meth:`Trace.load` still assembles it whole
#: on request.
TRACE_CHUNK_FORMAT = "repro-trace-chunks"

#: Override for the default events-per-chunk bound of chunked trace files.
TRACE_CHUNK_EVENTS_ENV_VAR = "REPRO_TRACE_CHUNK_EVENTS"

#: Default events-per-chunk bound: large enough that chunk framing is noise
#: (<1% of records), small enough that a chunk is a few MB resident.
DEFAULT_CHUNK_EVENTS = 65536

#: Env values already warned about (one warning per bad value per process —
#: these getters run on every write/stream and must not spam).
_warned_env_values = set()


def _warn_rejected_env(env_var: str, raw: str, fallback) -> None:
    key = (env_var, raw)
    if key in _warned_env_values:
        return
    _warned_env_values.add(key)
    logger.warning(
        "ignoring invalid %s=%r; using the default %r", env_var, raw, fallback
    )


def stream_chunk_events() -> int:
    """The configured events-per-chunk bound for chunked trace files.

    An unset/empty env var silently picks the default; a *present but
    invalid* value (unparseable, or not a positive integer) is rejected with
    a one-time warning naming the value, then falls back to the default.
    """
    raw = os.environ.get(TRACE_CHUNK_EVENTS_ENV_VAR, "")
    if not raw:
        return DEFAULT_CHUNK_EVENTS
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        _warn_rejected_env(TRACE_CHUNK_EVENTS_ENV_VAR, raw, DEFAULT_CHUNK_EVENTS)
        return DEFAULT_CHUNK_EVENTS
    return value


# -- record opcodes (first element of every flat event tuple) ---------------
TR_LOOP_ENTER = 0  #: (op, clock_ms, node)
TR_LOOP_ITER = 1  #: (op, clock_ms, node, iteration)
TR_LOOP_EXIT = 2  #: (op, clock_ms, node, trip_count)
TR_FUNC_ENTER = 3  #: (op, clock_ms, obj, call_node)
TR_FUNC_EXIT = 4  #: (op, clock_ms, obj)
TR_ENV_CREATED = 5  #: (op, clock_ms, env, kind_str)
TR_VAR_WRITE = 6  #: (op, clock_ms, name_str, env, node)
TR_VAR_READ = 7  #: (op, clock_ms, name_str, env, node)
TR_OBJ_CREATED = 8  #: (op, clock_ms, obj, node)
TR_PROP_WRITE = 9  #: (op, clock_ms, obj, name_str, node)
TR_PROP_READ = 10  #: (op, clock_ms, obj, name_str, node)
TR_BRANCH = 11  #: (op, clock_ms, node, taken)
TR_HOST = 12  #: (op, clock_ms, category_str, detail_str, node)
TR_STATEMENT = 13  #: (op, clock_ms, node)
TR_RECURSION = 14  #: (op, clock_ms, node)

#: opcode -> the ``EV_*`` class it belongs to.
TRACE_OP_EVENTS = {
    TR_LOOP_ENTER: EV_LOOP,
    TR_LOOP_ITER: EV_LOOP,
    TR_LOOP_EXIT: EV_LOOP,
    TR_FUNC_ENTER: EV_FUNCTION,
    TR_FUNC_EXIT: EV_FUNCTION,
    TR_ENV_CREATED: EV_ENV,
    TR_VAR_WRITE: EV_VAR,
    TR_VAR_READ: EV_VAR,
    TR_OBJ_CREATED: EV_OBJECT,
    TR_PROP_WRITE: EV_PROP,
    TR_PROP_READ: EV_PROP,
    TR_BRANCH: EV_BRANCH,
    TR_HOST: EV_HOST,
    TR_STATEMENT: EV_STATEMENT,
    TR_RECURSION: EV_RECURSION,
}

#: opcode -> short human name (``trace info`` and diagnostics).
TRACE_OP_NAMES = {
    TR_LOOP_ENTER: "loop_enter",
    TR_LOOP_ITER: "loop_iteration",
    TR_LOOP_EXIT: "loop_exit",
    TR_FUNC_ENTER: "function_enter",
    TR_FUNC_EXIT: "function_exit",
    TR_ENV_CREATED: "env_created",
    TR_VAR_WRITE: "var_write",
    TR_VAR_READ: "var_read",
    TR_OBJ_CREATED: "object_created",
    TR_PROP_WRITE: "prop_write",
    TR_PROP_READ: "prop_read",
    TR_BRANCH: "branch",
    TR_HOST: "host_access",
    TR_STATEMENT: "statement",
    TR_RECURSION: "recursion_warning",
}

#: ``EV_*`` bit -> name, for rendering masks.
EVENT_BIT_NAMES = {
    EV_LOOP: "loop",
    EV_FUNCTION: "function",
    EV_VAR: "var",
    EV_PROP: "prop",
    EV_OBJECT: "object",
    EV_ENV: "env",
    EV_BRANCH: "branch",
    EV_HOST: "host",
    EV_STATEMENT: "statement",
    EV_RECURSION: "recursion",
}


def describe_mask(mask: int) -> str:
    """Render an event mask as ``loop|var|prop`` (``-`` for the empty mask)."""
    names = [name for bit, name in EVENT_BIT_NAMES.items() if mask & bit]
    return "|".join(names) if names else "-"


#: opcode -> the hook-method name whose records it carries.
TRACE_OP_METHODS = {
    TR_LOOP_ENTER: "on_loop_enter",
    TR_LOOP_ITER: "on_loop_iteration",
    TR_LOOP_EXIT: "on_loop_exit",
    TR_FUNC_ENTER: "on_function_enter",
    TR_FUNC_EXIT: "on_function_exit",
    TR_ENV_CREATED: "on_env_created",
    TR_VAR_WRITE: "on_var_write",
    TR_VAR_READ: "on_var_read",
    TR_OBJ_CREATED: "on_object_created",
    TR_PROP_WRITE: "on_prop_write",
    TR_PROP_READ: "on_prop_read",
    TR_BRANCH: "on_branch",
    TR_HOST: "on_host_access",
    TR_STATEMENT: "on_statement",
    TR_RECURSION: "on_recursion_warning",
}


def unhandled_hook_methods(tracer_classes) -> tuple:
    """Hook-method names that none of ``tracer_classes`` overrides.

    A recording destined only for these classes can drop those methods'
    records (``TraceRecorder(drop_methods=...)``): the replayer would have
    dispatched them to base-class no-ops anyway, and the drop is declared in
    the trace so replaying any *other* tracer stays safe.
    """
    dropped = []
    for method_name in _METHOD_EVENTS:
        if not any(
            getattr(cls, method_name) is not getattr(Tracer, method_name)
            for cls in tracer_classes
        ):
            dropped.append(method_name)
    return tuple(sorted(dropped))


# -- object-intern kinds -----------------------------------------------------
_OBJ_PLAIN = 0  #: a guest ``JSObject`` (including subclass instances)
_OBJ_ARRAY = 1  #: a guest ``JSArray``
_OBJ_CALLABLE = 2  #: a guest function (``JSFunction`` / ``NativeFunction``)
_OBJ_OPAQUE = 3  #: defensive: a non-JSObject event payload

#: Events per ``marshal`` slice in :meth:`Trace.digest`: bounds the bytes
#: one slice serializes to on traces of millions of events.  Part of the
#: digest definition — changing it changes every digest.
_DIGEST_SLICE_EVENTS = 1 << 16


class TraceError(Exception):
    """Base class for trace-layer failures."""


class TraceFormatError(TraceError):
    """The serialized trace is truncated, corrupt, or not a trace at all."""


class TraceVersionError(TraceError):
    """The trace was recorded with an unsupported schema version."""


class TraceMaskError(TraceError):
    """The trace's recorded mask does not cover the requested tracers."""


class TraceMismatchError(TraceError):
    """The trace belongs to a different workload (fingerprint mismatch)."""


@dataclass
class Trace:
    """One recorded event stream plus its intern tables and provenance.

    Everything in here is JSON-native (ints, floats, strings, flat lists), so
    a trace can be pickled to a fan-out worker, written to disk
    (:func:`~repro.jsvm.tracecodec.write_binary_trace`), or shipped to
    another machine, and replayed there without the guest program.
    """

    #: Reported by ``trace info`` for legacy single-JSON files (unannotated:
    #: a class attribute, not a dataclass field).
    encoding = "json"

    mask: int
    workload: str = ""
    fingerprint: str = ""
    ms_per_op: float = 0.02
    start_ms: float = 0.0
    end_ms: float = 0.0
    version: int = TRACE_SCHEMA_VERSION
    #: Interned strings (names, property keys, env kinds, host categories).
    strings: List[str] = field(default_factory=list)
    #: Interned AST nodes: ``[node_id, line, kind_string_index]`` per entry.
    nodes: List[List[int]] = field(default_factory=list)
    #: Interned guest objects: ``[kind, class_name_index, creation_site,
    #: name_index]`` per entry (``name_index`` is -1 for non-callables).
    objects: List[List[int]] = field(default_factory=list)
    #: Number of distinct environment frames observed (environments carry no
    #: replay-relevant state beyond identity).
    env_count: int = 0
    #: Hook-method names whose records were deliberately not captured (the
    #: recording was destined for tracers that never override them).  Replay
    #: refuses a tracer overriding any of these.
    dropped: tuple = ()
    #: The flat event records, in emission order.
    events: List[tuple] = field(default_factory=list)

    # ------------------------------------------------------------- identity
    def digest(self) -> str:
        """Stable content hash of the full trace (schema + tables + events).

        A SHA-256 over ``marshal`` version 2 of the header fields, the string
        table, the node/object tables and the event records, the latter in
        fixed slices of :data:`_DIGEST_SLICE_EVENTS`.  Marshal writes a
        string as its length-prefixed UTF-8 and keeps ``1``/``True``/``1.0``
        and ``0.0``/``-0.0`` apart.  Version 2 writes no back-references, so
        equal recordings hash equal regardless of object sharing; lists are
        normalized to tuples first because marshal gives ``[`` and ``(``
        different bytes.

        Traces are immutable once recorded, so the hash (an O(events) pass)
        is computed once and cached.  A trace loaded from a file adopts the
        digest its header carries (see :meth:`legacy_digest` for files whose
        header holds the older identity).
        """
        cached = getattr(self, "_digest_cache", None)
        if cached is not None:
            return cached
        hasher = hashlib.sha256()
        header = (
            self.version,
            self.mask,
            self.workload,
            self.fingerprint,
            self.ms_per_op,
            self.start_ms,
            self.end_ms,
            self.env_count,
            tuple(self.dropped),
        )
        hasher.update(marshal.dumps(header, 2))
        hasher.update(marshal.dumps(tuple(self.strings), 2))
        hasher.update(marshal.dumps(tuple(map(tuple, self.nodes)), 2))
        hasher.update(marshal.dumps(tuple(map(tuple, self.objects)), 2))
        events = self.events
        for start in range(0, len(events), _DIGEST_SLICE_EVENTS):
            batch = events[start : start + _DIGEST_SLICE_EVENTS]
            hasher.update(marshal.dumps(tuple(map(tuple, batch)), 2))
        self._digest_cache = hasher.hexdigest()
        return self._digest_cache

    def legacy_digest(self) -> str:
        """The ``repr``-join content hash that v1 files and container-2
        segments carry in their headers (read-only: verifies those loads)."""
        hasher = hashlib.sha256()
        hasher.update(
            f"{self.version}\x00{self.mask}\x00{self.workload}\x00{self.fingerprint}"
            f"\x00{self.ms_per_op!r}\x00{self.start_ms!r}\x00{self.end_ms!r}"
            f"\x00{self.env_count}\x00{','.join(self.dropped)}".encode("utf-8")
        )
        for string in self.strings:
            hasher.update(b"\x00s")
            hasher.update(string.encode("utf-8"))
        for table in (self.nodes, self.objects):
            for entry in table:
                hasher.update(("\x00t" + ",".join(map(repr, entry))).encode("utf-8"))
        for record in self.events:
            hasher.update(("\x00e" + ",".join(map(repr, record))).encode("utf-8"))
        return hasher.hexdigest()

    def event_counts(self) -> Dict[str, int]:
        """Record count per event name (``trace info``)."""
        counts: Dict[str, int] = {}
        for record in self.events:
            name = TRACE_OP_NAMES.get(record[0], f"op{record[0]}")
            counts[name] = counts.get(name, 0) + 1
        return counts

    def covers(self, required_mask: int) -> bool:
        """True when this trace can replay tracers needing ``required_mask``."""
        return not (required_mask & ~self.mask)

    # -------------------------------------------------------- serialization
    @classmethod
    def from_dict(cls, data: Any) -> "Trace":
        if not isinstance(data, dict) or data.get("format") != TRACE_FORMAT:
            raise TraceFormatError(
                "not a repro trace (missing the 'format': 'repro-trace' marker)"
            )
        version = data.get("version")
        if version != TRACE_SCHEMA_VERSION:
            raise TraceVersionError(
                f"unsupported trace schema version {version!r} "
                f"(this build reads version {TRACE_SCHEMA_VERSION})"
            )
        try:
            trace = cls(
                mask=int(data["mask"]),
                workload=str(data["workload"]),
                fingerprint=str(data["fingerprint"]),
                ms_per_op=float(data["ms_per_op"]),
                start_ms=float(data["start_ms"]),
                end_ms=float(data["end_ms"]),
                env_count=int(data["env_count"]),
                dropped=tuple(data.get("dropped", ())),
                strings=list(data["strings"]),
                nodes=[list(entry) for entry in data["nodes"]],
                objects=[list(entry) for entry in data["objects"]],
                events=[tuple(record) for record in data["events"]],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"malformed trace payload: {exc}") from exc
        trace.validate_events()
        return trace

    #: opcode -> (arity, positions of node indexes (may be -1), positions of
    #: object indexes, positions of env indexes, positions of string indexes).
    _RECORD_LAYOUT = {
        TR_LOOP_ENTER: (3, (2,), (), (), ()),
        TR_LOOP_ITER: (4, (2,), (), (), ()),
        TR_LOOP_EXIT: (4, (2,), (), (), ()),
        TR_FUNC_ENTER: (4, (3,), (2,), (), ()),
        TR_FUNC_EXIT: (3, (), (2,), (), ()),
        TR_ENV_CREATED: (4, (), (), (2,), (3,)),
        TR_VAR_WRITE: (5, (4,), (), (3,), (2,)),
        TR_VAR_READ: (5, (4,), (), (3,), (2,)),
        TR_OBJ_CREATED: (4, (3,), (2,), (), ()),
        TR_PROP_WRITE: (5, (4,), (2,), (), (3,)),
        TR_PROP_READ: (5, (4,), (2,), (), (3,)),
        TR_BRANCH: (4, (2,), (), (), ()),
        TR_HOST: (5, (4,), (), (), (2, 3)),
        TR_STATEMENT: (3, (2,), (), (), ()),
        TR_RECURSION: (3, (2,), (), (), ()),
    }

    def validate_events(self) -> None:
        """Check every record's shape and intern-table indexes.

        A corrupt or hand-edited trace must fail loudly here — out-of-range
        indexes would otherwise surface as bare ``IndexError`` mid-replay,
        and *negative* indexes would silently alias the wrong interned entry
        through Python's negative indexing.
        """
        _validate_records(
            self.events,
            len(self.strings),
            len(self.nodes),
            len(self.objects),
            self.env_count,
        )

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise TraceFormatError(f"trace file is truncated or corrupt: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Materialize a trace from ``path`` — binary, or v1 single-JSON or
        chunked NDJSON."""
        source = open_trace_source(path)
        if isinstance(source, cls):
            return source
        return source.load()

    # ------------------------------------------------------------- streaming
    def chunks(self) -> Iterator["TraceChunk"]:
        """The chunk-iteration protocol over an in-memory trace.

        The tables and the event list are resident already, so the whole
        trace is one chunk: :class:`TraceReplayer` walks a resident trace
        through the same loop as a chunked file source.
        """
        yield TraceChunk(
            0, self.strings, self.nodes, self.objects, self.env_count, self.events
        )


def _validate_records(
    events,
    string_count: int,
    node_count: int,
    object_count: int,
    env_count: int,
) -> None:
    """Validate record shapes and intern indexes against table sizes.

    Shared by :meth:`Trace.validate_events` (whole trace at once) and the
    chunked readers (per chunk, against *cumulative* table sizes — an event
    may only reference interned entries already streamed).
    """
    layouts = Trace._RECORD_LAYOUT
    for record in events:
        layout = layouts.get(record[0]) if record else None
        if layout is None or len(record) != layout[0]:
            raise TraceFormatError(f"malformed trace record: {record!r}")
        _arity, node_at, obj_at, env_at, string_at = layout
        try:
            for position in node_at:
                index = record[position]
                if not -1 <= index < node_count:
                    raise TraceFormatError(
                        f"node index {index} out of range in record {record!r}"
                    )
            for position in obj_at:
                index = record[position]
                if not 0 <= index < object_count:
                    raise TraceFormatError(
                        f"object index {index} out of range in record {record!r}"
                    )
            for position in env_at:
                index = record[position]
                if not 0 <= index < env_count:
                    raise TraceFormatError(
                        f"environment index {index} out of range in record {record!r}"
                    )
            for position in string_at:
                index = record[position]
                if not 0 <= index < string_count:
                    raise TraceFormatError(
                        f"string index {index} out of range in record {record!r}"
                    )
        except TypeError as exc:
            raise TraceFormatError(f"malformed trace record: {record!r}") from exc


class TraceChunk:
    """One bounded slice of a trace: intern-table deltas plus event records.

    A chunk's events may only reference interned entries carried by this or
    an *earlier* chunk — that is the invariant that makes chunk-at-a-time
    replay possible without the full tables resident.
    """

    __slots__ = ("index", "strings", "nodes", "objects", "env_delta", "events")

    def __init__(self, index, strings, nodes, objects, env_delta, events) -> None:
        self.index = index
        self.strings = strings
        self.nodes = nodes
        self.objects = objects
        self.env_delta = env_delta
        self.events = events


def _open_trace_text(path: str):
    """Open a v1 text trace for reading (gzip-wrapped when it ends in .gz)."""
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return io.open(path, "r", encoding="utf-8")


class TraceFileSource:
    """A pull-based handle on a chunked trace file: header resident, events
    streamed.

    Exposes the same provenance surface as :class:`Trace` (``mask``,
    ``workload``, ``fingerprint``, clock bounds, ``dropped``, ``covers``,
    ``digest``) from the header alone, so replay admission checks and result
    provenance never need the event stream.  :meth:`chunks` is re-iterable —
    every call reopens the file — and validates sequence numbers, intern
    deltas and per-record indexes as it goes; any truncation or corruption
    raises :class:`TraceFormatError`, never a partial stream.
    """

    #: Reported by ``trace info``: the v1 chunked-NDJSON text encoding.
    encoding = "json-chunks"

    def __init__(self, path: str, header: Any) -> None:
        self.path = str(path)
        if not isinstance(header, dict) or header.get("format") != TRACE_CHUNK_FORMAT:
            raise TraceFormatError(
                "not a chunked repro trace (missing the "
                f"'format': {TRACE_CHUNK_FORMAT!r} marker)"
            )
        version = header.get("version")
        if version != TRACE_SCHEMA_VERSION:
            raise TraceVersionError(
                f"unsupported trace schema version {version!r} "
                f"(this build reads version {TRACE_SCHEMA_VERSION})"
            )
        try:
            self.version = int(version)
            self.mask = int(header["mask"])
            self.workload = str(header["workload"])
            self.fingerprint = str(header["fingerprint"])
            self.ms_per_op = float(header["ms_per_op"])
            self.start_ms = float(header["start_ms"])
            self.end_ms = float(header["end_ms"])
            self.env_count = int(header["env_count"])
            self.dropped = tuple(header.get("dropped", ()))
            self.event_count = int(header["events"])
            self.chunk_events = int(header["chunk_events"])
            self._digest = str(header["digest"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"malformed chunked trace header: {exc}") from exc

    # ------------------------------------------------------------- identity
    def covers(self, required_mask: int) -> bool:
        return not (required_mask & ~self.mask)

    def digest(self) -> str:
        """The full-content digest recorded in the header."""
        return self._digest

    def chunk_count(self) -> int:
        """Number of chunks in the file (one validating streaming pass —
        the NDJSON header does not carry the count)."""
        return sum(1 for _ in self.chunks())

    # ------------------------------------------------------------- streaming
    def chunks(self) -> Iterator[TraceChunk]:
        """Stream validated chunks from the file; O(chunk) resident."""
        try:
            with _open_trace_text(self.path) as handle:
                if not handle.readline():
                    raise TraceFormatError(f"chunked trace {self.path!r} is empty")
                seen_strings = seen_nodes = seen_objects = seen_envs = 0
                next_index = 0
                total_events = 0
                while True:
                    line = handle.readline()
                    if not line:
                        raise TraceFormatError(
                            f"chunked trace {self.path!r} is truncated "
                            "(missing footer)"
                        )
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        data = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise TraceFormatError(
                            f"chunked trace {self.path!r} is truncated or "
                            f"corrupt: {exc}"
                        ) from exc
                    if not isinstance(data, dict):
                        raise TraceFormatError(
                            f"malformed trace chunk line: {line[:80]!r}"
                        )
                    if data.get("end"):
                        if (
                            data.get("chunks") != next_index
                            or data.get("events") != total_events
                        ):
                            raise TraceFormatError(
                                f"chunked trace {self.path!r} footer does not "
                                "match the streamed content"
                            )
                        if total_events != self.event_count:
                            raise TraceFormatError(
                                f"chunked trace {self.path!r} header promises "
                                f"{self.event_count} events but the stream "
                                f"holds {total_events}"
                            )
                        if seen_envs != self.env_count:
                            raise TraceFormatError(
                                f"chunked trace {self.path!r} environment "
                                "deltas do not sum to the header count"
                            )
                        return
                    chunk = self._decode_chunk(
                        data,
                        next_index,
                        seen_strings,
                        seen_nodes,
                        seen_objects,
                        seen_envs,
                    )
                    seen_strings += len(chunk.strings)
                    seen_nodes += len(chunk.nodes)
                    seen_objects += len(chunk.objects)
                    seen_envs += chunk.env_delta
                    total_events += len(chunk.events)
                    yield chunk
                    next_index += 1
        except OSError as exc:
            raise TraceFormatError(
                f"cannot read trace file {self.path!r}: {exc}"
            ) from exc
        except (EOFError, zlib.error, UnicodeDecodeError) as exc:
            raise TraceFormatError(
                f"chunked trace {self.path!r} is truncated or corrupt: {exc}"
            ) from exc

    def _decode_chunk(
        self,
        data: dict,
        expect_index: int,
        seen_strings: int,
        seen_nodes: int,
        seen_objects: int,
        seen_envs: int,
    ) -> TraceChunk:
        try:
            index = int(data["chunk"])
            strings = [str(s) for s in data.get("strings", ())]
            nodes = [list(e) for e in data.get("nodes", ())]
            objects = [list(e) for e in data.get("objects", ())]
            env_delta = int(data.get("envs", 0))
            events = [tuple(r) for r in data.get("events", ())]
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"malformed trace chunk: {exc}") from exc
        if index != expect_index:
            raise TraceFormatError(
                f"chunk sequence broken in {self.path!r}: expected chunk "
                f"{expect_index}, got {index!r}"
            )
        if env_delta < 0:
            raise TraceFormatError("negative environment delta in trace chunk")
        string_count = seen_strings + len(strings)
        node_count = seen_nodes + len(nodes)
        object_count = seen_objects + len(objects)
        env_count = seen_envs + env_delta
        try:
            for entry in nodes:
                if len(entry) != 3 or not 0 <= entry[2] < string_count:
                    raise TraceFormatError(f"malformed node entry: {entry!r}")
            for entry in objects:
                if (
                    len(entry) != 4
                    or not 0 <= entry[1] < string_count
                    or not -1 <= entry[3] < string_count
                ):
                    raise TraceFormatError(f"malformed object entry: {entry!r}")
        except TypeError as exc:
            raise TraceFormatError(f"malformed trace intern table: {exc}") from exc
        _validate_records(events, string_count, node_count, object_count, env_count)
        return TraceChunk(index, strings, nodes, objects, env_delta, events)

    # ------------------------------------------------------------ whole-file
    def verify(self) -> "TraceFileSource":
        """Scan every chunk (bounded memory), raising on any corruption."""
        for _ in self.chunks():
            pass
        return self

    def load(self) -> Trace:
        """Materialize the full :class:`Trace`, checking the header digest
        (the :meth:`Trace.legacy_digest` identity) and adopting it."""
        trace = Trace(
            mask=self.mask,
            workload=self.workload,
            fingerprint=self.fingerprint,
            ms_per_op=self.ms_per_op,
            start_ms=self.start_ms,
            end_ms=self.end_ms,
            version=self.version,
            env_count=self.env_count,
            dropped=self.dropped,
        )
        for chunk in self.chunks():
            trace.strings.extend(chunk.strings)
            trace.nodes.extend(chunk.nodes)
            trace.objects.extend(chunk.objects)
            trace.events.extend(chunk.events)
        if trace.legacy_digest() != self._digest:
            raise TraceFormatError(
                f"chunked trace {self.path!r} content does not match its "
                "header digest"
            )
        trace._digest_cache = self._digest
        return trace

    def event_counts(self) -> Dict[str, int]:
        """Record count per event name, streamed (``trace info``)."""
        counts: Dict[str, int] = {}
        for chunk in self.chunks():
            for record in chunk.events:
                name = TRACE_OP_NAMES.get(record[0], f"op{record[0]}")
                counts[name] = counts.get(name, 0) + 1
        return counts

    def table_counts(self) -> Dict[str, int]:
        """Intern-table sizes, accumulated in one streaming pass."""
        strings = nodes = objects = 0
        for chunk in self.chunks():
            strings += len(chunk.strings)
            nodes += len(chunk.nodes)
            objects += len(chunk.objects)
        return {"strings": strings, "nodes": nodes, "objects": objects}


def open_trace_source(path: str):
    """Open a trace file as the cheapest faithful handle.

    The format is sniffed from the leading bytes, never from the file name:
    schema-v2 binary files (optionally gzip-wrapped) return an mmap-backed
    :class:`~repro.jsvm.tracecodec.BinaryTraceSource`, legacy single-JSON
    files materialize a full :class:`Trace`, and chunked NDJSON files return
    a :class:`TraceFileSource` whose events stream on demand.  All satisfy
    the replay-source protocol (:class:`TraceReplayer` accepts any of them).
    """
    path = str(path)
    try:
        with io.open(path, "rb") as raw_handle:
            head = raw_handle.read(8)
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file {path!r}: {exc}") from exc
    from .tracecodec import BINARY_MAGIC, BinaryTraceSource

    if head == BINARY_MAGIC:
        return BinaryTraceSource(path)
    if head[:2] == b"\x1f\x8b":
        # Gzip container: peek at the decompressed head — a gzip-wrapped
        # binary trace must inflate whole (offsets address the logical
        # stream), text formats fall through to the line reader below.
        try:
            with gzip.open(path, "rb") as gz_handle:
                inner_head = gz_handle.read(8)
                if inner_head == BINARY_MAGIC:
                    payload = inner_head + gz_handle.read()
                    return BinaryTraceSource.from_bytes(payload, path=path)
        except OSError as exc:
            raise TraceFormatError(
                f"cannot read trace file {path!r}: {exc}"
            ) from exc
        except (EOFError, zlib.error) as exc:
            raise TraceFormatError(
                f"trace file {path!r} is truncated or corrupt: {exc}"
            ) from exc
    try:
        with _open_trace_text(path) as handle:
            first = handle.readline()
            try:
                data = json.loads(first)
            except json.JSONDecodeError:
                data = None
            if isinstance(data, dict) and data.get("format") == TRACE_CHUNK_FORMAT:
                return TraceFileSource(path, data)
            if isinstance(data, dict):
                return Trace.from_dict(data)
            # Not a single-line document (e.g. pretty-printed JSON): fall
            # back to reading it whole.
            rest = handle.read()
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file {path!r}: {exc}") from exc
    except (EOFError, zlib.error, UnicodeDecodeError) as exc:
        raise TraceFormatError(
            f"trace file {path!r} is truncated or corrupt: {exc}"
        ) from exc
    return Trace.from_json(first + rest)


def _ignore_event(*_args, **_kwargs) -> None:
    """Instance-level shadow for a recorder hook named in ``drop_methods``."""


class TraceRecorder(Tracer):
    """Captures the requested event mask as a :class:`Trace`, in one run.

    The recorder is an ordinary bus tracer: attach it (alone, or alongside
    live tracers) and execute the workload once.  Its per-instance ``mask``
    is the *recording request* — typically the union of every analysis mode
    that will ever replay the trace — and is what :meth:`subscribed_events`
    reports to the bus, so the interpreter emits exactly that superset.

    Identity bookkeeping: nodes, environments and guest objects are interned
    by Python identity, and strong references are retained for the recorder's
    lifetime so CPython cannot recycle an ``id()`` mid-run and silently merge
    two distinct guests (the same discipline
    :class:`~repro.ceres.dependence.DependenceAnalyzer` uses).
    """

    def __init__(
        self,
        mask: int = EV_ALL,
        workload: str = "",
        fingerprint: str = "",
        ms_per_op: float = 0.02,
        drop_methods: tuple = (),
    ) -> None:
        self.mask = mask
        self.workload = workload
        self.fingerprint = fingerprint
        self.ms_per_op = ms_per_op
        self.dropped = tuple(sorted(drop_methods))
        unknown = [name for name in self.dropped if name not in _METHOD_EVENTS]
        if unknown:
            raise ValueError(f"unknown hook method(s) in drop_methods: {unknown}")
        # Dropped hooks are shadowed by an instance-level no-op, so they cost
        # nothing per event and the kept hooks pay no membership check.
        for method_name in self.dropped:
            setattr(self, method_name, _ignore_event)
        self.start_ms = 0.0
        self.end_ms = 0.0
        self.events: List[tuple] = []
        self._strings: List[str] = []
        self._string_index: Dict[str, int] = {}
        self._nodes: List[List[int]] = []
        self._node_index: Dict[int, int] = {}
        self._objects: List[List[int]] = []
        self._object_index: Dict[int, int] = {}
        self._env_index: Dict[int, int] = {}
        self._retained: List[Any] = []

    def subscribed_events(self) -> int:
        return self.mask

    # ------------------------------------------------------------ lifecycle
    def mark_start(self, clock) -> None:
        """Stamp the moment live tracers would observe ``start`` (pre-load).

        Also adopts the clock's per-op cost, which replay clocks reproduce.
        """
        self.start_ms = clock.now()
        self.ms_per_op = clock.ms_per_op

    def mark_end(self, clock) -> None:
        """Stamp the final clock reading (post-exercise)."""
        self.end_ms = clock.now()

    def trace(self) -> Trace:
        """The recorded :class:`Trace` (tables are shared, not copied)."""
        return Trace(
            mask=self.mask,
            workload=self.workload,
            fingerprint=self.fingerprint,
            ms_per_op=self.ms_per_op,
            start_ms=self.start_ms,
            end_ms=self.end_ms,
            dropped=self.dropped,
            strings=self._strings,
            nodes=self._nodes,
            objects=self._objects,
            env_count=len(self._env_index),
            events=self.events,
        )

    # ------------------------------------------------------------ interning
    def _string(self, value: Optional[str]) -> int:
        if value is None:
            value = ""
        index = self._string_index.get(value)
        if index is None:
            index = len(self._strings)
            self._strings.append(value)
            self._string_index[value] = index
        return index

    def _node(self, node: Any) -> int:
        if node is None:
            return -1
        key = id(node)
        index = self._node_index.get(key)
        if index is None:
            index = len(self._nodes)
            self._nodes.append(
                [
                    getattr(node, "node_id", -1),
                    getattr(node, "line", 0),
                    self._string(type(node).__name__),
                ]
            )
            self._node_index[key] = index
            self._retained.append(node)
        return index

    def _env(self, env: Any) -> int:
        key = id(env)
        index = self._env_index.get(key)
        if index is None:
            index = len(self._env_index)
            self._env_index[key] = index
            self._retained.append(env)
        return index

    def _object(self, obj: Any) -> int:
        key = id(obj)
        index = self._object_index.get(key)
        if index is None:
            # Imported lazily: values.py is independent of this module, but
            # keeping the top-level import surface minimal avoids ordering
            # surprises for embedders that import hooks first.
            from .values import JSArray, JSObject

            name_index = -1
            if isinstance(obj, JSArray):
                kind = _OBJ_ARRAY
            elif isinstance(obj, JSObject):
                name = getattr(obj, "name", None)
                if isinstance(name, str):
                    kind = _OBJ_CALLABLE
                    name_index = self._string(name)
                else:
                    kind = _OBJ_PLAIN
            else:
                kind = _OBJ_OPAQUE
            index = len(self._objects)
            self._objects.append(
                [
                    kind,
                    self._string(getattr(obj, "class_name", "")),
                    getattr(obj, "creation_site", -1),
                    name_index,
                ]
            )
            self._object_index[key] = index
            self._retained.append(obj)
        return index

    # ---------------------------------------------------------- hook events
    #
    # The high-volume hooks (statements, variable and property accesses, loop
    # iterations) inline the intern-table hit path — one dict ``get`` instead
    # of a method call — because recording runs once per event of the union
    # mask and is the only remaining guest execution of the whole pipeline.

    def on_loop_enter(self, interp, node) -> None:
        if self.mask & EV_LOOP:
            index = self._node_index.get(id(node))
            if index is None:
                index = self._node(node)
            self.events.append((TR_LOOP_ENTER, interp.clock._now_ms, index))

    def on_loop_iteration(self, interp, node, iteration) -> None:
        if self.mask & EV_LOOP:
            index = self._node_index.get(id(node))
            if index is None:
                index = self._node(node)
            self.events.append((TR_LOOP_ITER, interp.clock._now_ms, index, iteration))

    def on_loop_exit(self, interp, node, trip_count) -> None:
        if self.mask & EV_LOOP:
            index = self._node_index.get(id(node))
            if index is None:
                index = self._node(node)
            self.events.append((TR_LOOP_EXIT, interp.clock._now_ms, index, trip_count))

    def on_function_enter(self, interp, func, call_node) -> None:
        if self.mask & EV_FUNCTION:
            self.events.append(
                (TR_FUNC_ENTER, interp.clock._now_ms, self._object(func), self._node(call_node))
            )

    def on_function_exit(self, interp, func) -> None:
        if self.mask & EV_FUNCTION:
            self.events.append((TR_FUNC_EXIT, interp.clock._now_ms, self._object(func)))

    def on_env_created(self, interp, env, kind) -> None:
        if self.mask & EV_ENV:
            self.events.append(
                (TR_ENV_CREATED, interp.clock._now_ms, self._env(env), self._string(kind))
            )

    def on_var_write(self, interp, name, env, value, node) -> None:
        if self.mask & EV_VAR:
            name_index = self._string_index.get(name)
            if name_index is None:
                name_index = self._string(name)
            env_index = self._env_index.get(id(env))
            if env_index is None:
                env_index = self._env(env)
            node_index = self._node_index.get(id(node), -2) if node is not None else -1
            if node_index == -2:
                node_index = self._node(node)
            self.events.append(
                (TR_VAR_WRITE, interp.clock._now_ms, name_index, env_index, node_index)
            )

    def on_var_read(self, interp, name, env, node) -> None:
        if self.mask & EV_VAR:
            name_index = self._string_index.get(name)
            if name_index is None:
                name_index = self._string(name)
            env_index = self._env_index.get(id(env))
            if env_index is None:
                env_index = self._env(env)
            node_index = self._node_index.get(id(node), -2) if node is not None else -1
            if node_index == -2:
                node_index = self._node(node)
            self.events.append(
                (TR_VAR_READ, interp.clock._now_ms, name_index, env_index, node_index)
            )

    def on_object_created(self, interp, obj, node) -> None:
        if self.mask & EV_OBJECT:
            self.events.append(
                (TR_OBJ_CREATED, interp.clock._now_ms, self._object(obj), self._node(node))
            )

    def on_prop_write(self, interp, obj, name, value, node) -> None:
        if self.mask & EV_PROP:
            obj_index = self._object_index.get(id(obj))
            if obj_index is None:
                obj_index = self._object(obj)
            name_index = self._string_index.get(name)
            if name_index is None:
                name_index = self._string(name)
            node_index = self._node_index.get(id(node), -2) if node is not None else -1
            if node_index == -2:
                node_index = self._node(node)
            self.events.append(
                (TR_PROP_WRITE, interp.clock._now_ms, obj_index, name_index, node_index)
            )

    def on_prop_read(self, interp, obj, name, node) -> None:
        if self.mask & EV_PROP:
            obj_index = self._object_index.get(id(obj))
            if obj_index is None:
                obj_index = self._object(obj)
            name_index = self._string_index.get(name)
            if name_index is None:
                name_index = self._string(name)
            node_index = self._node_index.get(id(node), -2) if node is not None else -1
            if node_index == -2:
                node_index = self._node(node)
            self.events.append(
                (TR_PROP_READ, interp.clock._now_ms, obj_index, name_index, node_index)
            )

    def on_branch(self, interp, node, taken) -> None:
        if self.mask & EV_BRANCH:
            index = self._node_index.get(id(node))
            if index is None:
                index = self._node(node)
            self.events.append(
                (TR_BRANCH, interp.clock._now_ms, index, 1 if taken else 0)
            )

    def on_host_access(self, interp, category, detail, node) -> None:
        if self.mask & EV_HOST:
            self.events.append(
                (TR_HOST, interp.clock._now_ms, self._string(category), self._string(detail), self._node(node))
            )

    def on_statement(self, interp, node) -> None:
        if self.mask & EV_STATEMENT:
            index = self._node_index.get(id(node))
            if index is None:
                index = self._node(node)
            self.events.append((TR_STATEMENT, interp.clock._now_ms, index))

    def on_recursion_warning(self, interp, node) -> None:
        if self.mask & EV_RECURSION:
            self.events.append((TR_RECURSION, interp.clock._now_ms, self._node(node)))


# ===========================================================================
# Replay
# ===========================================================================


class ReplayClock:
    """Clock stand-in positioned at the current record's stamp.

    Only the reading surface of :class:`~repro.jsvm.clock.VirtualClock` is
    provided — replayed tracers read time, they never advance it.
    """

    __slots__ = ("_now_ms",)

    def __init__(self, now_ms: float = 0.0) -> None:
        self._now_ms = now_ms

    def now(self) -> float:
        return self._now_ms


class _ReplayFrame:
    """Shadow call-stack entry (mirror of the interpreter's ``CallFrame``)."""

    __slots__ = ("function_name",)

    def __init__(self, function_name: str) -> None:
        self.function_name = function_name


class _ReplayNode:
    """Stand-in AST node carrying exactly what tracers read."""

    __slots__ = ("node_id", "line")

    def __init__(self, node_id: int, line: int) -> None:
        self.node_id = node_id
        self.line = line


#: kind-name -> dynamically created ``_ReplayNode`` subclass, so that
#: ``type(node).__name__`` matches the live AST class (the loop profiler's
#: registry-less fallback derives loop kinds from it).
_REPLAY_NODE_CLASSES: Dict[str, type] = {}


def _replay_node_class(kind: str) -> type:
    cls = _REPLAY_NODE_CLASSES.get(kind)
    if cls is None:
        cls = type(kind, (_ReplayNode,), {"__slots__": ()})
        _REPLAY_NODE_CLASSES[kind] = cls
    return cls


class _ReplayInterpreter:
    """The minimal interpreter surface replayed tracers touch.

    Shipped tracers read ``interp.clock``, ``interp.call_stack`` and
    ``interp.current_function_name()``; the replayer maintains the call stack
    from the trace's function events, so those reads return exactly what the
    live interpreter would have returned at the same stamp.
    """

    __slots__ = ("clock", "call_stack", "hooks", "trace_mask")

    def __init__(self, clock: ReplayClock) -> None:
        self.clock = clock
        self.call_stack: List[_ReplayFrame] = [_ReplayFrame("(global)")]
        self.hooks = None
        self.trace_mask = 0

    def current_function_name(self) -> str:
        return self.call_stack[-1].function_name if self.call_stack else "(global)"

    def stack_snapshot(self) -> List[str]:
        return [frame.function_name for frame in self.call_stack]


class TraceReplayer:
    """Drives ordinary tracers from a recorded trace.

    Every replay is one loop over the source's ``chunks()``: a resident
    :class:`Trace` yields its tables and whole event list as a single chunk,
    a chunked file source yields bounded slices with intern-table deltas.

    One replayer materializes one consistent set of stand-in nodes and guest
    objects; every :meth:`replay` call over the same replayer shares them,
    exactly as live tracers composed on one bus share the live guest heap.
    Use a fresh replayer for an independent pass (e.g. a second dependence
    analysis that must not see earlier creation stamps).  Environment frames
    are never materialized at all: replay hands tracers the environment's
    dense trace index (a plain int, unique per recorded scope), which every
    shipped tracer treats as the opaque identity it is — so replay memory
    does not grow with the number of scopes the workload created.
    """

    def __init__(self, trace: Any) -> None:
        """``trace`` is any chunk source: a resident :class:`Trace` (one
        chunk) or an object with the header attributes plus a re-iterable
        ``chunks()`` (see :class:`TraceFileSource`), which replays in
        memory bounded by its chunk size.
        """
        self.trace = trace
        self.clock = ReplayClock(trace.start_ms)
        self._interp = _ReplayInterpreter(self.clock)
        # Tables grow as chunks arrive (and are shared across replay passes:
        # a later pass extends nothing, its chunks re-describe entries
        # already materialized).
        self._strings: List[str] = []
        self._nodes: List[Any] = []
        self._objects: List[Any] = []

    # ------------------------------------------------------------ stand-ins
    def _materialize_object(self, entry: List[int], strings: List[str]) -> Any:
        from .values import JSArray, JSObject

        kind, class_index, creation_site, name_index = entry
        class_name = strings[class_index]
        if kind == _OBJ_ARRAY:
            return JSArray([], creation_site=creation_site)
        if kind == _OBJ_CALLABLE:
            stand_in = _ReplayFunctionObject(class_name=class_name, creation_site=creation_site)
            stand_in.name = strings[name_index] if name_index >= 0 else ""
            return stand_in
        if kind == _OBJ_PLAIN:
            return JSObject(class_name=class_name, creation_site=creation_site)
        return _ReplayOpaque()

    def _absorb_chunk(self, chunk: "TraceChunk", seen: List[int]) -> None:
        """Extend the stand-in tables with a chunk's intern deltas.

        ``seen`` holds the cumulative (strings, nodes, objects) counts
        streamed so far *in this pass*.  Entries already materialized by an
        earlier :meth:`replay` pass are skipped, so repeated passes over one
        replayer share stand-ins.
        Environments have no table to extend — events carry their index, and
        that index *is* the identity handed to tracers.
        """
        strings = self._strings
        start = seen[0]
        if start + len(chunk.strings) > len(strings):
            strings.extend(chunk.strings[len(strings) - start :])
        seen[0] = start + len(chunk.strings)
        try:
            start = seen[1]
            if start + len(chunk.nodes) > len(self._nodes):
                self._nodes.extend(
                    _replay_node_class(strings[kind_index])(node_id, line)
                    for node_id, line, kind_index in chunk.nodes[
                        len(self._nodes) - start :
                    ]
                )
            seen[1] = start + len(chunk.nodes)
            start = seen[2]
            if start + len(chunk.objects) > len(self._objects):
                self._objects.extend(
                    self._materialize_object(entry, strings)
                    for entry in chunk.objects[len(self._objects) - start :]
                )
            seen[2] = start + len(chunk.objects)
        except (IndexError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"malformed trace intern table: {exc}") from exc

    # --------------------------------------------------------------- replay
    def required_mask(self, tracers: List[Tracer]) -> int:
        mask = 0
        for tracer in tracers:
            mask |= tracer.subscribed_events()
        return mask

    def replay(self, tracers: List[Tracer]) -> None:
        """Feed every recorded event to the subscribed tracers, in order.

        Raises :class:`TraceMaskError` when the trace does not cover the
        union of the tracers' declared events — a replay from an insufficient
        recording would silently produce wrong payloads otherwise.

        Dispatch is specialized per opcode: a handler table maps each opcode
        to a closure pre-bound over the subscribed tracer methods, and
        opcodes nobody subscribes to cost one list-index + ``None`` check per
        record (a dependence replay skips hundreds of thousands of statement
        samples this way).
        """
        required = self.required_mask(tracers)
        if not self.trace.covers(required):
            raise TraceMaskError(
                f"trace mask [{describe_mask(self.trace.mask)}] does not cover "
                f"the requested tracers' mask [{describe_mask(required)}]; "
                f"missing [{describe_mask(required & ~self.trace.mask)}]"
            )

        def overrides(tracer: Tracer, name: str) -> bool:
            if name in getattr(tracer, "__dict__", {}):
                return True
            return getattr(type(tracer), name) is not getattr(Tracer, name)

        for dropped_name in self.trace.dropped:
            for tracer in tracers:
                if overrides(tracer, dropped_name):
                    raise TraceMaskError(
                        f"trace was recorded without {dropped_name!r} records "
                        f"but {type(tracer).__name__} handles that event; "
                        "re-record without dropping it"
                    )

        interp = self._interp
        clock = self.clock
        nodes = self._nodes
        objects = self._objects
        # The tables are list objects extended in place as chunks arrive;
        # handlers index them through these same bindings.
        strings = self._strings
        call_stack = interp.call_stack
        elided = TRACE_VALUE_ELIDED

        def methods(bit: int, name: str) -> list:
            # Base-class no-ops are skipped outright: dispatching a record to
            # a method that cannot observe it is pure replay overhead.
            return [
                getattr(t, name)
                for t in tracers
                if t.subscribed_events() & bit and overrides(t, name)
            ]

        def node_of(index: int):
            return nodes[index] if index >= 0 else None

        handlers: List[Optional[Any]] = [None] * (TR_RECURSION + 1)

        # The hot event classes (statements, property and variable accesses)
        # get a single-subscriber fast path: almost every replay drives one
        # tracer per class, so the dispatch loop is replaced by a direct call.
        # Every opcode's handler is installed independently — a tracer may
        # override one direction of a class (dependence analysis handles
        # variable writes but not reads).
        on_statement = methods(EV_STATEMENT, "on_statement")
        if len(on_statement) == 1:
            statement_method = on_statement[0]

            def h_statement(rec):
                clock._now_ms = rec[1]
                index = rec[2]
                statement_method(interp, nodes[index] if index >= 0 else None)

            handlers[TR_STATEMENT] = h_statement
        elif on_statement:

            def h_statement(rec):
                clock._now_ms = rec[1]
                node = node_of(rec[2])
                for method in on_statement:
                    method(interp, node)

            handlers[TR_STATEMENT] = h_statement

        on_prop_read = methods(EV_PROP, "on_prop_read")
        if len(on_prop_read) == 1:
            prop_read_method = on_prop_read[0]

            def h_prop_read(rec):
                clock._now_ms = rec[1]
                index = rec[4]
                prop_read_method(
                    interp, objects[rec[2]], strings[rec[3]], nodes[index] if index >= 0 else None
                )

            handlers[TR_PROP_READ] = h_prop_read
        elif on_prop_read:

            def h_prop_read(rec):
                clock._now_ms = rec[1]
                obj = objects[rec[2]]
                name = strings[rec[3]]
                node = node_of(rec[4])
                for method in on_prop_read:
                    method(interp, obj, name, node)

            handlers[TR_PROP_READ] = h_prop_read

        on_prop_write = methods(EV_PROP, "on_prop_write")
        if len(on_prop_write) == 1:
            prop_write_method = on_prop_write[0]

            def h_prop_write(rec):
                clock._now_ms = rec[1]
                index = rec[4]
                prop_write_method(
                    interp,
                    objects[rec[2]],
                    strings[rec[3]],
                    elided,
                    nodes[index] if index >= 0 else None,
                )

            handlers[TR_PROP_WRITE] = h_prop_write
        elif on_prop_write:

            def h_prop_write(rec):
                clock._now_ms = rec[1]
                obj = objects[rec[2]]
                name = strings[rec[3]]
                node = node_of(rec[4])
                for method in on_prop_write:
                    method(interp, obj, name, elided, node)

            handlers[TR_PROP_WRITE] = h_prop_write

        on_var_read = methods(EV_VAR, "on_var_read")
        if len(on_var_read) == 1:
            var_read_method = on_var_read[0]

            def h_var_read(rec):
                clock._now_ms = rec[1]
                index = rec[4]
                var_read_method(
                    interp, strings[rec[2]], rec[3], nodes[index] if index >= 0 else None
                )

            handlers[TR_VAR_READ] = h_var_read
        elif on_var_read:

            def h_var_read(rec):
                clock._now_ms = rec[1]
                name = strings[rec[2]]
                env = rec[3]
                node = node_of(rec[4])
                for method in on_var_read:
                    method(interp, name, env, node)

            handlers[TR_VAR_READ] = h_var_read

        on_var_write = methods(EV_VAR, "on_var_write")
        if len(on_var_write) == 1:
            var_write_method = on_var_write[0]

            def h_var_write(rec):
                clock._now_ms = rec[1]
                index = rec[4]
                var_write_method(
                    interp,
                    strings[rec[2]],
                    rec[3],
                    elided,
                    nodes[index] if index >= 0 else None,
                )

            handlers[TR_VAR_WRITE] = h_var_write
        elif on_var_write:

            def h_var_write(rec):
                clock._now_ms = rec[1]
                name = strings[rec[2]]
                env = rec[3]
                node = node_of(rec[4])
                for method in on_var_write:
                    method(interp, name, env, elided, node)

            handlers[TR_VAR_WRITE] = h_var_write

        on_loop_enter = methods(EV_LOOP, "on_loop_enter")
        if on_loop_enter:

            def h_loop_enter(rec):
                clock._now_ms = rec[1]
                index = rec[2]
                node = nodes[index] if index >= 0 else None
                for method in on_loop_enter:
                    method(interp, node)

            handlers[TR_LOOP_ENTER] = h_loop_enter

        on_loop_iteration = methods(EV_LOOP, "on_loop_iteration")
        if on_loop_iteration:

            def h_loop_iteration(rec):
                clock._now_ms = rec[1]
                index = rec[2]
                node = nodes[index] if index >= 0 else None
                iteration = rec[3]
                for method in on_loop_iteration:
                    method(interp, node, iteration)

            handlers[TR_LOOP_ITER] = h_loop_iteration

        on_loop_exit = methods(EV_LOOP, "on_loop_exit")
        if on_loop_exit:

            def h_loop_exit(rec):
                clock._now_ms = rec[1]
                index = rec[2]
                node = nodes[index] if index >= 0 else None
                trip_count = rec[3]
                for method in on_loop_exit:
                    method(interp, node, trip_count)

            handlers[TR_LOOP_EXIT] = h_loop_exit

        on_function_enter = methods(EV_FUNCTION, "on_function_enter")
        on_function_exit = methods(EV_FUNCTION, "on_function_exit")
        # The shadow call stack feeds statement-sample consumers (stack depth,
        # current function), so it must be maintained whenever either a
        # function or a statement subscriber is present.
        if on_function_enter or on_function_exit or on_statement:

            def h_func_enter(rec):
                clock._now_ms = rec[1]
                func = objects[rec[2]]
                node = node_of(rec[3])
                call_stack.append(_ReplayFrame(getattr(func, "name", "(anonymous)")))
                for method in on_function_enter:
                    method(interp, func, node)

            def h_func_exit(rec):
                clock._now_ms = rec[1]
                func = objects[rec[2]]
                for method in on_function_exit:
                    method(interp, func)
                if len(call_stack) > 1:
                    call_stack.pop()

            handlers[TR_FUNC_ENTER] = h_func_enter
            handlers[TR_FUNC_EXIT] = h_func_exit

        on_branch = methods(EV_BRANCH, "on_branch")
        if on_branch:

            def h_branch(rec):
                clock._now_ms = rec[1]
                index = rec[2]
                node = nodes[index] if index >= 0 else None
                taken = bool(rec[3])
                for method in on_branch:
                    method(interp, node, taken)

            handlers[TR_BRANCH] = h_branch

        on_object_created = methods(EV_OBJECT, "on_object_created")
        if on_object_created:

            def h_object(rec):
                clock._now_ms = rec[1]
                obj = objects[rec[2]]
                node = node_of(rec[3])
                for method in on_object_created:
                    method(interp, obj, node)

            handlers[TR_OBJ_CREATED] = h_object

        on_env_created = methods(EV_ENV, "on_env_created")
        if on_env_created:

            def h_env(rec):
                clock._now_ms = rec[1]
                env = rec[2]
                kind = strings[rec[3]]
                for method in on_env_created:
                    method(interp, env, kind)

            handlers[TR_ENV_CREATED] = h_env

        on_host_access = methods(EV_HOST, "on_host_access")
        if on_host_access:

            def h_host(rec):
                clock._now_ms = rec[1]
                category = strings[rec[2]]
                detail = strings[rec[3]]
                node = node_of(rec[4])
                for method in on_host_access:
                    method(interp, category, detail, node)

            handlers[TR_HOST] = h_host

        on_recursion = methods(EV_RECURSION, "on_recursion_warning")
        if on_recursion:

            def h_recursion(rec):
                clock._now_ms = rec[1]
                index = rec[2]
                node = nodes[index] if index >= 0 else None
                for method in on_recursion:
                    method(interp, node)

            handlers[TR_RECURSION] = h_recursion

        seen = [0, 0, 0]
        wanted = frozenset(
            opcode for opcode, handler in enumerate(handlers) if handler is not None
        )
        for chunk in self.trace.chunks():
            self._absorb_chunk(chunk, seen)
            sparse = getattr(chunk, "events_sparse", None)
            if sparse is not None:
                # Columnar chunks materialize tuples only for subscribed
                # opcode groups; unsubscribed floods (statement samples under
                # a dependence replay) stay as undecoded columns.  The holes
                # are None — and a fully-materialized chunk may be returned
                # whole, so both checks stay.
                for record in sparse(wanted):
                    if record is None:
                        continue
                    handler = handlers[record[0]]
                    if handler is not None:
                        handler(record)
            else:
                for record in chunk.events:
                    handler = handlers[record[0]]
                    if handler is not None:
                        handler(record)
        clock._now_ms = self.trace.end_ms


class _ReplayValueElided:
    """Sentinel for guest values the v1 schema does not carry."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return "<trace value elided>"


#: Passed as the ``value`` argument of replayed write events; no shipped
#: tracer reads it (schema v1 elides guest values).
TRACE_VALUE_ELIDED = _ReplayValueElided()


class _ReplayOpaque:
    """Stand-in for a recorded non-JSObject payload (defensive only)."""

    __slots__ = ()


def _make_replay_function_class():
    """``_ReplayFunctionObject`` is a JSObject subclass with a ``name`` slot,
    so it satisfies both ``isinstance(obj, JSObject)`` checks (dependence
    analysis) and ``func.name`` reads (nest observer, samplers).  Built
    lazily to keep module import order free of the values dependency."""
    from .values import JSObject

    class _ReplayFunction(JSObject):
        __slots__ = ("name",)

    return _ReplayFunction


_REPLAY_FUNCTION_CLASS: Optional[type] = None


def _ReplayFunctionObject(class_name: str, creation_site: int):
    global _REPLAY_FUNCTION_CLASS
    if _REPLAY_FUNCTION_CLASS is None:
        _REPLAY_FUNCTION_CLASS = _make_replay_function_class()
    return _REPLAY_FUNCTION_CLASS(class_name=class_name, creation_site=creation_site)
