"""Speculative parallel re-execution of DOALL-verdict loop nests.

The paper *predicts* latent parallelism: JS-CERES profiles loop nests, checks
dependences and models the speedup a parallel execution would achieve.  This
module closes that loop — it actually re-executes a nest's iterations in
parallel, worker-isolated contexts and validates the prediction:

1. When a targeted ``for``/``for-in`` loop instance is entered, the
   :class:`SpeculationController` forks the interpreter's reachable
   scope/heap state (:func:`repro.jsvm.snapshot.fork_state`): one untouched
   *baseline* fork plus one fork per worker.
2. The instance first runs **serially** on the live state — the ground truth
   the program continues from, whatever speculation concludes (this is what
   makes rollback trivially correct).
3. Each worker then replays the same loop instance in its isolated context
   with an *iteration filter* (only its
   :func:`~repro.parallel.partition.block_partition` /
   :func:`~repro.parallel.partition.cyclic_partition` chunk's bodies
   execute; induction scaffolding runs everywhere).  A per-worker tracer
   logs upwards-exposed reads, enforces a write barrier (no worker may touch
   state outside its fork) and aborts on any host (DOM/canvas/timer) access.
4. The workers' write-sets are extracted by structural diff against the
   baseline (:func:`~repro.jsvm.snapshot.diff_forks`), checked for conflicts
   (write-write overlaps with differing values on shared objects, and
   exposed reads of locations another worker wrote), merged onto the
   baseline, and the merged state is compared **bit-for-bit** against the
   serially produced state via :func:`~repro.jsvm.snapshot.heap_digest`.
5. On success the nest *commits*: the executed speedup is
   ``serial virtual time / max(worker virtual time + scheduling overhead)``,
   reported side by side with the analytic
   :class:`~repro.parallel.executor.ParallelOutcome` model.  On any
   conflict, abort or state mismatch the nest *rolls back* — the serial
   result stands and the executed speedup is 1.0.

Two conflict refinements mirror what a DOALL compiler does to un-transformed
code: write-write overlaps where every worker produced the *same* value are
benign (silent stores — e.g. induction variables), and overlaps on
*environment bindings* are privatized with last-iteration-owner semantics
(the paper's "trivially privatizable" function-scoped ``var`` temporaries).
True accumulators and stencil sweeps still conflict (or fail the digest
comparison) and roll back.

Worker execution is deterministic and in-process by default (virtual-clock
timings, CI-safe).  With ``use_processes=True`` the chunks additionally run
in forked OS processes for real wall-clock numbers; the children return
state digests that are cross-checked against the in-process replay.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.difficulty import Difficulty
from ..jsvm.clock import VirtualClock
from ..jsvm.errors import JSRuntimeError, JSThrownValue
from ..jsvm.hooks import EV_ENV, EV_HOST, EV_OBJECT, EV_PROP, EV_VAR, HookBus, Tracer
from ..jsvm.interpreter import CallFrame, ExecutionStats, Interpreter
from ..jsvm.scope import Environment
from ..jsvm.snapshot import (
    HeapFork,
    Location,
    _refs_equal,
    diff_forks,
    fork_state,
    heap_digest,
    merge_diff,
)
from ..jsvm.values import UNDEFINED, JSArray
from .executor import simulate_parallel_execution
from .machine import PAPER_MACHINE, MachineModel
from .partition import Chunk, block_partition, cyclic_partition

#: Cap on reported conflict locations (the full set can be huge for stencils).
_MAX_REPORTED_CONFLICTS = 8


class SpeculationAbort(Exception):
    """A speculative chunk performed an operation that cannot be isolated.

    Deliberately *not* a :class:`~repro.jsvm.errors.JSError`: guest
    ``try``/``catch`` must never swallow an abort.
    """


@dataclass(frozen=True)
class SpeculationOptions:
    """Configuration of one speculative re-execution."""

    workers: int = PAPER_MACHINE.hardware_threads
    strategy: str = "block"  # "block" | "cyclic"
    #: Replay chunks in forked OS processes as well, for wall-clock numbers.
    use_processes: bool = False
    #: Which runtime instance of the target loop to speculate (0 = first).
    instance_index: int = 0
    #: Dependence verdicts graded harder than this do not speculate.
    easy_cutoff: Difficulty = Difficulty.MEDIUM
    #: Chaos knob for tests: fabricate a conflicting write in every chunk,
    #: forcing a mis-speculation and rollback.
    inject_conflict: bool = False

    def partition(self, trips: int) -> Sequence[Chunk]:
        if self.strategy == "cyclic":
            return cyclic_partition(trips, self.workers)
        return block_partition(trips, self.workers)


@dataclass
class SpeculationOutcome:
    """Result of speculatively re-executing (or gating) one loop nest."""

    label: str
    line: int
    kind: str
    status: str  # "committed" | "rolled-back" | "skipped"
    reason: str = ""
    workers: int = 0
    strategy: str = "block"
    trips: int = 0
    serial_ms: float = 0.0
    parallel_ms: float = 0.0
    executed_speedup: float = 1.0
    chunk_ms: List[float] = field(default_factory=list)
    #: Environment-binding output dependences resolved by privatization.
    privatized: int = 0
    #: Numeric scalar accumulators merged with sum-reduction semantics.
    reductions: int = 0
    #: Which merge policy produced the committed state ("privatize" or
    #: "reduction"); empty when the nest did not commit.
    merge_policy: str = ""
    conflicts: List[str] = field(default_factory=list)
    #: Merged speculative state digest == serial state digest (commit proof).
    state_identical: Optional[bool] = None
    #: The analytic model's view of the same nest, when available.
    modelled_parallel_ms: Optional[float] = None
    modelled_speedup: Optional[float] = None
    wall: Optional[Dict[str, Any]] = None

    @property
    def committed(self) -> bool:
        return self.status == "committed"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "line": self.line,
            "kind": self.kind,
            "status": self.status,
            "reason": self.reason,
            "workers": self.workers,
            "strategy": self.strategy,
            "trips": self.trips,
            "serial_ms": self.serial_ms,
            "parallel_ms": self.parallel_ms,
            "executed_speedup": self.executed_speedup,
            "chunk_ms": list(self.chunk_ms),
            "privatized": self.privatized,
            "reductions": self.reductions,
            "merge_policy": self.merge_policy,
            "conflicts": list(self.conflicts),
            "state_identical": self.state_identical,
            "modelled_parallel_ms": self.modelled_parallel_ms,
            "modelled_speedup": self.modelled_speedup,
            "wall": dict(self.wall) if self.wall is not None else None,
        }


@dataclass
class WorkloadSpeculation:
    """All speculation outcomes for one workload run (one per nest/loop)."""

    workload: str
    workers: int
    strategy: str
    outcomes: List[SpeculationOutcome] = field(default_factory=list)
    #: Digest of the final guest state of the (serial-ground-truth) run.
    final_digest: str = ""

    def committed(self) -> List[SpeculationOutcome]:
        return [outcome for outcome in self.outcomes if outcome.committed]

    def to_payload(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "strategy": self.strategy,
            "final_digest": self.final_digest,
            "nests": [outcome.to_dict() for outcome in self.outcomes],
        }


# ---------------------------------------------------------------------------
# per-chunk instrumentation
# ---------------------------------------------------------------------------
class _ChunkTracer(Tracer):
    """Write barrier + upwards-exposed read log for one speculative chunk."""

    EVENTS = EV_VAR | EV_PROP | EV_OBJECT | EV_ENV | EV_HOST

    def __init__(self, membership: Set[int]) -> None:
        #: ids of containers this chunk may write: its fork's copies plus
        #: anything it creates itself.
        self.membership = membership
        #: (container, key) pairs read before this chunk wrote them.
        self.exposed_reads: Set[Tuple[Any, str]] = set()
        self._written: Set[Tuple[int, str]] = set()

    # -- reads ---------------------------------------------------------------
    def on_var_read(self, interp, name, env, node) -> None:
        if (id(env), name) not in self._written:
            self.exposed_reads.add((env, name))

    def on_prop_read(self, interp, obj, name, node) -> None:
        if (id(obj), name) not in self._written:
            self.exposed_reads.add((obj, name))

    # -- writes --------------------------------------------------------------
    def on_var_write(self, interp, name, env, value, node) -> None:
        # Scope chains are forked wholesale, so the holder is always a member;
        # kept as a defensive check (the write already landed fork-side).
        if id(env) not in self.membership:  # pragma: no cover - defensive
            raise SpeculationAbort(f"speculative write to shared scope binding {name!r}")
        self._written.add((id(env), name))

    def on_prop_write(self, interp, obj, name, value, node) -> None:
        if id(obj) not in self.membership:
            raise SpeculationAbort(f"speculative write to shared object property {name!r}")
        self._written.add((id(obj), name))

    # -- creations -----------------------------------------------------------
    def on_object_created(self, interp, obj, node) -> None:
        self.membership.add(id(obj))

    def on_env_created(self, interp, env, kind) -> None:
        self.membership.add(id(env))

    # -- host ----------------------------------------------------------------
    def on_host_access(self, interp, category, detail, node) -> None:
        raise SpeculationAbort(f"host access during speculative chunk: {category} ({detail})")


class _TripCounter(Tracer):
    """Captures the trip count of one (possibly re-entrant) loop instance."""

    EVENTS = 0  # refined by overrides below

    def __init__(self, loop_id: int) -> None:
        self.loop_id = loop_id
        self.depth = 0
        self.trips: Optional[int] = None

    def on_loop_enter(self, interp, node) -> None:
        if node.node_id == self.loop_id:
            self.depth += 1

    def on_loop_exit(self, interp, node, trip_count) -> None:
        if node.node_id == self.loop_id:
            self.depth -= 1
            if self.depth == 0 and self.trips is None:
                self.trips = trip_count


@dataclass
class _ChunkContext:
    """Everything one worker needs to replay its chunk in isolation."""

    index: int
    fork: HeapFork
    chunk: Chunk
    clone: Interpreter
    tracer: _ChunkTracer
    env_copy: Environment
    body_run: Callable[[Any, Any], Any]
    extra_roots: Tuple[Any, ...]
    #: Compute a post-replay state digest (needed only for the cross-process
    #: determinism check of the wall-clock mode — digests walk the full heap).
    want_digest: bool = False
    aborted: str = ""
    virtual_ms: float = 0.0
    wall_s: float = 0.0
    digest: str = ""


def _fork_context(rt: Interpreter, fork: HeapFork, bus: HookBus) -> Interpreter:
    """An isolated interpreter sharing ``rt``'s compiled code but not its state.

    The clone gets its own clock (starting at zero — chunk virtual times are
    deltas), its own stats/console/call stack, a freshly seeded copy of the
    RNG state, and the fork-side global environment and intrinsic prototypes.
    """
    clone = Interpreter.__new__(Interpreter)
    clone.hooks = bus
    clone.trace_mask = 0
    clone.tier = rt.tier
    clone.fast_nests = rt.fast_nests
    bus.bind(clone)
    clone.clock = VirtualClock(ms_per_op=rt.clock.ms_per_op)
    clone.rng = random.Random()
    clone.rng.setstate(rt.rng.getstate())
    clone.max_ops = rt.max_ops
    clone.max_call_depth = rt.max_call_depth
    clone.stats = ExecutionStats()
    clone.speculation = None
    clone.iteration_filter = None
    clone.global_env = fork.copy_of(rt.global_env)
    clone.call_stack = [CallFrame(rt.current_function_name())]
    clone.console_output = []
    clone.object_prototype = fork.copy_of(rt.object_prototype)
    clone.array_prototype = fork.copy_of(rt.array_prototype)
    clone.function_prototype = fork.copy_of(rt.function_prototype)
    return clone


def _execute_chunk(context: _ChunkContext) -> None:
    """Run one worker's replay; never raises (failures mark the context)."""
    from ..jsvm.compiler import ReturnSignal

    started = time.perf_counter()
    try:
        context.body_run(context.clone, context.env_copy)
    except SpeculationAbort as abort:
        context.aborted = str(abort)
    except (JSRuntimeError, JSThrownValue) as error:
        context.aborted = f"guest error during speculative chunk: {error}"
    except ReturnSignal:
        # A `return` taken inside the replayed body (legal in the serial run)
        # must not escape the chunk sandbox into the live interpreter's
        # enclosing function — it is a control-flow divergence: roll back.
        context.aborted = "guest return escaped the loop during speculative chunk"
    except RecursionError:  # pragma: no cover - defensive
        context.aborted = "host recursion limit during speculative chunk"
    context.wall_s = time.perf_counter() - started
    context.virtual_ms = context.clone.clock.now()
    if not context.aborted and context.clone.console_output:
        context.aborted = "console output during speculative chunk"
    if not context.aborted and context.want_digest:
        context.digest = heap_digest(
            context.env_copy, [context.fork.copy_of(root) for root in context.extra_roots]
        )


# ---------------------------------------------------------------------------
# multiprocessing replay (wall-clock mode)
# ---------------------------------------------------------------------------
#: Fork-inheritance handoff: populated immediately before the worker pool is
#: created, consumed by :func:`_mp_run_chunk` in the children, cleared after.
_MP_CONTEXTS: List[_ChunkContext] = []


def _chunk_report(context: _ChunkContext) -> Dict[str, Any]:
    """Replay one chunk (in whatever process we are in) and report plain data."""
    _execute_chunk(context)
    return {
        "index": context.index,
        "wall_s": context.wall_s,
        "virtual_ms": context.virtual_ms,
        "digest": context.digest,
        "aborted": context.aborted,
    }


def _mp_run_chunk(index: int) -> Dict[str, Any]:
    """Child-process entry point: replay one inherited chunk and report."""
    return _chunk_report(_MP_CONTEXTS[index])


def _assemble_wall_report(
    mode: str, results: List[Dict[str, Any]], count: int, serial_wall_s: float, elapsed: float
) -> Dict[str, Any]:
    by_index = {entry["index"]: entry for entry in results}
    chunk_walls = [by_index[i]["wall_s"] for i in range(count)]
    max_wall = max(chunk_walls) if chunk_walls else 0.0
    return {
        "mode": mode,
        "serial_wall_s": serial_wall_s,
        "chunk_wall_s": chunk_walls,
        "parallel_wall_s": max_wall,
        "pool_wall_s": elapsed,
        "wall_speedup": (serial_wall_s / max_wall) if max_wall > 0 else 1.0,
        "child_digests": [by_index[i]["digest"] for i in range(count)],
        "child_aborts": [by_index[i]["aborted"] for i in range(count)],
    }


def _run_chunks_on_pool(
    contexts: List[_ChunkContext], serial_wall_s: float, pool
) -> Dict[str, Any]:
    """Replay every chunk in fork-inherited children of a persistent pool.

    Chunk contexts hold live interpreter clones and cannot cross a pickle
    boundary, so the pool forks transient children *at call time*
    (:meth:`~repro.engine.workerpool.WorkerPool.run_inherited`) — the thunks
    inherit this process's memory, and concurrency is clamped to the CPU
    count under the pool's crash accounting.
    """
    thunks = [
        (lambda context=context: _chunk_report(context)) for context in contexts
    ]
    started = time.perf_counter()
    try:
        results = pool.run_inherited(thunks)
    except RuntimeError as error:  # closed pool (or spawn failure) degrades
        return {"error": f"pool chunk replay failed: {error}"}
    elapsed = time.perf_counter() - started
    failures = [entry for entry in results if isinstance(entry, BaseException)]
    if failures:
        return {"error": f"pool chunk replay failed: {failures[0]}"}
    return _assemble_wall_report("pool-fork", results, len(contexts), serial_wall_s, elapsed)


def _run_chunks_in_processes(
    contexts: List[_ChunkContext], serial_wall_s: float, pool=None
) -> Dict[str, Any]:
    """Replay every chunk in forked OS processes; returns the wall report.

    Children are forked *before* the in-process replay mutates the chunk
    forks, so both replays start from identical state; the children's state
    digests are cross-checked against the in-process ones by the caller.
    With a live persistent ``pool``, chunks run as the pool's fork-inherited
    children instead of a throwaway ``multiprocessing.Pool``.
    """
    import multiprocessing
    import os

    if "fork" not in multiprocessing.get_all_start_methods():
        return {"error": "fork start method unavailable"}
    if pool is not None and not pool.closed:
        return _run_chunks_on_pool(contexts, serial_wall_s, pool)
    global _MP_CONTEXTS
    _MP_CONTEXTS = contexts
    try:
        # Chunk count follows the speculation's worker count; real process
        # slots do not — never fork wider than the machine.
        width = max(1, min(len(contexts), os.cpu_count() or 1))
        pool_mp = multiprocessing.get_context("fork").Pool(processes=width)
    except (ImportError, OSError, ValueError) as error:
        _MP_CONTEXTS = []
        return {"error": f"could not fork worker pool: {error}"}
    try:
        started = time.perf_counter()
        results = pool_mp.map(_mp_run_chunk, range(len(contexts)))
        elapsed = time.perf_counter() - started
    except Exception as error:  # noqa: BLE001 - any child failure degrades to a report
        return {"error": f"process replay failed: {error}"}
    finally:
        pool_mp.terminate()
        pool_mp.join()
        _MP_CONTEXTS = []
    return _assemble_wall_report("fork", results, len(contexts), serial_wall_s, elapsed)


# ---------------------------------------------------------------------------
# the controller: intercepts targeted loop instances
# ---------------------------------------------------------------------------
class SpeculationController:
    """Installed on an interpreter; offered every ``for``/``for-in`` instance.

    Compiled loops call :meth:`should_intercept` once per new instance; the
    selected instance is handed to :meth:`run_instance`, which performs the
    fork → serial → parallel-replay → merge/validate dance and records a
    :class:`SpeculationOutcome`.
    """

    def __init__(
        self,
        target_loop_id: int,
        options: SpeculationOptions,
        machine: MachineModel = PAPER_MACHINE,
        label: str = "",
        line: int = 0,
        kind: str = "for",
        pool=None,
    ) -> None:
        self.target_loop_id = target_loop_id
        self.options = options
        self.machine = machine
        self.label = label or f"loop#{target_loop_id}"
        self.line = line
        self.kind = kind
        #: Optional persistent :class:`~repro.engine.workerpool.WorkerPool`
        #: whose fork-inherited children replace throwaway process pools.
        self.pool = pool
        self.outcomes: List[SpeculationOutcome] = []
        self._active = False
        self._instances_seen = 0

    def should_intercept(self, node) -> bool:
        if self._active or node.node_id != self.target_loop_id:
            return False
        selected = self._instances_seen == self.options.instance_index
        self._instances_seen += 1
        return selected

    def run_instance(self, rt: Interpreter, env: Environment, node, body_run) -> Any:
        self._active = True
        try:
            outcome = self._speculate(rt, env, node, body_run)
            self.outcomes.append(outcome)
        finally:
            self._active = False
        return UNDEFINED

    # ------------------------------------------------------------------ core
    def _outcome(self, **overrides: Any) -> SpeculationOutcome:
        base = dict(
            label=self.label,
            line=self.line,
            kind=self.kind,
            status="skipped",
            workers=self.options.workers,
            strategy=self.options.strategy,
        )
        base.update(overrides)
        return SpeculationOutcome(**base)

    def _speculate(self, rt: Interpreter, env: Environment, node, body_run) -> SpeculationOutcome:
        options = self.options
        extra_roots = (
            rt.global_env,
            rt.object_prototype,
            rt.array_prototype,
            rt.function_prototype,
        )
        # One fork per merge policy attempt plus the diff reference.
        baseline = fork_state(env, extra_roots)
        reduction_baseline = fork_state(env, extra_roots)
        forks = [fork_state(env, extra_roots) for _ in range(options.workers)]

        # ---- serial ground truth (the program continues from this state).
        counter = _TripCounter(node.node_id)
        rt.hooks.attach(counter)
        serial_start_ms = rt.clock.now()
        serial_start_wall = time.perf_counter()
        try:
            body_run(rt, env)
        finally:
            rt.hooks.detach(counter)
        serial_ms = rt.clock.now() - serial_start_ms
        serial_wall_s = time.perf_counter() - serial_start_wall
        trips = counter.trips or 0
        if trips <= 1:
            return self._outcome(
                status="skipped",
                reason=f"degenerate trip count ({trips})",
                trips=trips,
                serial_ms=serial_ms,
            )

        # ---- isolated parallel replay.
        chunks = options.partition(trips)
        contexts: List[_ChunkContext] = []
        for index, (fork, chunk) in enumerate(zip(forks, chunks)):
            bus = HookBus()
            tracer = _ChunkTracer(set(fork.membership))
            bus.attach(tracer)
            clone = _fork_context(rt, fork, bus)
            clone.iteration_filter = {node.node_id: frozenset(chunk.iterations)}
            contexts.append(
                _ChunkContext(
                    index=index,
                    fork=fork,
                    chunk=chunk,
                    clone=clone,
                    tracer=tracer,
                    env_copy=fork.copy_of(env),
                    body_run=body_run,
                    extra_roots=extra_roots,
                )
            )

        wall: Optional[Dict[str, Any]] = None
        if options.use_processes:
            for context in contexts:
                context.want_digest = True
            wall = _run_chunks_in_processes(contexts, serial_wall_s, pool=self.pool)
        for context in contexts:
            _execute_chunk(context)
        if wall is not None and "child_digests" in wall:
            wall["digest_match"] = all(
                child == parent.digest
                for child, parent in zip(wall.pop("child_digests"), contexts)
            )
            wall.pop("child_aborts", None)

        chunk_ms = [context.virtual_ms for context in contexts]
        aborted = [context for context in contexts if context.aborted]
        if aborted:
            return self._outcome(
                status="rolled-back",
                reason=aborted[0].aborted,
                trips=trips,
                serial_ms=serial_ms,
                chunk_ms=chunk_ms,
                wall=wall,
                parallel_ms=serial_ms,
            )

        # ---- write-sets, conflicts, merge.
        diffs = [diff_forks(baseline, context.fork) for context in contexts]
        if options.inject_conflict and len(diffs) >= 2:
            # Chaos knob: fabricate the same location written with differing
            # values by every worker, so the detector must fire (tests).
            for context, diff in zip(contexts, diffs):
                diff[(id(baseline), "__chaos__")] = float(context.index)
        conflicts, privatized, reductions, apply_order = self._detect_conflicts(
            baseline, contexts, diffs
        )
        if conflicts:
            return self._outcome(
                status="rolled-back",
                reason=f"conflict: {conflicts[0]}",
                trips=trips,
                serial_ms=serial_ms,
                chunk_ms=chunk_ms,
                conflicts=conflicts,
                wall=wall,
                parallel_ms=serial_ms,
            )

        # Merge + bit-identity validation.  Two policies for multi-writer
        # environment scalars: "privatize" (last iteration owner wins — the
        # per-iteration temporary shape) and "reduction" (sum of per-worker
        # deltas — the ``count++`` / running-total shape).  Either commit is
        # sound: the digest comparison below only passes when the merged
        # state is indistinguishable from the serial one.
        live_digest = heap_digest(env, extra_roots)
        policies = [("privatize", baseline)]
        if reductions:
            policies.append(("reduction", reduction_baseline))
        merge_policy = ""
        for policy, target in policies:
            for context, diff in apply_order:
                merge_diff(target, context.fork, self._policy_diff(policy, diff, reductions))
            if policy == "reduction":
                self._apply_reductions(target, diffs, reductions)
            merged_digest = heap_digest(
                target.copy_of(env), [target.copy_of(root) for root in extra_roots]
            )
            if merged_digest == live_digest:
                merge_policy = policy
                break
        if not merge_policy:
            return self._outcome(
                status="rolled-back",
                reason="merged state differs from serial state",
                trips=trips,
                serial_ms=serial_ms,
                chunk_ms=chunk_ms,
                privatized=privatized,
                reductions=len(reductions),
                state_identical=False,
                wall=wall,
                parallel_ms=serial_ms,
            )

        overhead_ms = serial_ms * self.machine.scheduling_overhead / max(options.workers, 1)
        worker_times = [
            context.virtual_ms + overhead_ms if len(context.chunk) else 0.0
            for context in contexts
        ]
        parallel_ms = max(worker_times) if worker_times else serial_ms
        parallel_ms = max(parallel_ms, 1e-9)
        return self._outcome(
            status="committed",
            trips=trips,
            serial_ms=serial_ms,
            parallel_ms=parallel_ms,
            executed_speedup=serial_ms / parallel_ms,
            chunk_ms=chunk_ms,
            privatized=privatized,
            reductions=len(reductions) if merge_policy == "reduction" else 0,
            merge_policy=merge_policy,
            state_identical=True,
            wall=wall,
        )

    @staticmethod
    def _policy_diff(
        policy: str, diff: Dict[Location, Any], reductions: Set[Location]
    ) -> Dict[Location, Any]:
        """A worker's write-set as seen by one merge policy.

        The reduction policy strips the reduction locations from the normal
        (last-writer-wins) application; :meth:`_apply_reductions` sets them.
        """
        if policy != "reduction" or not reductions:
            return diff
        return {location: value for location, value in diff.items() if location not in reductions}

    @staticmethod
    def _apply_reductions(
        target: HeapFork, diffs: List[Dict[Location, Any]], reductions: Set[Location]
    ) -> None:
        """Sum-reduction merge: base + Σ (worker final − base) per location."""
        for location in reductions:
            original_id, name = location
            binding_env = target.memo[original_id]
            base = float(binding_env.bindings[name])
            merged = base + sum(
                float(diff[location]) - base for diff in diffs if location in diff
            )
            # store_binding: slot-addressed frames keep slots in sync.
            binding_env.store_binding(name, merged)

    # ------------------------------------------------------------- conflicts
    def _detect_conflicts(
        self,
        baseline: HeapFork,
        contexts: List[_ChunkContext],
        diffs: List[Dict[Location, Any]],
    ) -> Tuple[
        List[str],
        int,
        Set[Location],
        List[Tuple[_ChunkContext, Dict[Location, Any]]],
    ]:
        """Write-write and read-write conflict detection across chunks.

        Returns ``(conflicts, privatized count, reduction candidates, merge
        order)``.  Multi-writer overlaps on *environment bindings* never hard
        conflict: per-iteration temporaries privatize (last iteration owner
        wins) and numeric scalars are additionally sum-reduction candidates —
        both policies are validated by the caller's bit-identity check.
        Shared-object overlaps with differing values, and upwards-exposed
        reads of another worker's writes (outside reduction candidates),
        are true conflicts.  The merge order sorts chunks by their last owned
        iteration so privatization matches serial last-write-wins semantics.
        """
        conflicts: List[str] = []
        privatized_locations: Set[Location] = set()
        reduction_candidates: Set[Location] = set()

        writers: Dict[Location, List[int]] = {}
        for index, diff in enumerate(diffs):
            for location in diff:
                writers.setdefault(location, []).append(index)

        def is_number(value: Any) -> bool:
            return isinstance(value, (int, float)) and not isinstance(value, bool)

        for location, writer_indexes in writers.items():
            if len(writer_indexes) <= 1:
                continue
            values = [diffs[index][location] for index in writer_indexes]
            target = baseline.memo.get(location[0])
            if isinstance(target, Environment):
                # Function-scoped scalars: an output dependence the paper
                # grades "trivially privatizable" — never a hard conflict.
                # Numeric ones with a numeric pre-state are additionally
                # sum-reduction candidates (the ``count++`` / running-total
                # shape); note equal per-worker partials do NOT mean serial
                # agreement for accumulators, so candidacy must come before
                # any silent-store shortcut.
                privatized_locations.add(location)
                base_value = target.bindings.get(location[1])
                if is_number(base_value) and all(is_number(value) for value in values):
                    reduction_candidates.add(location)
                continue
            first_fork = contexts[writer_indexes[0]].fork
            all_equal = all(
                _refs_equal(values[0], value, first_fork, contexts[writer_index].fork)
                for value, writer_index in zip(values[1:], writer_indexes[1:])
            )
            if all_equal:
                continue  # silent stores on shared objects are benign
            if len(conflicts) < _MAX_REPORTED_CONFLICTS:
                conflicts.append(
                    f"write-write on {self._describe(baseline, location)} "
                    f"by workers {writer_indexes}"
                )

        if not conflicts:
            for index, context in enumerate(contexts):
                for container, key in context.tracer.exposed_reads:
                    original = context.fork.original_of(container)
                    if original is None:
                        continue  # chunk-local object
                    location = (id(original), key)
                    if location in reduction_candidates:
                        continue  # the reduction merge accounts for these reads
                    for other_index in writers.get(location, ()):
                        if other_index != index:
                            conflicts.append(
                                f"read-write on {self._describe(baseline, location)} "
                                f"(worker {index} reads, worker {other_index} writes)"
                            )
                            break
                    if len(conflicts) >= _MAX_REPORTED_CONFLICTS:
                        break
                if len(conflicts) >= _MAX_REPORTED_CONFLICTS:
                    break

        order = sorted(
            zip(contexts, diffs),
            key=lambda pair: max(pair[0].chunk.iterations) if len(pair[0].chunk) else -1,
        )
        return (
            conflicts,
            len(privatized_locations - reduction_candidates),
            reduction_candidates,
            order,
        )

    @staticmethod
    def _describe(baseline: HeapFork, location: Location) -> str:
        original_id, key = location
        copy = baseline.memo.get(original_id)
        if isinstance(copy, Environment):
            return f"variable {key!r}"
        if isinstance(copy, JSArray):
            return f"array[{key}]"
        if copy is not None:
            return f"{copy.class_name}.{key}"
        return f"<injected>.{key}"


# ---------------------------------------------------------------------------
# the executor: whole-workload speculative validation
# ---------------------------------------------------------------------------
class SpeculativeExecutor:
    """Runs workloads with speculative re-execution of selected loop nests."""

    def __init__(
        self,
        script_cache=None,
        options: Optional[SpeculationOptions] = None,
        machine: MachineModel = PAPER_MACHINE,
        pool=None,
    ) -> None:
        self.script_cache = script_cache
        self.options = options if options is not None else SpeculationOptions()
        self.machine = machine
        #: Optional persistent :class:`~repro.engine.workerpool.WorkerPool`
        #: handed to every controller for process-mode chunk replay.
        self.pool = pool

    # ------------------------------------------------------------- one loop
    def speculate_loop(
        self,
        workload,
        line: int,
        force: bool = False,
        options: Optional[SpeculationOptions] = None,
    ) -> WorkloadSpeculation:
        """Run ``workload`` once, speculating the loop declared at ``line``.

        ``force=True`` skips the loop-kind gate (used by tests to demonstrate
        rollback on known-dependent nests).  The run's final state is the
        serial ground truth; its digest is returned for bit-identity checks.
        """
        from ..ceres.proxy import InstrumentationMode, execute_and_exercise, host_and_intercept

        options = options if options is not None else self.options
        proxy, documents = host_and_intercept(
            workload, InstrumentationMode.LOOP_PROFILE, script_cache=self.script_cache
        )

        site = proxy.registry.loop_for_line(line)
        run = WorkloadSpeculation(
            workload=workload.name, workers=options.workers, strategy=options.strategy
        )
        controller: Optional[SpeculationController] = None
        if site is None:
            run.outcomes.append(
                SpeculationOutcome(
                    label=f"(line {line})",
                    line=line,
                    kind="?",
                    status="skipped",
                    reason=f"no loop declared at line {line}",
                    workers=options.workers,
                    strategy=options.strategy,
                )
            )
        elif site.kind not in ("for", "for-in") and not force:
            run.outcomes.append(
                SpeculationOutcome(
                    label=site.label,
                    line=site.line,
                    kind=site.kind,
                    status="skipped",
                    reason=f"unsupported loop kind {site.kind!r} (only counted loops speculate)",
                    workers=options.workers,
                    strategy=options.strategy,
                )
            )
        else:
            controller = SpeculationController(
                site.node_id,
                options,
                machine=self.machine,
                label=site.label,
                line=site.line,
                kind=site.kind,
                pool=self.pool,
            )

        def attach(browser) -> None:
            browser.interp.speculation = controller

        browser = execute_and_exercise(workload, documents, on_start=attach)
        browser.interp.speculation = None

        if controller is not None:
            if controller.outcomes:
                run.outcomes.extend(controller.outcomes)
            else:
                run.outcomes.append(
                    SpeculationOutcome(
                        label=site.label,
                        line=site.line,
                        kind=site.kind,
                        status="skipped",
                        reason="target loop instance never executed",
                        workers=options.workers,
                        strategy=options.strategy,
                    )
                )
        run.final_digest = heap_digest(
            browser.interp.global_env,
            (
                browser.interp.object_prototype,
                browser.interp.array_prototype,
                browser.interp.function_prototype,
            ),
        )
        return run

    # ------------------------------------------------------ whole application
    def validate_application(self, workload, analysis) -> WorkloadSpeculation:
        """Speculate every DOALL-verdict nest of an analysed workload.

        ``analysis`` is the :class:`~repro.analysis.casestudy.ApplicationAnalysis`
        produced by the four-stage pipeline; its per-nest dependence verdicts
        feed the speculation gate, and the analytic
        :func:`~repro.parallel.executor.simulate_parallel_execution` outcome
        rides along for the executed-vs-modelled comparison.
        """
        options = self.options
        combined = WorkloadSpeculation(
            workload=workload.name, workers=options.workers, strategy=options.strategy
        )
        for nest in analysis.nests:
            modelled = simulate_parallel_execution(
                nest, self.machine, strategy=options.strategy, easy_cutoff=options.easy_cutoff
            )
            profile = nest.profile
            if not modelled.parallelizable:
                outcome = SpeculationOutcome(
                    label=profile.label,
                    line=profile.line,
                    kind=profile.kind,
                    status="skipped",
                    reason="dependence verdict: not parallelizable",
                    workers=options.workers,
                    strategy=options.strategy,
                )
            elif profile.kind not in ("for", "for-in"):
                outcome = SpeculationOutcome(
                    label=profile.label,
                    line=profile.line,
                    kind=profile.kind,
                    status="skipped",
                    reason=f"unsupported loop kind {profile.kind!r} (only counted loops speculate)",
                    workers=options.workers,
                    strategy=options.strategy,
                )
            else:
                run = self.speculate_loop(workload, profile.line)
                outcome = run.outcomes[0]
                combined.final_digest = run.final_digest
            outcome.modelled_parallel_ms = modelled.parallel_ms
            outcome.modelled_speedup = modelled.speedup
            combined.outcomes.append(outcome)
        return combined


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def render_speculation(name: str, speculation: WorkloadSpeculation) -> str:
    """Executed-vs-modelled report section for one workload."""
    lines = [
        f"Speculative re-execution: {name} "
        f"({speculation.workers} workers, {speculation.strategy} partitioning)",
        "-" * 78,
        f"{'nest':<18} {'kind':<8} {'trips':>5} {'serial(ms)':>11} "
        f"{'executed':>9} {'modelled':>9}  outcome",
    ]
    for outcome in speculation.outcomes:
        executed = f"{outcome.executed_speedup:.2f}x" if outcome.status != "skipped" else "-"
        modelled = f"{outcome.modelled_speedup:.2f}x" if outcome.modelled_speedup else "-"
        detail = outcome.status
        if outcome.reason:
            detail += f" ({outcome.reason})"
        lines.append(
            f"{outcome.label:<18} {outcome.kind:<8} {outcome.trips:>5d} "
            f"{outcome.serial_ms:>11.2f} {executed:>9} {modelled:>9}  {detail}"
        )
    committed = speculation.committed()
    if committed:
        lines.append(
            f"committed {len(committed)}/{len(speculation.outcomes)} nests; "
            "merged speculative state verified bit-identical to serial execution"
        )
    else:
        lines.append("no nest committed (rollback keeps the serial result)")
    return "\n".join(lines)
