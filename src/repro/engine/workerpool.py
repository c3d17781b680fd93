"""Persistent worker pool: the one way the pipeline uses more than one process.

:class:`~repro.engine.pipeline.AnalysisPipeline` uses one :class:`WorkerPool`
for three kinds of work, and runs each in process when the pool cannot:

* a case-study batch fans out across workloads, one analysis task each;
* with a disk-backed trace store, a cold trace is recorded on a worker,
  which also digests and encodes it into a temp segment file; the parent
  only publishes that file;
* with a disk-backed store, a warm replay runs on a worker that attaches
  the stored segment by reference and returns the finished result.

The serve daemon's cold keys and warm requests take the last two paths, so
neither guest execution nor trace replay holds the daemon's GIL.

* Workers are long-lived processes forked once per pool (lazily, as
  calls need them, or all at once through :meth:`WorkerPool.start` — the
  daemon forks the whole pool before it starts any thread) and reused
  across calls.  Each worker owns a persistent
  :class:`~repro.engine.cache.ScriptCache`,
  :class:`~repro.engine.cache.BytecodeCache` and
  :class:`~repro.engine.cache.TraceStore`.  Bytecode and any trace the
  parent already holds ship **once per worker**.
* Batch workers keep the traces they record.  Nothing is pickled back but
  the analysis; the parent learns which fingerprints a worker holds (its
  ``cache_keys``, see :meth:`WorkerPool.holdings`) and fetches one trace
  from its owner only when a caller asks for it.
* Concurrent submitters share the pool: each :meth:`WorkerPool.run_tasks`
  call claims idle workers under the pool lock and drives only those,
  outside it.  Within a call, tasks flow through per-worker deques with
  fingerprint affinity (a task for workload *F* goes to a claimed worker
  that already holds *F*).  Idle workers drain their own queue first, then
  steal from the longest sibling queue of the same call, so a batch of
  mixed-cost workloads keeps its workers busy.
* The parent and each worker speak a simple duplex pipe protocol.  The
  dispatch loop doubles as the heartbeat: it waits on worker pipes with a
  short timeout and polls ``Process.is_alive``; a dead worker's in-flight
  task is reassigned (its queue redistributed), a task that kills its worker
  twice ("poisoned") surfaces as a structured :class:`WorkerCrashError`, and
  :meth:`WorkerPool.close` is idempotent.
* Speculation chunks (:mod:`repro.parallel.speculative`) hold unpicklable
  interpreter clones and rely on fork-time memory inheritance, so they run
  through :func:`run_inherited`, which forks transient children at call
  time and needs no pool.

``REPRO_ENGINE_WORKERS`` (or an explicit ``width``) sizes the pool.
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set

from ..analysis.casestudy import CaseStudyRunner
from .cache import BytecodeCache, ScriptCache, TraceStore

logger = logging.getLogger(__name__)

#: How long the dispatch loop waits on worker pipes before re-polling
#: liveness — the heartbeat interval of the crash detector.
_HEARTBEAT_SECONDS = 0.2

#: A task whose worker dies is retried this many times before it is declared
#: poisoned and surfaced as a :class:`WorkerCrashError`.
_TASK_RETRIES = 1


class PoolUnavailableError(RuntimeError):
    """The platform cannot host a persistent pool (no ``fork`` support)."""


class UnknownWorkloadError(RuntimeError):
    """A worker's inherited registry cannot resolve a workload name.

    Workers fork once and inherit the registry as of that moment; a workload
    registered later is unknown to them.  The pipeline reacts by
    :meth:`WorkerPool.refresh`-ing (respawning workers against the current
    registry) and retrying once before running the batch serially.
    """


class WorkerCrashError(RuntimeError):
    """A task killed its worker on every attempt (the structured poison error)."""

    def __init__(self, label: str, attempts: int) -> None:
        super().__init__(
            f"pool task {label!r} crashed its worker on all {attempts} attempts"
        )
        self.label = label
        self.attempts = attempts


@dataclass
class PoolTask:
    """One unit of pool work.

    ``fn`` must be a module-level callable (pickled by reference) invoked in
    the worker as ``fn(context, heavy, *args)``.  ``heavy`` is a parent-side
    zero-argument callable building the expensive payload (recorded trace,
    serialized bytecode); it is invoked — and its result shipped — only when
    the receiving worker does not already cache ``cache_key``.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    cache_key: Optional[str] = None
    heavy: Optional[Callable[[], Optional[dict]]] = None
    label: str = ""
    attempts: int = 0


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
class PoolWorkerContext:
    """Per-worker persistent caches, rebuilt only when the worker respawns.

    The trace store holds what the worker's tasks left: batch recordings,
    sealed after their stages (:func:`~repro.engine.stages.run_stages`), and
    segment sources attached by reference; never a tuple list at rest.
    """

    def __init__(self) -> None:
        self.bytecode_cache = BytecodeCache()
        self.script_cache = ScriptCache(bytecode_cache=self.bytecode_cache)
        self.trace_store = TraceStore()
        self._session = None

    def session(self):
        """This worker's analysis session over its own caches (width 1, so
        it never forks a pool of its own); built on first use."""
        if self._session is None:
            from ..api.session import AnalysisSession

            self._session = AnalysisSession(
                workers=1, script_cache=self.script_cache, trace_store=self.trace_store
            )
        return self._session

    def install(self, workload, heavy: Optional[dict]) -> None:
        """Absorb a shipped heavy payload into the worker-local caches."""
        if not heavy:
            return
        trace = heavy.get("trace")
        if trace is not None:
            self.trace_store.put(trace)
        ref = heavy.get("trace_ref")
        if ref is not None:
            self._install_ref(ref)
        bytecode = heavy.get("bytecode")
        if bytecode:
            self.bytecode_cache.absorb(workload.scripts, bytecode)

    def _install_ref(self, ref: dict) -> bool:
        """Attach a shared on-disk segment by ``(path, digest)`` reference.

        The parent's disk-backed store wrote the segment; this worker opens
        the same file itself (binary segments mmap, so the page cache is
        shared across the whole pool) instead of receiving the trace over
        the pipe.  The header digest must match the reference and the
        segment must pass its one-time check (the footer hash; no column is
        decoded) before the source is installed at rest; any failure
        degrades to "not installed" — the task then re-records, it never
        replays a wrong trace.
        """
        from ..jsvm.hooks import Trace, TraceError, open_trace_source

        try:
            source = open_trace_source(ref["path"])
            if isinstance(source, Trace):
                # Legacy single-document segment: already fully decoded, and
                # indexed under the identity stores wrote for v1 segments.
                if source.legacy_digest() != ref["digest"]:
                    raise TraceError(
                        f"segment {ref['path']!r} digest does not match its reference"
                    )
                self.trace_store.put(source)
                return True
            if source.digest() != ref["digest"]:
                raise TraceError(
                    f"segment {ref['path']!r} digest does not match its reference"
                )
            source.check().retain_columns()
        except (TraceError, OSError, EOFError) as exc:
            logger.warning("pool worker could not attach segment ref: %s", exc)
            return False
        self.trace_store.install(source)
        return True

    def runner(self, runner_kwargs: Dict[str, Any]) -> CaseStudyRunner:
        return CaseStudyRunner(
            script_cache=self.script_cache,
            trace_store=self.trace_store,
            **runner_kwargs,
        )


def resolve_workload(name: str):
    """The registered workload ``name`` as this worker's registry knows it."""
    from ..workloads import get_workload

    try:
        return get_workload(name)
    except KeyError as exc:
        raise UnknownWorkloadError(
            f"workload {name!r} is not registered in this worker "
            "(registered after the pool forked?)"
        ) from exc


def fetch_trace_task(context: PoolWorkerContext, heavy, fingerprint: str, mask: int):
    """Pool task: hand over a trace this worker holds (``None`` if it has none).

    Always a :class:`~repro.jsvm.hooks.Trace`.  One the worker recorded in a
    batch ships as it is kept, sealed (:meth:`~repro.jsvm.hooks.Trace.seal`):
    the pipe carries its deflated slices and cached digest.  A source
    attached from a segment reference holds an mmap, which cannot cross the
    pipe, so it is loaded here.
    """
    from ..jsvm.hooks import Trace

    trace = context.trace_store.find(fingerprint, mask)
    if trace is None or isinstance(trace, Trace):
        return trace
    return trace.load()


def _portable_error(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else a string-preserving stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickle failure degrades to a string
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _safe_send(conn, message) -> None:
    """Send best-effort: unpicklable results degrade to an error message."""
    try:
        conn.send(message)
    except (BrokenPipeError, OSError):  # parent is gone; nothing to report to
        pass
    except Exception as exc:  # noqa: BLE001 - e.g. PicklingError on the value
        if message and message[0] == "result":
            _safe_send(
                conn,
                (
                    "error",
                    message[1],
                    RuntimeError(f"pool result did not pickle: {exc}"),
                ),
            )


def _apply_env(env: Dict[str, str]) -> None:
    """Mirror the parent's ``REPRO_*`` knobs (workers outlive env changes)."""
    for key in [k for k in os.environ if k.startswith("REPRO_") and k not in env]:
        del os.environ[key]
    os.environ.update(env)


def reset_worker_signals() -> None:
    """Leave interrupts to the parent in a forked worker.

    Ctrl-C reaches the whole process group, so workers ignore SIGINT and
    the parent decides what to do.  SIGTERM goes back to the default
    action: a fork inherits the CLI's handler, which raises
    ``KeyboardInterrupt``, and a worker the parent terminates would print
    that traceback instead of exiting quietly.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _worker_main(conn, parent_end, stale_conns) -> None:
    """Persistent worker loop: recv task → run → send result, until shutdown."""
    reset_worker_signals()
    parent_end.close()
    for stale in stale_conns:
        try:
            stale.close()
        except OSError:  # pragma: no cover - defensive fd hygiene
            pass
    context = PoolWorkerContext()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        except Exception as exc:  # noqa: BLE001 - e.g. the task fn fails to
            # unpickle (defined after this worker forked).  The parent maps an
            # error for task id -1 onto this worker's in-flight task.
            _safe_send(conn, ("error", -1, _portable_error(exc)))
            continue
        kind = message[0]
        if kind == "shutdown":
            break
        if kind == "ping":
            _safe_send(conn, ("pong", message[1]))
            continue
        _kind, task_id, fn, heavy, args, env = message
        _apply_env(env)
        before = set(context.trace_store.fingerprints())
        try:
            value = fn(context, heavy, *args)
        except Exception as exc:  # noqa: BLE001 - shipped to the parent intact
            _safe_send(conn, ("error", task_id, _portable_error(exc)))
            continue
        gained = [f for f in context.trace_store.fingerprints() if f not in before]
        _safe_send(conn, ("result", task_id, value, gained))
    conn.close()


def _inherited_main(thunk, conn) -> None:
    """Transient child for :func:`run_inherited` (fork-inherited)."""
    reset_worker_signals()
    try:
        value = thunk()
    except Exception as exc:  # noqa: BLE001 - shipped to the parent intact
        _safe_send(conn, ("error", 0, _portable_error(exc)))
    else:
        _safe_send(conn, ("result", 0, value, []))
    conn.close()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------
@dataclass
class _WorkerHandle:
    process: Any
    conn: Any
    #: Fingerprints (and other cache keys) this worker is known to hold.
    cache_keys: Set[str] = field(default_factory=set)
    queue: Deque[PoolTask] = field(default_factory=deque)
    inflight: Optional[PoolTask] = None
    inflight_id: int = -1
    tasks_done: int = 0
    #: True while a :meth:`WorkerPool.run_tasks` call drives this worker.
    claimed: bool = False

    @property
    def load(self) -> int:
        return len(self.queue) + (1 if self.inflight is not None else 0)


class WorkerPool:
    """Long-lived fork-based worker pool with work stealing and crash recovery.

    One pool per :class:`~repro.engine.pipeline.AnalysisPipeline`, forked on
    its first batch or by :meth:`start`.  Each :meth:`run_tasks` call (a
    single cold recording or warm replay is a call of one task) claims idle
    workers under the pool lock and drives them from the submitting thread
    outside it, so concurrent submitters run on distinct workers at once.
    """

    def __init__(self, width: Optional[int] = None) -> None:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            raise PoolUnavailableError("fork start method unavailable")
        self._context = multiprocessing.get_context("fork")
        from .pipeline import resolve_worker_count

        #: Maximum number of persistent workers (spawned lazily per batch).
        self.width = resolve_worker_count(width, 1 << 30)
        self._handles: List[_WorkerHandle] = []
        self._closed = False
        self._ping_token = 0
        #: Heavy-payload shipping evidence: whole traces pickled over pipes
        #: (count + serialized bytes) vs. ``(path, digest)`` segment
        #: references (zero trace bytes — the worker opens the file itself).
        self.traces_shipped = 0
        self.trace_bytes_shipped = 0
        self.trace_refs_shipped = 0
        import itertools
        import threading

        #: Guards the handle list, claims and counters; signalled whenever
        #: a worker is released, so waiting submitters re-check.
        self._changed = threading.Condition(threading.Lock())
        #: Nonzero while ``close``/``refresh``/``ping`` wait for every
        #: claimed worker to come back; new claims wait meanwhile.
        self._quiescing = 0
        #: Pool-wide task ids, so a reply meant for an earlier call is
        #: recognised as stale.
        self._wire_ids = itertools.count()

    # ------------------------------------------------------------- lifecycle
    @property
    def closed(self) -> bool:
        return self._closed

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (spawned so far; may be fewer than width).

        Reads a snapshot of the handle list without the pool lock, so a
        stats reader never waits out a batch in flight.
        """
        return [h.process.pid for h in list(self._handles) if h.process.is_alive()]

    def start(self) -> None:
        """Fork the pool's full width now rather than on demand.

        ``fork`` copies only the calling thread, and a lock another thread
        holds at that moment stays held in the child forever; a threaded
        server therefore starts its workers before its first thread.
        """
        with self._changed:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            self._handles = [h for h in self._handles if h.process.is_alive()]
            while len(self._handles) < self.width:
                self._spawn_worker()

    def holdings(self) -> Dict[int, frozenset]:
        """Cache keys (trace fingerprints) each live worker holds, by PID."""
        with self._changed:
            return {
                h.process.pid: frozenset(h.cache_keys)
                for h in self._handles
                if h.process.is_alive()
            }

    @contextmanager
    def _quiesced(self):
        """Hold the pool lock once no worker is claimed; claims wait meanwhile."""
        with self._changed:
            self._quiescing += 1
            try:
                self._changed.wait_for(lambda: not any(h.claimed for h in self._handles))
                yield
            finally:
                self._quiescing -= 1
                self._changed.notify_all()

    def ping(self) -> bool:
        """Heartbeat round-trip through every live worker."""
        with self._quiesced():
            if self._closed or not self._handles:
                return False
            self._ping_token += 1
            token = self._ping_token
            for handle in self._handles:
                try:
                    handle.conn.send(("ping", token))
                    if not handle.conn.poll(5.0):
                        return False
                    if handle.conn.recv() != ("pong", token):
                        return False
                except (OSError, EOFError):
                    return False
            return True

    def refresh(self) -> None:
        """Respawn workers on next use (re-inheriting registry and modules)."""
        with self._quiesced():
            self._stop_workers()

    def close(self) -> None:
        """Shut down every worker once running calls finish; idempotent."""
        with self._quiesced():
            if self._closed:
                return
            self._closed = True
            self._stop_workers()

    def _stop_workers(self) -> None:
        for handle in self._handles:
            try:
                handle.conn.send(("shutdown",))
            except (OSError, EOFError, BrokenPipeError):
                pass
        for handle in self._handles:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join(timeout=2.0)
        self._handles = []

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:  # noqa: BLE001 - never raise from a finalizer
            pass

    # --------------------------------------------------------------- spawning
    def _spawn_worker(self) -> _WorkerHandle:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        # Forked children inherit every open fd; hand the new worker the
        # parent ends of its siblings' pipes so it can close them — otherwise
        # a sibling's EOF detection could be delayed by this worker's copy.
        stale = [h.conn for h in self._handles]
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, parent_conn, stale),
            daemon=True,
            name="repro-pool-worker",
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(process=process, conn=parent_conn)
        self._handles.append(handle)
        return handle

    # --------------------------------------------------------------- batches
    def run_tasks(self, tasks: Sequence[PoolTask]) -> List[Any]:
        """Run ``tasks`` on the persistent workers; results in task order.

        The pool lock is held only to claim idle workers and to update
        shared handle state; the claimed workers are driven outside it, so
        concurrent submitters run side by side.  A one-task call takes an
        idle worker that holds its ``cache_key`` if there is one, else any
        idle worker — it never waits for a busy owner.  A batch claims
        every idle worker it can use, and its tasks are stolen only among
        them.  With no worker idle and the pool at full width, a call waits
        until one comes back.

        Worker exceptions propagate unchanged (first task order wins when
        several fail); a task that crashes its worker is retried once on a
        respawned worker, then surfaced as :class:`WorkerCrashError`.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        workers = self._claim(tasks)
        try:
            return self._drive(tasks, workers)
        finally:
            with self._changed:
                for handle in workers:
                    handle.claimed = False
                    # A call cut short leaves nothing queued; a late reply to
                    # its in-flight task carries a stale id and is dropped.
                    handle.queue.clear()
                    handle.inflight = None
                self._changed.notify_all()

    def _claim(self, tasks: List[PoolTask]) -> List[_WorkerHandle]:
        """Claim idle workers for ``tasks``, forking up to the width first."""
        key = tasks[0].cache_key if len(tasks) == 1 else None
        with self._changed:
            while True:
                if self._closed:
                    raise RuntimeError("WorkerPool is closed")
                if not self._quiescing:
                    self._handles = [
                        h for h in self._handles if h.claimed or h.process.is_alive()
                    ]
                    idle = [h for h in self._handles if not h.claimed]
                    while len(idle) < len(tasks) and len(self._handles) < self.width:
                        idle.append(self._spawn_worker())
                    if idle:
                        # Owners of the one task's key first (a stable sort).
                        idle.sort(key=lambda h: key is None or key not in h.cache_keys)
                        workers = idle[: len(tasks)]
                        for handle in workers:
                            handle.claimed = True
                        return workers
                self._changed.wait()

    def _drive(self, tasks: List[PoolTask], workers: List[_WorkerHandle]) -> List[Any]:
        """The dispatch loop over this call's claimed ``workers``."""
        from multiprocessing.connection import wait as connection_wait

        env = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
        unset = object()
        results: List[Any] = [unset] * len(tasks)
        errors: Dict[int, BaseException] = {}
        task_ids = {id(task): index for index, task in enumerate(tasks)}
        done = 0

        # Initial placement: fingerprint affinity first, then least loaded.
        for task in tasks:
            owners = [h for h in workers if task.cache_key in h.cache_keys]
            min(owners or workers, key=lambda h: h.load).queue.append(task)

        def requeue(task: PoolTask) -> None:
            min(workers, key=lambda h: h.load).queue.appendleft(task)

        def fail(task: PoolTask, error: BaseException) -> None:
            nonlocal done
            errors[task_ids[id(task)]] = error
            results[task_ids[id(task)]] = None
            done += 1

        def on_crash(handle: _WorkerHandle) -> None:
            """Reassign a dead worker's in-flight task and drain its queue."""
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
            handle.process.join(timeout=1.0)
            task = handle.inflight
            handle.inflight = None
            pending = list(handle.queue)
            handle.queue.clear()
            with self._changed:
                if handle in self._handles:
                    self._handles.remove(handle)
                workers.remove(handle)
                if not workers and done < len(tasks):
                    spare = self._spawn_worker()
                    spare.claimed = True
                    workers.append(spare)
            for queued in pending:
                requeue(queued)
            if task is None:
                return
            task.attempts += 1
            if task.attempts > _TASK_RETRIES:
                fail(task, WorkerCrashError(task.label or str(task.fn), task.attempts))
            else:
                logger.warning(
                    "pool worker died running %r; retrying on another worker",
                    task.label or task.fn,
                )
                requeue(task)

        def dispatch(handle: _WorkerHandle, task: PoolTask) -> bool:
            heavy = None
            if task.heavy is not None and (
                task.cache_key is None or task.cache_key not in handle.cache_keys
            ):
                heavy = task.heavy()
                if heavy:
                    trace = heavy.get("trace")
                    trace_bytes = len(pickle.dumps(trace)) if trace is not None else 0
                    with self._changed:
                        if trace is not None:
                            self.traces_shipped += 1
                            self.trace_bytes_shipped += trace_bytes
                        if heavy.get("trace_ref") is not None:
                            self.trace_refs_shipped += 1
            wire_id = next(self._wire_ids)
            try:
                handle.conn.send(("task", wire_id, task.fn, heavy, task.args, env))
            except pickle.PicklingError as exc:
                fail(task, exc)
                return True
            except (OSError, BrokenPipeError):
                handle.queue.appendleft(task)
                on_crash(handle)
                return False
            handle.inflight = task
            handle.inflight_id = wire_id
            return True

        while done < len(tasks):
            # Idle workers drain their own queues first, so a task placed by
            # affinity runs on the worker that holds its trace; only then do
            # workers still idle steal from the longest sibling queue.
            for handle in list(workers):
                while handle.inflight is None and handle.queue:
                    if not dispatch(handle, handle.queue.popleft()):
                        break
            for handle in list(workers):
                while handle.inflight is None:
                    victims = [h for h in workers if h.queue]
                    if not victims:
                        break
                    task = max(victims, key=lambda h: len(h.queue)).queue.pop()
                    if not dispatch(handle, task):
                        break
            if done >= len(tasks):
                break
            busy = [h for h in workers if h.inflight is not None]
            if not busy:
                # Queues drained into failures only; nothing left in flight.
                if any(h.queue for h in workers):
                    continue
                break
            ready = connection_wait(
                [h.conn for h in busy], timeout=_HEARTBEAT_SECONDS
            )
            for handle in busy:
                if handle.conn in ready:
                    try:
                        message = handle.conn.recv()
                    except (EOFError, OSError):
                        on_crash(handle)
                        continue
                    kind = message[0]
                    if kind == "pong" or message[1] not in (handle.inflight_id, -1):
                        continue  # a stale reply (ping, or a call cut short)
                    task = handle.inflight
                    handle.inflight = None
                    handle.tasks_done += 1
                    if kind == "result":
                        _k, _tid, value, gained = message
                        results[task_ids[id(task)]] = value
                        if gained:
                            with self._changed:
                                handle.cache_keys.update(gained)
                        done += 1
                    else:
                        fail(task, message[2])
                elif not handle.process.is_alive():
                    on_crash(handle)

        if errors:
            raise errors[min(errors)]
        return results


# ---------------------------------------------------------------------------
# fork-inherited chunks
# ---------------------------------------------------------------------------
def run_inherited(thunks: Sequence[Callable[[], Any]]) -> List[Any]:
    """Run thunks in transient forked children (state passes by fork).

    For work that cannot cross a pickle boundary — speculation chunk
    contexts hold live interpreter clones — children fork *at call time* so
    the thunks inherit the caller's memory.  Concurrency is clamped to the
    CPU count.  Each entry of the returned list is the thunk's value, the
    exception it raised, or :class:`WorkerCrashError` if its child died
    without reporting.  Raises :class:`PoolUnavailableError` without
    ``fork`` support.
    """
    import multiprocessing
    from multiprocessing.connection import wait as connection_wait

    if "fork" not in multiprocessing.get_all_start_methods():
        raise PoolUnavailableError("fork start method unavailable")
    context = multiprocessing.get_context("fork")
    limit = max(1, min(len(thunks), os.cpu_count() or 1))
    results: List[Any] = [None] * len(thunks)
    index = 0
    active: List[tuple] = []
    while index < len(thunks) or active:
        while index < len(thunks) and len(active) < limit:
            parent_conn, child_conn = context.Pipe(duplex=False)
            process = context.Process(
                target=_inherited_main,
                args=(thunks[index], child_conn),
                daemon=True,
                name="repro-pool-chunk",
            )
            process.start()
            child_conn.close()
            active.append((index, process, parent_conn))
            index += 1
        ready = connection_wait([conn for _i, _p, conn in active], timeout=_HEARTBEAT_SECONDS)
        still_active = []
        for slot, process, conn in active:
            if conn not in ready and process.is_alive():
                still_active.append((slot, process, conn))
                continue
            try:
                if conn in ready or conn.poll(0):
                    results[slot] = conn.recv()[2]
                else:
                    results[slot] = WorkerCrashError(f"inherited chunk #{slot}", 1)
            except (EOFError, OSError):
                results[slot] = WorkerCrashError(f"inherited chunk #{slot}", 1)
            conn.close()
            process.join(timeout=2.0)
        active = still_active
    return results
