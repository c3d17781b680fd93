"""Source→AST caching for the analysis engine.

The case-study methodology runs every workload once per instrumentation mode
(plus once per inspected nest), and each run used to re-parse and re-index
the same JavaScript sources.  Parsing is deterministic — identical source
yields identical node ids — so the engine parses once per distinct
``(path, content)`` pair and shares the resulting AST and
:class:`~repro.ceres.ids.ProgramIndex` across sessions.  Because compiled
closures (see :mod:`repro.jsvm.compiler`) are cached on the AST nodes and
capture no interpreter state, AST reuse also amortizes compilation across
pipeline stages and modes.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, List, Optional, Tuple

from ..ceres.ids import ProgramIndex
from ..jsvm import ast_nodes as ast
from ..jsvm.hooks import Trace
from ..jsvm.parser import parse


def source_digest(source: str) -> str:
    """Stable hex digest of one script source."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def workload_fingerprint(workload) -> str:
    """Stable hex digest identifying a workload's name and exact sources.

    Two workload instances with the same fingerprint are the same unit of
    work; the pipeline uses this to decide whether a caller-supplied instance
    can be reconstructed from the registry in a fan-out worker.
    """
    digest = hashlib.sha256()
    digest.update(workload.name.encode("utf-8"))
    for path, source in workload.scripts:
        digest.update(b"\x00")
        digest.update(path.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(source.encode("utf-8"))
    return digest.hexdigest()


class ScriptCache:
    """Parse-once cache of ``(path, content)`` → ``(Program, ProgramIndex)``.

    When wired to a :class:`BytecodeCache`, every freshly parsed program is
    seeded with the cached register bytecode for its fingerprint (if any), so
    bytecode-tier runs skip lowering even on a parse miss — e.g. in a fan-out
    worker that received compiled scripts from the parent process.
    """

    def __init__(self, bytecode_cache: Optional["BytecodeCache"] = None) -> None:
        self._entries: Dict[Tuple[str, bytes], Tuple[ast.Program, ProgramIndex]] = {}
        self.bytecode_cache = bytecode_cache
        self.hits = 0
        self.misses = 0

    def get(self, path: str, source: str) -> Tuple[ast.Program, ProgramIndex]:
        """The parsed program and loop/creation-site index for a script."""
        key = (path, hashlib.sha256(source.encode("utf-8")).digest())
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            program = parse(source, name=path)
            if self.bytecode_cache is not None:
                self.bytecode_cache.seed(path, source, program)
            entry = (program, ProgramIndex(program))
            self._entries[key] = entry
        else:
            self.hits += 1
        return entry

    def __len__(self) -> int:
        return len(self._entries)


class BytecodeCache:
    """Script-fingerprint-keyed store of serialized register bytecode.

    Entries are the :meth:`~repro.jsvm.bytecode.CodeObject.to_bytes` payloads
    of lowered programs, keyed by the same ``(path, source)`` identity the
    :class:`ScriptCache` uses.  Payloads are plain bytes, so they cross
    process boundaries: the pipeline ships each workload's compiled scripts
    to its fan-out workers, which :meth:`absorb` them and rebind against
    their own parsed ASTs (parsing is deterministic, so ``node_id`` references
    resolve identically).
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, str], bytes] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def script_key(path: str, source: str) -> Tuple[str, str]:
        return (path, source_digest(source))

    def get(self, path: str, source: str) -> Optional[bytes]:
        with self._lock:
            data = self._entries.get(self.script_key(path, source))
        if data is None:
            self.misses += 1
        else:
            self.hits += 1
        return data

    def put(self, path: str, source: str, data: bytes) -> None:
        with self._lock:
            self._entries[self.script_key(path, source)] = data

    def prepare(self, path: str, source: str, program: ast.Program) -> bytes:
        """Serialized bytecode for ``program``, lowering once per fingerprint."""
        key = self.script_key(path, source)
        with self._lock:
            data = self._entries.get(key)
        if data is not None:
            self.hits += 1
            return data
        self.misses += 1
        from ..jsvm.bytecode import serialize_program_bytecode

        data = serialize_program_bytecode(program)
        with self._lock:
            self._entries[key] = data
        return data

    def seed(self, path: str, source: str, program: ast.Program) -> bool:
        """Install this cache's bytecode (if any) into a fresh ``program``."""
        data = self.get(path, source)
        if data is None:
            return False
        from ..jsvm.bytecode import seed_program_bytecode

        return seed_program_bytecode(program, data)

    def payload_for(self, scripts) -> Dict[str, bytes]:
        """``{path: payload}`` for the cached entries among ``scripts``."""
        payload: Dict[str, bytes] = {}
        for path, source in scripts:
            with self._lock:
                data = self._entries.get(self.script_key(path, source))
            if data is not None:
                payload[path] = data
        return payload

    def absorb(self, scripts, payload: Optional[Dict[str, bytes]]) -> None:
        """Store a shipped ``{path: payload}`` mapping (worker side)."""
        if not payload:
            return
        for path, source in scripts:
            data = payload.get(path)
            if data is not None:
                self.put(path, source, data)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class TraceStore:
    """Content-hash-keyed store of recorded event traces.

    Traces are keyed by the workload *fingerprint* (the content hash of its
    name and exact sources, :func:`workload_fingerprint`) and looked up by
    required event mask: a stored trace serves any request whose mask is a
    **subset** of its recorded mask, because per-event-class streams are
    mask-independent (see :mod:`repro.jsvm.hooks`).  This is what turns the
    staged pipeline's ~4N instrumented executions into "record once per
    (fingerprint, mask superset), replay per stage".

    An entry is anything :class:`~repro.jsvm.hooks.TraceReplayer` replays:
    a resident :class:`Trace` (what :meth:`put` keeps, so a batch sweep
    replays the trace it just recorded without encoding it) or a source at
    rest, such as an mmap'd
    :class:`~repro.jsvm.tracecodec.BinaryTraceSource` (what :meth:`install`
    takes).  A source is never decoded here: :meth:`find` hands it out as is
    and each replay decodes only the opcode groups its tracers subscribe to.

    The base class keeps everything in memory.  Backends with a second tier
    (e.g. :class:`repro.serve.store.DiskTraceStore`) override
    :meth:`_find_fallback` to resolve memory misses from elsewhere — the
    resolved entry is memorized and counted as a hit — and :meth:`put` to
    persist new recordings.  ``puts`` counts recordings entering the store
    through :meth:`put` (memorized fallback loads are excluded), which is the
    serving daemon's "exactly one guest execution" evidence.
    """

    def __init__(self) -> None:
        self._traces: Dict[str, list] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def find(self, fingerprint: str, required_mask: int):
        """A stored trace or source covering ``required_mask``, or ``None``.

        Among covering entries the one with the fewest extra event classes
        is preferred (replay cost scales with record count).  A second-tier
        hit is memorized.
        """
        with self._lock:
            candidates = [
                trace
                for trace in self._traces.get(fingerprint, ())
                if trace.covers(required_mask)
            ]
            if candidates:
                self.hits += 1
                return min(candidates, key=lambda trace: bin(trace.mask).count("1"))
        fallback = self._find_fallback(fingerprint, required_mask)
        if fallback is not None:
            self.install(fallback)
            with self._lock:
                self.hits += 1
            return fallback
        with self._lock:
            self.misses += 1
        return None

    def has(self, fingerprint: str, required_mask: int) -> bool:
        """Whether a covering trace exists, without loading or counting it."""
        with self._lock:
            return any(
                trace.covers(required_mask)
                for trace in self._traces.get(fingerprint, ())
            )

    def put(self, trace):
        """Store ``trace``, dropping stored traces it strictly covers."""
        self.install(trace)
        with self._lock:
            self.puts += 1
        return trace

    def install(self, trace):
        """Install a trace or source in the memory tier (no persistence, no
        count).

        ``trace`` needs ``fingerprint``, ``mask``, ``covers`` and
        ``chunks``, as :class:`Trace` and the trace sources have.
        Installing a newcomer evicts every sibling it covers; a *narrower*
        newcomer still installs alongside a broader sibling on purpose —
        replay cost scales with event count, so :meth:`find` prefers it for
        subset requests.  The whole install is atomic under the store lock.
        An evicted source is not closed: a replay may still be reading it.
        """
        with self._lock:
            kept = [
                existing
                for existing in self._traces.get(trace.fingerprint, [])
                if not trace.covers(existing.mask)
            ]
            kept.append(trace)
            self._traces[trace.fingerprint] = kept
        return trace

    def count_hit(self) -> None:
        """Count a hit served from this store's trace by another process (a
        pool worker replaying its segment), as :meth:`find` would have."""
        with self._lock:
            self.hits += 1

    def forget(self, fingerprint: str) -> None:
        """Drop ``fingerprint``'s memory-tier entries; a second tier keeps
        its copy, which the next :meth:`find` re-opens and re-checks."""
        with self._lock:
            self._traces.pop(fingerprint, None)

    def _find_fallback(self, fingerprint: str, required_mask: int):
        """Second-tier lookup hook for memory misses (None in the base store)."""
        return None

    def traces_for(self, fingerprint: str) -> List[Trace]:
        with self._lock:
            return list(self._traces.get(fingerprint, ()))

    def fingerprints(self) -> List[str]:
        with self._lock:
            return sorted(key for key, traces in self._traces.items() if traces)

    def clear(self) -> None:
        with self._lock:
            for traces in self._traces.values():
                for trace in traces:
                    close = getattr(trace, "close", None)
                    if close is not None:
                        close()
            self._traces.clear()

    def flush(self) -> None:
        """Persist any buffered state (no-op for the in-memory store)."""

    def close(self) -> None:
        """Flush and release the store (no-op beyond :meth:`flush` here)."""
        self.flush()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(traces) for traces in self._traces.values())
