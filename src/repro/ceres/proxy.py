"""The JS-CERES proxy pipeline (Figure 5 of the paper).

The original tool is "implemented as a proxy server sitting between the
browser and the web server.  The proxy instruments JavaScript code on its way
from the web server to the browser.  On finishing the analysis, the browser
sends the results back to the proxy, which then uploads them to github.com in
a human-readable format."

In this reproduction the network hops are in-process, but the pipeline keeps
the same stages and data flow:

1. the browser requests a document through the proxy,
2. the proxy fetches it from the :class:`OriginServer` and — for JavaScript
   documents — instruments it (parses it, indexes its loops/creation sites
   and marks which instrumentation mode it was prepared for),
3. the instrumented response is loaded into a :class:`BrowserSession`,
4. the user exercises the application,
5. results flow back to the proxy,
6. the proxy renders human-readable reports, commits them to the results
   repository and "pushes" them through the :class:`RemotePublisher`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..browser.window import BrowserSession
from ..jsvm.hooks import HookBus
from ..jsvm.parser import parse
from .ids import IndexRegistry
from .repository import RemotePublisher, ResultsRepository


class InstrumentationMode(Enum):
    """The three staged instrumentation modes of JS-CERES (Section 3)."""

    LIGHTWEIGHT = "lightweight profiling"
    LOOP_PROFILE = "loop profiling"
    DEPENDENCE = "dependence analysis"
    NONE = "uninstrumented"


@dataclass
class WebDocument:
    """A document served by the origin server."""

    path: str
    content: str
    content_type: str = "application/javascript"  # or "text/html"

    @property
    def is_javascript(self) -> bool:
        return self.content_type == "application/javascript"


class InstrumentedDocument:
    """A document after it passed through the proxy.

    ``program`` holds the parsed AST for JavaScript documents (the analogue of
    the rewritten source the real proxy would produce).
    """

    def __init__(self, document: WebDocument, mode: InstrumentationMode, program=None) -> None:
        self.document = document
        self.mode = mode
        self.program = program


class OriginServer:
    """Stands in for the web server hosting the application under analysis."""

    def __init__(self) -> None:
        self.documents: Dict[str, WebDocument] = {}
        self.request_log: List[str] = []

    def host(self, path: str, content: str, content_type: str = "application/javascript") -> WebDocument:
        document = WebDocument(path=path, content=content, content_type=content_type)
        self.documents[path] = document
        return document

    def host_scripts(self, scripts: List[Tuple[str, str]]) -> None:
        for path, source in scripts:
            self.host(path, source)

    def get(self, path: str) -> WebDocument:
        self.request_log.append(path)
        if path not in self.documents:
            raise KeyError(f"origin server has no document at {path!r}")
        return self.documents[path]


class InstrumentingProxy:
    """Intercepts documents, instruments JavaScript, and publishes results."""

    def __init__(
        self,
        origin: OriginServer,
        mode: InstrumentationMode = InstrumentationMode.LIGHTWEIGHT,
        repository: Optional[ResultsRepository] = None,
        publisher: Optional[RemotePublisher] = None,
        script_cache=None,
    ) -> None:
        self.origin = origin
        self.mode = mode
        self.registry = IndexRegistry()
        self.repository = repository if repository is not None else ResultsRepository()
        self.publisher = publisher if publisher is not None else RemotePublisher()
        #: Optional :class:`repro.engine.cache.ScriptCache`; when present, the
        #: proxy reuses parsed ASTs and loop indexes instead of re-parsing
        #: (parsing is deterministic, so node ids are identical either way).
        self.script_cache = script_cache
        self.instrumented: Dict[str, InstrumentedDocument] = {}
        self.intercepted_requests: List[str] = []

    # ------------------------------------------------------------------ step 1-3
    def request(self, path: str) -> InstrumentedDocument:
        """Browser-side request for ``path``; returns the instrumented response."""
        self.intercepted_requests.append(path)
        document = self.origin.get(path)
        if not document.is_javascript or self.mode is InstrumentationMode.NONE:
            instrumented = InstrumentedDocument(document, InstrumentationMode.NONE)
        elif self.script_cache is not None:
            program, index = self.script_cache.get(path, document.content)
            self.registry.add_index(index)
            instrumented = InstrumentedDocument(document, self.mode, program=program)
        else:
            program = parse(document.content, name=path)
            self.registry.add(program)
            instrumented = InstrumentedDocument(document, self.mode, program=program)
        self.instrumented[path] = instrumented
        return instrumented

    def request_all(self, paths: List[str]) -> List[InstrumentedDocument]:
        return [self.request(path) for path in paths]

    # ------------------------------------------------------------------ step 5-6
    def collect_results(self, report_name: str, report_text: str, time_ms: float = 0.0) -> str:
        """Receive results from the browser, store and publish them.

        Returns the commit id of the stored report.
        """
        path = f"reports/{report_name}.txt"
        self.repository.write_file(path, report_text)
        sources_path = f"sources/{report_name}.js"
        sources = "\n\n".join(
            f"// {doc.document.path}\n{doc.document.content}"
            for doc in self.instrumented.values()
            if doc.document.is_javascript
        )
        self.repository.write_file(sources_path, sources)
        commit = self.repository.commit(f"analysis results: {report_name}", time_ms=time_ms)
        self.publisher.push(self.repository)
        return commit.commit_id


# ---------------------------------------------------------------------------
# the host-and-run scaffold every instrumented execution shares
# ---------------------------------------------------------------------------
def host_and_intercept(
    workload,
    mode: InstrumentationMode,
    script_cache=None,
    repository: Optional[ResultsRepository] = None,
    publisher: Optional[RemotePublisher] = None,
) -> Tuple[InstrumentingProxy, List[InstrumentedDocument]]:
    """Steps 1-3: host ``workload``'s scripts and request each through a proxy.

    Returns ``(proxy, documents)``; the proxy's registry then indexes every
    loop and creation site.  Parsing never touches a virtual clock, so
    intercepting before the browser exists cannot perturb timings.
    """
    origin = OriginServer()
    origin.host_scripts(list(workload.scripts))
    proxy = InstrumentingProxy(
        origin,
        mode=mode,
        repository=repository,
        publisher=publisher,
        script_cache=script_cache,
    )
    return proxy, [proxy.request(path) for path, _source in workload.scripts]


def execute_and_exercise(
    workload,
    documents: Sequence[InstrumentedDocument],
    tracers: Sequence = (),
    tier: Optional[str] = None,
    on_start: Optional[Callable[[BrowserSession], None]] = None,
) -> BrowserSession:
    """Step 4: load ``documents`` into a fresh browser and exercise the app.

    ``tracers`` attach, in order, to the browser's hook bus once the page is
    prepared; ``on_start(browser)`` runs just before the first document
    executes.  Returns the browser, whose clock sits at the end of the run.
    """
    hooks = HookBus()
    browser = BrowserSession(hooks=hooks, title=workload.name, tier=tier)
    if hasattr(workload, "prepare"):
        workload.prepare(browser)
    for tracer in tracers:
        hooks.attach(tracer)
    if on_start is not None:
        on_start(browser)
    for document in documents:
        browser.run_document(document)
    workload.exercise(browser)
    return browser
