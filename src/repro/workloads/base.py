"""Workload abstraction and the Table 1 registry.

A :class:`Workload` bundles the mini-JS source of one case-study application
with the host-side code that prepares the page and exercises the app the way
a user would (step 4 of the paper's Figure 5).  The registry mirrors Table 1
of the paper: twelve applications chosen as "the most mature implementations
of the various trends identified by the survey respondents".

The original applications are real-world JavaScript code bases; here each
workload re-implements the application's *computational kernel* — the loops
the paper actually inspects — with the same loop structure, DOM/Canvas usage,
recursion behaviour and trip-count profile.  See DESIGN.md for the
substitution rationale.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # the manifest and names stay importable without the VM
    from ..browser.window import BrowserSession

#: Survey trend categories (Figure 1) used to tag each workload.
CATEGORY_USER_RECOGNITION = "User recognition"
CATEGORY_GAMES = "Games"
CATEGORY_AUDIO_VIDEO = "Audio and Video"
CATEGORY_PRODUCTIVITY = "Productivity"
CATEGORY_VISUALIZATION = "Visualization"


@dataclass
class Workload:
    """One case-study application."""

    name: str
    category: str
    description: str
    url: str
    scripts: List[Tuple[str, str]]
    prepare_fn: Optional[Callable[[BrowserSession], None]] = None
    exercise_fn: Optional[Callable[[BrowserSession], None]] = None
    #: Approximate scale knob used by drivers (grid size, pixel count, ...).
    scale: float = 1.0

    def prepare(self, session: BrowserSession) -> None:
        """Host-side page setup (canvas elements, input data)."""
        if self.prepare_fn is not None:
            self.prepare_fn(session)

    def exercise(self, session: BrowserSession) -> None:
        """Drive the application the way a user would."""
        if self.exercise_fn is not None:
            self.exercise_fn(session)

    def table1_row(self) -> dict:
        return {"Name/URL": f"{self.name} / {self.url}", "Category/Description": f"{self.category} / {self.description}"}


#: Declarative manifest of the built-in case-study workloads, in Table 1
#: order: workload name → module (relative to this package) whose import
#: registers the factory.  Nothing here is imported until a workload is
#: actually requested, so ``import repro.api`` (or this module) stays
#: side-effect-free.
WORKLOAD_MANIFEST: Dict[str, str] = {
    "HAAR.js": "haar",
    "Tear-able Cloth": "cloth",
    "CamanJS": "caman",
    "fluidSim": "fluidsim",
    "Harmony": "harmony",
    "Ace": "ace",
    "MyScript": "myscript",
    "Realtime Raytracing": "raytrace",
    "Normal Mapping": "normalmap",
    "sigma.js": "sigma",
    "processing.js": "processing",
    "D3.js": "d3map",
}


class WorkloadRegistry:
    """Registry of the case-study workloads (Table 1).

    Built-in workloads are declared in a *manifest* (name → module) and
    loaded lazily, one module per requested name; out-of-tree scenarios plug
    in through :func:`register_workload` and need no manifest entry.
    """

    def __init__(self, manifest: Optional[Dict[str, str]] = None) -> None:
        self._manifest: Dict[str, str] = dict(manifest or {})
        self._factories: Dict[str, Callable[[], Workload]] = {}

    def register(self, name: str, factory: Callable[[], Workload]) -> None:
        self._factories[name] = factory

    def names(self) -> List[str]:
        """Every known name: manifest entries (Table 1 order) + plugins."""
        extras = [name for name in self._factories if name not in self._manifest]
        return list(self._manifest) + extras

    def loaded_names(self) -> List[str]:
        """Names whose factory is already materialized (no imports triggered)."""
        return list(self._factories)

    def _load(self, name: str) -> None:
        """Import the one module that registers ``name``."""
        module_name = self._manifest[name]
        importlib.import_module(f".{module_name}", __package__)
        if name not in self._factories:
            raise RuntimeError(
                f"module {module_name!r} did not register workload {name!r}"
            )

    def create(self, name: str) -> Workload:
        if name not in self._factories:
            if name in self._manifest:
                self._load(name)
            else:
                raise KeyError(f"unknown workload {name!r}; known: {sorted(self.names())}")
        return self._factories[name]()

    def create_all(self) -> List[Workload]:
        return [self.create(name) for name in self.names()]


#: Global registry: built-ins come from the manifest (loaded lazily); the
#: workload modules register their factories on import via the decorator.
REGISTRY = WorkloadRegistry(manifest=WORKLOAD_MANIFEST)


def register_workload(name: str):
    """Decorator registering a zero-argument workload factory.

    This is the plugin hook for out-of-tree scenarios: any package can
    register a workload under a new name and it becomes runnable through
    :meth:`repro.api.AnalysisSession.run` and the ``python -m repro`` CLI.
    """

    def decorator(factory: Callable[[], Workload]) -> Callable[[], Workload]:
        REGISTRY.register(name, factory)
        return factory

    return decorator


def get_workload(name: str) -> Workload:
    """Instantiate a workload by name (loading only its module, lazily)."""
    return REGISTRY.create(name)


def all_workloads() -> List[Workload]:
    """Instantiate every registered case-study workload (Table 1 order)."""
    return REGISTRY.create_all()


def workload_names() -> List[str]:
    """Every known workload name — no workload module is imported."""
    return REGISTRY.names()


def table1() -> List[dict]:
    """The Table 1 rows (name/URL and category/description)."""
    return [workload.table1_row() for workload in all_workloads()]
