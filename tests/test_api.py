"""Tests for the unified ``repro.api`` session layer and ``python -m repro``.

Covers the PR's acceptance surface: lossless ``RunResult`` JSON round trips
for every mode combination, composed single-pass runs matching staged runs
exactly, registry laziness (no workload imports on ``import repro.api``),
the deprecation shims, the unknown-focus-line error, the thread-safe
default-pipeline accessor and the CLI subcommands.
"""

import itertools
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.api import (
    ALL_TRACERS,
    AnalysisSession,
    DEPENDENCE,
    GECKO,
    LIGHTWEIGHT,
    LOOP_PROFILE,
    RunResult,
    RunSpec,
    UnknownFocusLineError,
)
from repro.workloads.nbody import STEP_FOR_LINE, make_nbody_workload

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def small_nbody():
    return make_nbody_workload(bodies=6, steps=3)


def run_in_subprocess(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


# --------------------------------------------------------------------- RunSpec
class TestRunSpec:
    def test_unknown_tracer_rejected(self):
        with pytest.raises(ValueError, match="unknown tracer"):
            RunSpec(tracers=frozenset({"heisenberg"}))

    def test_focus_requires_dependence(self):
        with pytest.raises(ValueError, match="dependence"):
            RunSpec(tracers=frozenset({LIGHTWEIGHT}), focus_line=10)

    def test_or_composition_merges_tracers_and_focus(self):
        spec = RunSpec.lightweight(with_gecko=False) | RunSpec.dependence(focus_line=23)
        assert spec.tracers == {LIGHTWEIGHT, DEPENDENCE}
        assert spec.focus_line == 23

    def test_or_composition_rejects_conflicting_focus(self):
        with pytest.raises(ValueError, match="conflicting"):
            RunSpec.dependence(focus_line=5) | RunSpec.dependence(focus_line=9)

    def test_commit_suffix_keeps_legacy_names(self):
        assert RunSpec.lightweight().commit_suffix() == "lightweight"
        assert RunSpec.lightweight(with_gecko=False).commit_suffix() == "lightweight"
        assert RunSpec.loop_profile().commit_suffix() == "loops"
        assert RunSpec.dependence().commit_suffix() == "dependence"
        assert RunSpec.uninstrumented().commit_suffix() is None
        composed = RunSpec.composed(LIGHTWEIGHT, LOOP_PROFILE, DEPENDENCE)
        assert composed.commit_suffix() == "lightweight+loops+dependence"

    def test_combined_mask_is_union_of_tracer_masks(self):
        from repro.jsvm.hooks import EV_LOOP

        assert RunSpec.uninstrumented().combined_mask() == 0
        assert RunSpec.lightweight(with_gecko=False).combined_mask() == EV_LOOP
        combined = RunSpec.composed(LIGHTWEIGHT, GECKO).combined_mask()
        assert combined & EV_LOOP
        assert combined > EV_LOOP

    def test_spec_dict_round_trip(self):
        spec = RunSpec.composed(LIGHTWEIGHT, DEPENDENCE, focus_line=23, publish=False)
        assert RunSpec.from_dict(spec.to_dict()) == spec


# ----------------------------------------------------------- RunResult schema
class TestRunResultRoundTrip:
    @pytest.fixture(scope="class")
    def session(self):
        with AnalysisSession() as session:
            yield session

    @pytest.mark.parametrize(
        "kinds",
        [
            combo
            for size in range(len(ALL_TRACERS) + 1)
            for combo in itertools.combinations(ALL_TRACERS, size)
        ],
        ids=lambda kinds: "+".join(kinds) or "uninstrumented",
    )
    def test_json_round_trip_for_every_mode_combination(self, session, kinds):
        focus = STEP_FOR_LINE if DEPENDENCE in kinds else None
        spec = RunSpec.composed(*kinds, focus_line=focus)
        result = session.run(small_nbody(), spec)
        data = result.to_dict()
        rehydrated = json.loads(json.dumps(data))
        assert rehydrated == data, "payloads must be JSON-native"
        assert RunResult.from_dict(rehydrated) == result
        assert RunResult.from_json(result.to_json()) == result
        assert result.modes == [kind for kind in ALL_TRACERS if kind in kinds]
        assert set(result.payloads) == set(kinds)

    def test_artifacts_excluded_from_schema_and_equality(self, session):
        result = session.run(small_nbody(), RunSpec.lightweight())
        assert result.artifacts is not None
        assert "artifacts" not in result.to_dict()
        clone = RunResult.from_dict(result.to_dict())
        assert clone.artifacts is None and clone == result

    def test_unsupported_schema_version_rejected(self, session):
        data = session.run(small_nbody(), RunSpec.uninstrumented()).to_dict()
        data["schema_version"] = 999
        with pytest.raises(ValueError, match="schema version"):
            RunResult.from_dict(data)


# ------------------------------------------------- composed vs staged passes
class TestComposedSinglePass:
    def test_composed_matches_staged_numbers_exactly(self):
        """A lightweight+gecko+loop_profile+dependence single pass reproduces
        each staged run's payload (the Table 2 / Table 3 inputs) exactly."""
        with AnalysisSession() as session:
            staged_light = session.run(small_nbody(), RunSpec.lightweight())
            staged_loops = session.run(small_nbody(), RunSpec.loop_profile())
            staged_deps = session.run(small_nbody(), RunSpec.dependence(focus_line=STEP_FOR_LINE))
            composed = session.run(
                small_nbody(),
                RunSpec.composed(
                    LIGHTWEIGHT, GECKO, LOOP_PROFILE, DEPENDENCE, focus_line=STEP_FOR_LINE
                ),
            )
        assert composed.payloads[LIGHTWEIGHT] == staged_light.payloads[LIGHTWEIGHT]
        assert composed.payloads[GECKO] == staged_light.payloads[GECKO]
        assert composed.payloads[LOOP_PROFILE] == staged_loops.payloads[LOOP_PROFILE]
        assert composed.payloads[DEPENDENCE] == staged_deps.payloads[DEPENDENCE]
        assert composed.clock_seconds == staged_light.clock_seconds
        # Table 2 scalars derived from the composed pass equal the staged ones.
        assert composed.total_seconds == staged_light.total_seconds
        assert composed.loops_seconds == staged_light.loops_seconds
        assert composed.active_seconds == staged_light.active_seconds

    def test_composed_report_contains_each_staged_section(self):
        with AnalysisSession() as session:
            staged_light = session.run(small_nbody(), RunSpec.lightweight())
            staged_loops = session.run(small_nbody(), RunSpec.loop_profile())
            composed = session.run(small_nbody(), RunSpec.composed(LIGHTWEIGHT, GECKO, LOOP_PROFILE))
        assert staged_light.report_text in composed.report_text
        assert staged_loops.report_text in composed.report_text

    def test_baseline_run_commits_nothing(self):
        with AnalysisSession() as session:
            result = session.run(small_nbody(), RunSpec.uninstrumented())
            assert result.commit_id is None
            assert result.payloads == {}
            assert result.clock_seconds > 0
            assert session.repository.commits == []


# ----------------------------------------------------------- focus-line error
class TestUnknownFocusLine:
    def test_session_raises_with_known_lines(self):
        with AnalysisSession() as session:
            with pytest.raises(UnknownFocusLineError) as excinfo:
                session.run(small_nbody(), RunSpec.dependence(focus_line=99999))
        assert excinfo.value.focus_line == 99999
        assert STEP_FOR_LINE in excinfo.value.known_lines
        assert str(STEP_FOR_LINE) in str(excinfo.value)

# ------------------------------------------------------------------ laziness
class TestRegistryLaziness:
    def test_import_repro_api_pulls_no_workload_modules(self):
        completed = run_in_subprocess(
            "import sys\n"
            "import repro.api\n"
            "leaked = [m for m in sys.modules if m.startswith('repro.workloads')]\n"
            "assert not leaked, f'workload modules imported: {leaked}'\n"
            "print('clean')\n"
        )
        assert completed.returncode == 0, completed.stderr
        assert "clean" in completed.stdout

    def test_get_workload_imports_only_the_requested_module(self):
        completed = run_in_subprocess(
            "import sys\n"
            "from repro.workloads import get_workload, workload_names\n"
            "names = workload_names()\n"
            "assert len(names) == 12 and names[0] == 'HAAR.js'\n"
            "assert not [m for m in sys.modules if m.startswith('repro.workloads.') "
            "and m.split('.')[-1] not in ('base',)], 'names() must not import modules'\n"
            "w = get_workload('fluidSim')\n"
            "assert w.name == 'fluidSim'\n"
            "assert 'repro.workloads.fluidsim' in sys.modules\n"
            "assert 'repro.workloads.haar' not in sys.modules\n"
            "print('lazy')\n"
        )
        assert completed.returncode == 0, completed.stderr
        assert "lazy" in completed.stdout

    @pytest.mark.parametrize("args", [["list"], ["list", "--workloads"]])
    def test_cli_list_imports_no_analysis_stack(self, args):
        completed = run_in_subprocess(
            "import runpy, sys\n"
            f"sys.argv = ['repro', *{args!r}]\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exit_:\n"
            "    assert exit_.code == 0, exit_.code\n"
            "heavy = [m for m in ('numpy', 'repro.jsvm', 'repro.api.session') if m in sys.modules]\n"
            "assert not heavy, f'list imported {heavy}'\n"
        )
        assert completed.returncode == 0, completed.stderr
        assert "fluidSim" in completed.stdout or "table2-runtime" in completed.stdout

    def test_serve_client_imports_no_session(self):
        completed = run_in_subprocess(
            "import sys\n"
            "import repro.serve.client\n"
            "assert 'repro.api.session' not in sys.modules\n"
            "print('pure client')\n"
        )
        assert completed.returncode == 0, completed.stderr
        assert "pure client" in completed.stdout

    def test_daemon_and_canvas_workload_never_import_numpy(self):
        completed = run_in_subprocess(
            "import sys\n"
            "import repro.serve.server\n"
            "from repro.api import AnalysisSession, RunSpec\n"
            "with AnalysisSession() as session:\n"
            "    session.run('CamanJS', RunSpec.uninstrumented())\n"
            "assert 'numpy' not in sys.modules\n"
            "print('no numpy')\n"
        )
        assert completed.returncode == 0, completed.stderr
        assert "no numpy" in completed.stdout

    def test_register_workload_plugin_hook(self):
        from repro.workloads.base import REGISTRY, Workload, register_workload

        @register_workload("api-test-plugin")
        def make_plugin():
            return Workload(
                name="api-test-plugin",
                category="Visualization",
                description="out-of-tree scenario",
                url="test://plugin",
                scripts=[("plugin.js", "for (var i = 0; i < 4; i++) {}")],
            )

        try:
            assert "api-test-plugin" in REGISTRY.names()
            with AnalysisSession() as session:
                result = session.run("api-test-plugin", RunSpec.lightweight(with_gecko=False))
            assert result.workload == "api-test-plugin"
            assert result.payloads[LIGHTWEIGHT]["top_level_loop_entries"] == 1
        finally:
            REGISTRY._factories.pop("api-test-plugin", None)


# --------------------------------------------------------------------- shims
class TestShimsRemoved:
    """The PR-2 deprecation shims completed their two-PR window and are gone.

    ``repro.api`` is the only entry layer; these tests pin the removal so a
    stray re-export cannot silently resurrect the legacy surface.
    """

    def test_jsceres_facade_is_gone(self):
        import repro.ceres as ceres

        for name in ("JSCeres", "LightweightRun", "LoopProfileRun", "DependenceRun"):
            assert not hasattr(ceres, name), f"repro.ceres.{name} should be removed"
            assert name not in ceres.__all__
        with pytest.raises(ImportError):
            from repro.ceres import JSCeres  # noqa: F401

    def test_run_case_study_shim_is_gone(self):
        import repro.experiments as experiments

        assert not hasattr(experiments, "run_case_study")
        with pytest.raises(ImportError):
            from repro.experiments import run_case_study  # noqa: F401

    def test_session_covers_the_legacy_surface(self):
        # The replacement in the migration table really does the old job.
        with AnalysisSession() as session:
            light = session.run(small_nbody(), RunSpec.lightweight())
            deps = session.run(
                small_nbody(), RunSpec.dependence(focus_line=STEP_FOR_LINE)
            )
            baseline = session.run(small_nbody(), RunSpec.uninstrumented())
        assert 0 < light.loops_seconds <= light.total_seconds + 1e-9
        assert deps.artifacts.dependence_report.warnings
        assert "ok dependence" in deps.report_text
        assert baseline.clock_seconds > 0
        assert len(session.repository.commits) == 2


# ------------------------------------------------------------- thread safety
class TestDefaultPipelineThreadSafety:
    def test_concurrent_accessors_share_one_pipeline(self):
        import repro.experiments.registry as registry_module

        original = registry_module._DEFAULT_SESSION
        registry_module._DEFAULT_SESSION = None
        try:
            barrier = threading.Barrier(8)
            results = []

            def grab():
                barrier.wait()
                results.append(registry_module.get_default_pipeline())

            threads = [threading.Thread(target=grab) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(results) == 8
            assert len({id(pipeline) for pipeline in results}) == 1
        finally:
            registry_module._DEFAULT_SESSION = original


# ------------------------------------------------------------------------ CLI
class TestCli:
    def test_list_prints_every_experiment(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("table2-runtime", "table3-loopnests", "fig6-nbody"):
            assert experiment_id in out

    def test_list_workloads(self, capsys):
        from repro.__main__ import main

        assert main(["list", "--workloads"]) == 0
        out = capsys.readouterr().out
        assert "fluidSim" in out and "HAAR.js" in out

    def test_run_matches_registry_output_byte_for_byte(self, capsys):
        from repro.__main__ import main
        from repro.experiments.registry import run_experiment

        assert main(["run", "fig6-nbody"]) == 0
        out = capsys.readouterr().out
        assert run_experiment("fig6-nbody") in out

    def test_run_json_envelope(self, capsys):
        from repro.__main__ import main

        assert main(["run", "fig6-nbody", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope[0]["id"] == "fig6-nbody"
        assert envelope[0]["artifact"].startswith("Figure 6")
        assert "ok dependence" in envelope[0]["output"]

    def test_run_unknown_experiment_fails(self, capsys):
        from repro.__main__ import main

        assert main(["run", "not-an-experiment"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_report_json_restricted_to_one_workload(self, capsys):
        from repro.__main__ import main

        assert main(["report", "--json", "--workloads", "Normal Mapping"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [row["Name"] for row in report["table2"]] == ["Normal Mapping"]
        assert report["table3"], "Normal Mapping has hot nests"

    def test_report_unknown_workload_fails(self, capsys):
        from repro.__main__ import main

        assert main(["report", "--workloads", "fluidsim"]) == 2  # wrong case
        err = capsys.readouterr().err
        assert "unknown workloads: fluidsim" in err
        assert "fluidSim" in err

    def test_no_command_prints_help(self, capsys):
        from repro.__main__ import main

        assert main([]) == 2
        out = capsys.readouterr().out
        assert "list" in out and "report" in out
