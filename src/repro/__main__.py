"""One command-line front door: ``python -m repro <subcommand>``.

Subcommands (those that run analyses share one
:class:`~repro.api.session.AnalysisSession`; each subparser declares
``needs_session``, and ``list``, ``trace info``, ``serve`` and ``submit``
never build one, so they import no analysis code they do not run):

* ``list`` — available experiments (``--workloads`` for workload names);
* ``run <id ...>`` — run experiments by id (``--json`` for a JSON envelope);
* ``experiments`` — run every registered experiment (the full reproduction);
* ``report`` — the case-study report (Tables 2-3 + Amdahl bounds), with
  ``--json`` for machine-readable rows and ``--workloads`` to restrict the
  batch;
* ``trace record|replay|info`` — the record-once / replay-many trace layer:
  capture a workload's full event trace to a file, replay any tracer subset
  from it (byte-identical reports, no guest execution), or inspect one;
* ``serve`` — the analysis-as-a-service daemon (HTTP+JSON, disk-backed
  trace store, single-flight dedup; see :mod:`repro.serve`);
* ``submit`` — client for a running ``serve`` daemon.

``python -m repro.experiments`` remains as the legacy entry point.

SIGINT/SIGTERM exit cleanly with code 130 (no traceback): cleanup handlers
run — the serve daemon flushes its disk store index — and the interruption
is reported in one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading


def _cmd_list(session, args) -> int:
    from .experiments.registry import build_registry

    if args.workloads:
        from .workloads import workload_names

        names = workload_names()
        if args.json:
            # One row per workload with its content fingerprint, so clients
            # can key serve submissions and cache lookups without running
            # anything (the daemon's /v1/workloads reports the same rows).
            from .engine.cache import workload_fingerprint
            from .workloads import get_workload

            rows = [
                {"name": name, "fingerprint": workload_fingerprint(get_workload(name))}
                for name in names
            ]
            print(json.dumps(rows, indent=2))
        else:
            for name in names:
                print(name)
        return 0
    registry = build_registry(session=session)
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "id": experiment.experiment_id,
                        "artifact": experiment.paper_artifact,
                        "description": experiment.description,
                    }
                    for experiment in registry.values()
                ],
                indent=2,
            )
        )
        return 0
    for experiment_id, experiment in registry.items():
        print(f"{experiment_id:<22} {experiment.paper_artifact:<22} {experiment.description}")
    return 0


def _run_experiments(session, experiment_ids, as_json: bool) -> int:
    registry = session.experiments()
    selected = experiment_ids if experiment_ids is not None else list(registry)
    unknown = [name for name in selected if name not in registry]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(registry)}", file=sys.stderr)
        return 2
    if as_json:
        envelope = [
            {
                "id": experiment_id,
                "artifact": registry[experiment_id].paper_artifact,
                "description": registry[experiment_id].description,
                "output": registry[experiment_id].run(),
            }
            for experiment_id in selected
        ]
        print(json.dumps(envelope, indent=2))
        return 0
    for experiment_id in selected:
        experiment = registry[experiment_id]
        print(f"=== {experiment.experiment_id} ({experiment.paper_artifact}) ===")
        print(experiment.run())
        print()
    return 0


def _cmd_run(session, args) -> int:
    if args.speculate:
        return _cmd_run_speculate(session, args)
    if not args.experiments:
        print("run: experiment ids required (or use --speculate)", file=sys.stderr)
        return 2
    return _run_experiments(session, args.experiments, args.json)


def _cmd_run_speculate(session, args) -> int:
    """``run --speculate [workload ...]``: executed vs modelled speedup per nest."""
    from .api.spec import RunSpec
    from .workloads import workload_names

    known = workload_names()
    names = args.experiments or known
    if not names:
        print("run --speculate: no workloads given and none are registered", file=sys.stderr)
        print("usage: python -m repro run --speculate [workload ...]", file=sys.stderr)
        return 2
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(known)}", file=sys.stderr)
        return 2
    spec = RunSpec.speculate(
        workers=args.spec_workers,
        strategy=args.spec_strategy,
        processes=args.spec_processes,
    )
    if args.tier is not None:
        spec = spec.with_tier(args.tier)
    envelope = []
    for name in names:
        result = session.run(name, spec)
        if args.json:
            envelope.append(result.to_dict())
        else:
            print(result.report_text)
            print()
    if args.json:
        print(json.dumps(envelope, indent=2))
    return 0


def _cmd_experiments(session, args) -> int:
    return _run_experiments(session, None, as_json=False)


def _cmd_report(session, args) -> int:
    if args.workloads:
        from .workloads import workload_names

        known = workload_names()
        unknown = [name for name in args.workloads if name not in known]
        if unknown:
            print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
            print(f"known: {', '.join(known)}", file=sys.stderr)
            return 2
    result = session.case_study(args.workloads or None)
    tables = result.tables
    if args.json:
        print(
            json.dumps(
                {
                    "table2": [row.as_dict() for row in tables.table2],
                    "table3": [row.as_dict() for row in tables.table3],
                },
                indent=2,
            )
        )
        return 0
    print(tables.render_table2())
    print()
    print(tables.render_table3())
    print()
    print(tables.render_speedups())
    return 0


def _trace_slug(name: str) -> str:
    import re

    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_") or "workload"


def _cmd_trace(session, args) -> int:
    from .jsvm.hooks import Trace, TraceError, describe_mask, open_trace_source

    if args.trace_command == "record":
        from .jsvm import tracecodec
        from .workloads import workload_names

        known = workload_names()
        if args.workload not in known:
            print(f"unknown workload: {args.workload}", file=sys.stderr)
            print(f"known: {', '.join(known)}", file=sys.stderr)
            return 2
        trace = session.record_trace(args.workload)
        path = args.output or f"{_trace_slug(args.workload)}.trace.bin"
        chunks = tracecodec.write_binary_trace(
            trace, path, chunk_events=args.chunk_events
        )
        layout = "1 chunk" if chunks <= 1 else f"{chunks} chunks"
        print(
            f"recorded {len(trace.events)} events "
            f"[{describe_mask(trace.mask)}] for {trace.workload!r} "
            f"-> {path} (binary, {layout})"
        )
        return 0

    if not getattr(args, "file", None):
        print(
            f"trace {args.trace_command}: a trace file is required "
            "(record one with `python -m repro trace record <workload>`)",
            file=sys.stderr,
        )
        return 2
    try:
        # A chunked file opens as a streaming source: info and replay then
        # walk it chunk-at-a-time and never hold the full event list.
        trace = open_trace_source(args.file)
    except TraceError as exc:
        print(f"trace {args.trace_command}: {exc}", file=sys.stderr)
        return 2
    streamed = not isinstance(trace, Trace)

    if args.trace_command == "info":
        try:
            if streamed:
                tables = trace.table_counts()
                events_total = trace.event_count
            else:
                tables = {
                    "strings": len(trace.strings),
                    "nodes": len(trace.nodes),
                    "objects": len(trace.objects),
                }
                events_total = len(trace.events)
            event_counts = trace.event_counts()
        except TraceError as exc:
            print(f"trace info: {exc}", file=sys.stderr)
            return 2
        info = {
            "workload": trace.workload,
            "fingerprint": trace.fingerprint,
            "version": trace.version,
            "encoding": getattr(trace, "encoding", "json"),
            "container": getattr(trace, "container", None),
            "integrity": getattr(trace, "integrity", "digest-pass"),
            "mask": trace.mask,
            "mask_names": describe_mask(trace.mask),
            "ms_per_op": trace.ms_per_op,
            "start_ms": trace.start_ms,
            "end_ms": trace.end_ms,
            "duration_seconds": (trace.end_ms - trace.start_ms) / 1000.0,
            "events": events_total,
            "event_counts": event_counts,
            "strings": tables["strings"],
            "nodes": tables["nodes"],
            "objects": tables["objects"],
            "environments": trace.env_count,
            "digest": trace.digest(),
            "streamed": streamed,
            "chunks": trace.chunk_count() if streamed else 1,
            "file_bytes": os.path.getsize(args.file),
        }
        if streamed:
            info["chunk_events"] = trace.chunk_events
        if args.json:
            print(json.dumps(info, indent=2))
        else:
            for key, value in info.items():
                if key == "event_counts":
                    print("event_counts:")
                    for name, count in sorted(value.items()):
                        print(f"  {name:<18} {count}")
                else:
                    print(f"{key:<18} {value}")
        return 0

    # replay
    from .api.spec import ALL_TRACERS, RunSpec

    modes = args.modes.split(",") if args.modes else list(ALL_TRACERS)
    unknown = [mode for mode in modes if mode not in ALL_TRACERS]
    if unknown:
        print(f"unknown modes: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(ALL_TRACERS)}", file=sys.stderr)
        return 2
    try:
        spec = RunSpec.composed(*modes, focus_line=args.focus_line)
        result = session.replay_trace(trace, spec)
    except (TraceError, KeyError, ValueError) as exc:
        print(f"trace replay: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.report_text)
        print()
        print(f"[{result.provenance}] no guest code was executed")
    return 0


def _cmd_serve(session, args) -> int:
    """``serve``: the analysis-as-a-service daemon, with its own session (blocks)."""
    from .serve.server import run_daemon

    return run_daemon(
        store_dir=args.store_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        default_tier=args.tier,
        request_log=args.request_log,
        port_file=args.port_file,
    )


def _cmd_submit(session, args) -> int:
    """``submit``: send workloads (or a script file) to a running daemon."""
    from .serve.client import ServeClient, ServeError

    modes = args.modes.split(",") if args.modes else ["lightweight"]
    script = None
    if args.script is not None:
        try:
            with open(args.script, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            print(f"submit: cannot read script {args.script!r}: {exc}", file=sys.stderr)
            return 2
        script = {
            "name": args.script_name or args.script,
            "sources": [{"path": args.script, "source": source}],
        }
        if args.workloads:
            print("submit: give either workload names or --script, not both", file=sys.stderr)
            return 2
    elif not args.workloads:
        print("submit: workload names (or --script FILE) required", file=sys.stderr)
        print("usage: python -m repro submit <workload ...> [--url URL]", file=sys.stderr)
        return 2

    client = ServeClient(args.url)
    envelopes = []
    try:
        if script is not None:
            envelopes.append(
                client.analyze(
                    script=script,
                    modes=modes,
                    tier=args.tier,
                    focus_line=args.focus_line,
                    retries=args.retries,
                )
            )
        elif len(args.workloads) == 1:
            envelopes.append(
                client.analyze(
                    workload=args.workloads[0],
                    modes=modes,
                    tier=args.tier,
                    focus_line=args.focus_line,
                    retries=args.retries,
                )
            )
        else:
            # Batch submissions stream back as each analysis completes.
            envelopes.extend(client.analyze_many(args.workloads, modes=modes, tier=args.tier))
    except ServeError as error:
        print(f"submit: {error}", file=sys.stderr)
        if error.retry_after is not None:
            print(f"submit: server busy; retry in {error.retry_after}s", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(envelopes if len(envelopes) > 1 else envelopes[0], indent=2))
        return 0
    failures = 0
    for envelope in envelopes:
        if "error" in envelope:
            failures += 1
            print(f"submit: {envelope['error'].get('message')}", file=sys.stderr)
            continue
        server = envelope.get("server", {})
        result = envelope.get("result", {})
        print(result.get("report_text", ""))
        print(
            f"[{result.get('provenance', 'live')}] cache={server.get('cache')} "
            f"run={server.get('run_ms')}ms queued={server.get('queued_ms')}ms"
        )
        print()
    return 2 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the PPoPP'15 web-application parallelism study",
    )
    subparsers = parser.add_subparsers(dest="command")

    p_list = subparsers.add_parser("list", help="list experiments (or --workloads)")
    p_list.add_argument("--workloads", action="store_true", help="list workload names instead")
    p_list.add_argument("--json", action="store_true", help="machine-readable output")
    p_list.set_defaults(func=_cmd_list, needs_session=False)

    p_run = subparsers.add_parser(
        "run", help="run experiments by id (or workloads with --speculate)"
    )
    p_run.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (see `list`); with --speculate: workload names (default all)",
    )
    p_run.add_argument("--json", action="store_true", help="JSON envelope per experiment")
    p_run.add_argument(
        "--tier",
        choices=["auto", "bytecode", "closure"],
        default=None,
        help="execution-tier policy (byte-identical results; speed only)",
    )
    p_run.add_argument(
        "--speculate",
        action="store_true",
        help="speculatively re-execute every DOALL nest and report executed vs modelled speedup",
    )
    p_run.add_argument(
        "--spec-workers", type=int, default=None, help="speculation worker count (default 8)"
    )
    p_run.add_argument(
        "--spec-strategy",
        choices=["block", "cyclic"],
        default=None,
        help="iteration partitioning strategy (default block)",
    )
    p_run.add_argument(
        "--spec-processes",
        action="store_true",
        help="also replay chunks in forked OS processes for wall-clock numbers",
    )
    p_run.set_defaults(func=_cmd_run, needs_session=True)

    p_experiments = subparsers.add_parser(
        "experiments", help="run every experiment (the full reproduction)"
    )
    p_experiments.set_defaults(func=_cmd_experiments, needs_session=True)

    p_report = subparsers.add_parser(
        "report", help="case-study report: Tables 2-3 + Amdahl bounds"
    )
    p_report.add_argument("--json", action="store_true", help="machine-readable rows")
    p_report.add_argument(
        "--workloads", nargs="*", default=None, help="restrict the batch to these workloads"
    )
    p_report.set_defaults(func=_cmd_report, needs_session=True)

    p_trace = subparsers.add_parser(
        "trace", help="record-once / replay-many event traces"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    p_trace_record = trace_sub.add_parser(
        "record", help="execute a workload once and save its full event trace"
    )
    p_trace_record.add_argument("workload", help="workload name (see `list --workloads`)")
    p_trace_record.add_argument(
        "-o",
        "--output",
        default=None,
        help=(
            "output file (default <workload>.trace.bin; a .gz suffix "
            "gzip-wraps the binary container, which then decodes in memory "
            "instead of through mmap)"
        ),
    )
    p_trace_record.add_argument(
        "--chunk-events",
        type=int,
        default=None,
        metavar="N",
        help=(
            "events per chunk for the streaming file layout (default: "
            "REPRO_TRACE_CHUNK_EVENTS or 65536)"
        ),
    )
    p_trace_record.set_defaults(func=_cmd_trace, needs_session=True)

    p_trace_replay = trace_sub.add_parser(
        "replay", help="replay analyses from a trace file (no guest execution)"
    )
    p_trace_replay.add_argument("file", help="trace file written by `trace record`")
    p_trace_replay.add_argument(
        "--modes",
        default=None,
        help="comma-separated tracer modes (default: all four)",
    )
    p_trace_replay.add_argument(
        "--focus-line", type=int, default=None, help="dependence focus line"
    )
    p_trace_replay.add_argument("--json", action="store_true", help="JSON envelope")
    p_trace_replay.set_defaults(func=_cmd_trace, needs_session=True)

    p_trace_info = trace_sub.add_parser("info", help="inspect a trace file")
    p_trace_info.add_argument(
        "file", nargs="?", default=None, help="trace file written by `trace record`"
    )
    p_trace_info.add_argument("--json", action="store_true", help="machine-readable output")
    p_trace_info.set_defaults(func=_cmd_trace, needs_session=False)

    p_serve = subparsers.add_parser(
        "serve", help="analysis-as-a-service daemon (HTTP+JSON, shared trace store)"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    p_serve.add_argument(
        "--port", type=int, default=8737, help="TCP port (0 = pick a free one; default 8737)"
    )
    p_serve.add_argument(
        "--store-dir",
        default=None,
        help="directory for the disk-backed trace store (default: in-memory only)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=4, help="analysis worker threads (default 4)"
    )
    p_serve.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="admission queue depth; overflow answers 429 (default 64)",
    )
    p_serve.add_argument(
        "--tier",
        choices=["auto", "bytecode", "closure"],
        default=None,
        help="default execution-tier policy for served runs",
    )
    p_serve.add_argument(
        "--port-file",
        default=None,
        help="write the bound port to this file once listening (for scripts/CI)",
    )
    p_serve.add_argument(
        "--request-log", action="store_true", help="log every HTTP request to stderr"
    )
    p_serve.set_defaults(func=_cmd_serve, needs_session=False)

    p_submit = subparsers.add_parser(
        "submit", help="submit workloads (or a script) to a running serve daemon"
    )
    p_submit.add_argument(
        "workloads", nargs="*", help="workload names (see `list --workloads`)"
    )
    p_submit.add_argument(
        "--url", default="http://127.0.0.1:8737", help="daemon base URL"
    )
    p_submit.add_argument(
        "--modes",
        default=None,
        help="comma-separated tracer modes (default: lightweight)",
    )
    p_submit.add_argument(
        "--tier", choices=["auto", "bytecode", "closure"], default=None,
        help="execution-tier policy for this submission",
    )
    p_submit.add_argument(
        "--focus-line", type=int, default=None, help="dependence focus line"
    )
    p_submit.add_argument(
        "--script", default=None, help="submit this JavaScript file as an ad-hoc workload"
    )
    p_submit.add_argument(
        "--script-name", default=None, help="workload name for --script (default: the path)"
    )
    p_submit.add_argument(
        "--retries", type=int, default=0,
        help="retry 429 responses this many times, honouring Retry-After",
    )
    p_submit.add_argument("--json", action="store_true", help="print response envelopes as JSON")
    p_submit.set_defaults(func=_cmd_submit, needs_session=False)

    return parser


def _install_sigterm_handler():
    """Route SIGTERM through KeyboardInterrupt so cleanup code runs.

    Context managers and ``finally`` blocks (the serve daemon's disk-store
    index flush among them) unwind exactly as on Ctrl-C; :func:`main` then
    converts the interrupt into a clean exit code 130.  Returns an undo
    callable (signal handlers can only be installed from the main thread —
    elsewhere, e.g. tests driving ``main()`` from a worker thread, this is a
    no-op).
    """
    if threading.current_thread() is not threading.main_thread():
        return lambda: None

    def _on_sigterm(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    return lambda: signal.signal(signal.SIGTERM, previous)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    restore_sigterm = _install_sigterm_handler()
    try:
        if not args.needs_session:
            return args.func(None, args)
        from .api.session import AnalysisSession

        with AnalysisSession(default_tier=getattr(args, "tier", None)) as session:
            return args.func(session, args)
    except KeyboardInterrupt:
        # SIGINT or SIGTERM mid-run: cleanup already ran while unwinding;
        # report the interruption without a traceback, exit 130 (128+SIGINT).
        print(f"{args.command}: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Output was piped into a consumer that stopped reading (e.g. head).
        return 0
    finally:
        restore_sigterm()


if __name__ == "__main__":  # pragma: no cover - CLI glue
    sys.exit(main())
