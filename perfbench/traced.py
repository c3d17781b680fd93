"""Run a program entry point with layer spans installed.

``python perfbench/traced.py SPANS_PATH -m repro ARGS...`` runs the CLI (and
``python perfbench/traced.py SPANS_PATH SCRIPT ARGS...`` a script) after
:func:`tracing.install`, then writes the spans to ``SPANS_PATH`` when the
program returns, including after SIGTERM (which the CLI turns into a clean
exit).  Fan-out workers write ``SPANS_PATH.<pid>`` files beside it.
"""

import runpy
import sys

import tracing


def main() -> int:
    spans_path = sys.argv[1]
    rest = sys.argv[2:]
    tracing.install(spans_path)
    code = 0
    try:
        if rest[0] == "-m":
            from repro.__main__ import main as cli_main

            code = cli_main(rest[2:])
        else:
            sys.argv = rest
            runpy.run_path(rest[0], run_name="__main__")
    finally:
        tracing.dump(spans_path)
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
