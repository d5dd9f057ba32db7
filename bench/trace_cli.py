"""Run ``heptaspline.cli`` with tracing, for the cli workload's traced ops.

Usage: python3 bench/trace_cli.py TRACE_JSON CLI_ARG...

Imports the CLI first (import time is measured on its own, as
cli.import_ms), installs the tracer, runs ``main`` with the remaining
arguments, and writes the tracer's spans and statistics to TRACE_JSON.
"""

import sys

import heptaspline.cli
from tracing import Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return heptaspline.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
