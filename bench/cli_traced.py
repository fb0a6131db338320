"""Run one CLI command with the span tracer installed.

Usage: python bench/cli_traced.py SPANS.json COMMAND [ARGS...]

Equivalent to ``python -m spectralfactors.cli COMMAND [ARGS...]``; the spans
of the library calls the command makes are written to SPANS.json on exit.
"""

import sys

import spectralfactors.cli as cli
from tracing import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    try:
        cli.main(args=argv, prog_name="spectralfactors")
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
