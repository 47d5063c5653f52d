"""Launch ``repro serve`` with the benchmark's layer spans installed.

Usage: ``python traced_serve.py SPANS_JSON [serve arguments...]``

Installs the wrappers of :mod:`tracing` and then calls the same
``serve`` entry point ``python -m repro serve`` uses, so the traced
server has the process layout of the timed one. The spans are written
to ``SPANS_JSON`` when the server exits (SIGINT).
"""

from __future__ import annotations

import sys

import lib
import tracing


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    lib.import_program()
    tracer = tracing.Tracer()
    tracing.install(tracer, service=True)
    from repro.cli import serve_main

    try:
        return serve_main(args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main())
