"""Traced-run launcher: ``repro serve`` with the layer wrappers installed.

Usage: ``python3 perfbench/traced_serve.py <trace-out> <serve arguments...>``

Installs the wrappers of :func:`tracer.install_serve` in this process,
runs the server exactly as ``python -m repro serve`` would, and when the
server has drained (SIGTERM) writes the layer aggregates to
``<trace-out>`` and the spans to ``<trace-out>.spans``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, install_serve  # noqa: E402


def main(argv):
    trace_out, serve_args = argv[1], argv[2:]
    tracer = Tracer()
    install_serve(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve"] + serve_args)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
