"""Run ``repro.cli`` in this process, with the benchmark's spans available.

    python3 perfbench/launch_server.py [--spans-out PATH] serve ...

Without ``--spans-out`` this is exactly ``python -m repro ...``.  With it,
the layer entry points (see layers.py) are wrapped before the command
starts, because the servers bind some of them (``ModelRegistry.publish``)
at start-up; the wrappers record nothing until ``SIGUSR1``.  The spans
kept in memory are written to PATH when the command returns (the serving
commands return on SIGINT).
"""

from __future__ import annotations

import importlib
import os
import signal
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

#: Imported before wrapping so every copy of a wrapped function is found.
_TRACED_MODULES = (
    "repro.core", "repro.core.incremental", "repro.forest.build",
    "repro.serve.server", "repro.serve.forest", "repro.stream.server",
    "repro.stream.ingest",
)


def main(argv: list[str]) -> int:
    spans_out = None
    if argv[:1] == ["--spans-out"]:
        spans_out, argv = argv[1], argv[2:]
    from repro.cli import main as cli_main

    if spans_out is None:
        return cli_main(argv)
    import layers
    from tracing import Recorder, write_spans

    for name in _TRACED_MODULES:
        importlib.import_module(name)
    recorder = Recorder()
    recorder.active = False
    layers.install(recorder)
    signal.signal(signal.SIGUSR1, lambda *_: setattr(recorder, "active", True))
    try:
        return cli_main(argv)
    finally:
        recorder.uninstall()
        write_spans(recorder.spans, spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
