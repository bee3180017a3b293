"""Server process of the served workloads: ``repro serve``, optionally traced.

Runs the real ``repro serve`` command-line entry point in this process.
With ``--spans PATH`` it first installs the benchmark's span wrappers
(see ``spans.py``) and writes the recorded spans to ``PATH`` when the
server exits.  Everything after the optional flag is passed to
``repro serve`` unchanged::

    python perfbench/serve_proc.py [--cpu N] [--spans PATH] serve ...

``--cpu N`` pins the process to one CPU before anything else runs.
"""

from __future__ import annotations

import os
import sys


def main(argv: list[str]) -> int:
    if argv[:1] == ["--cpu"]:
        os.sched_setaffinity(0, {int(argv[1])})
        argv = argv[2:]
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    recorder = None
    if spans_path is not None:
        from spans import SpanRecorder, install_server

        recorder = SpanRecorder()
        install_server(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if recorder is not None:
            recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
