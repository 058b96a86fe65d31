"""A fresh ``repro`` process with the traced run's span wrappers.

    python3 perfbench/coldstart.py SPANS.json ARGS...

Times ``import repro.cli`` as the ``cli.import`` span, wraps the layers
that import loaded (the ``trace.install`` span, the tracer's own cost),
runs ``repro.cli.main(ARGS)`` as the ``cli.main`` span and writes the
spans to SPANS.json together with the clock readings that bound them,
so the caller can attribute the rest of the process's life to the
interpreter.  The exit code is ``main``'s.  The untraced run starts
``python -m repro ARGS`` instead.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import json  # noqa: E402 - the clock above marks interpreter start-up
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import repro.cli
    imported = time.perf_counter()
    from perfbench import tracing

    recorder = tracing.SpanRecorder()
    tracing.install(recorder, tracing.Counters())
    installed = time.perf_counter()
    recorder.spans.append((-1, "cli.import", start, imported, None))
    recorder.spans.append((-2, "trace.install", imported, installed, None))
    code = recorder.call("cli.main", repro.cli.main, argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"started": STARTED, "finished": time.perf_counter(),
                   "spans": recorder.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
