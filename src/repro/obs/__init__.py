"""Unified observability: tracing, metrics, and run reports.

Four zero-dependency pieces, designed to be wired through the hot
paths of the inference, validation, and analysis layers without
perturbing any result and without costing anything when disabled:

* :class:`Tracer` — nestable spans (monotonic timings, per-span
  counters) and point events in a bounded ring buffer that flags
  truncation instead of dropping silently; exports JSON Lines
  (CLI ``--trace FILE``);
* :class:`MetricsRegistry` — named counters / gauges / histograms with
  JSON export and deterministic merge (the process-parallel fan-outs
  fold worker deltas through it);
* :class:`Stats` — the one counters model: every engine's ``*Stats``
  class declares its fields over it and inherits ``as_dict()`` /
  ``as_metrics()``, ``diff()``, ``repr()`` and ``to_text()``;
* :class:`RunReport` — named sections of frozen stats snapshots behind
  the ``as_metrics()`` protocol; the CLI's ``--stats`` /
  ``--cache-stats`` stderr text and its ``--metrics-json FILE`` output
  both render from the same report, so their numbers reconcile by
  construction.

The contract every instrumented call site honours (and
``tests/properties/test_obs_invariance.py`` enforces): passing a tracer
may add spans and counters but can never change a public result, and
passing ``tracer=None`` (the default) executes the exact pre-obs code
path behind a single ``is None`` check.
"""

from .. import _lazy

__all__ = _lazy.exports(__name__, {
    "metrics": "Counter Gauge Histogram MetricsRegistry compare_snapshots",
    "report": "RunReport Stats supports_metrics",
    "tracer": "Span Tracer",
})
