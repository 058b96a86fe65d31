"""Observability overhead gates.

Two acceptance gates for the obs layer's cost contract:

* **disabled = free** — running the implication-session analysis
  workload with no tracer must construct *zero* obs objects: the
  instrumented call sites guard with one ``tracer is None`` test and
  build nothing on the disabled path.  This is checked *structurally*
  (:attr:`repro.obs.Tracer.created` stays flat), which is a stronger
  statement than any timing comparison — the disabled path cannot be
  statistically distinguishable from the pre-obs code because it
  allocates nothing and calls nothing;

* **enabled <= 10%** — running the same workload with a live tracer
  must cost at most 10% extra wall-clock (medians of interleaved
  repetitions, so clock drift and cache warming hit both sides
  equally), on byte-identical results.

Both gates record their numbers into the session-wide gate registry
(see ``conftest.py``); a pytest-benchmark timing of the traced run
rides along for the record.
"""

from __future__ import annotations

import gc
import time

from bench_implication_session import _workload

from repro.analysis.cover import minimal_cover
from repro.analysis.keys import minimal_keys
from repro.inference import ClosureEngine
from repro.obs import Tracer

#: Interleaved repetitions per side for the timing gate.
REPETITIONS = 15

#: Allowed enabled/disabled best-time ratio (the <= 10% overhead gate).
MAX_OVERHEAD = 1.10

#: Absolute slack (seconds) so micro-runs don't gate on timer noise.
NOISE_FLOOR = 0.001


def _run_analysis(schema, sigma, tracer):
    session = ClosureEngine(schema, sigma, tracer=tracer)
    keys = minimal_keys(schema, sigma, "Course", engine=session)
    cover = minimal_cover(schema, sigma, session=session)
    return keys, cover


def test_disabled_tracer_is_structurally_noop(gate_metrics):
    """Gate: the untraced workload constructs zero Tracer objects."""
    schema, sigma = _workload()
    _run_analysis(schema, sigma, None)      # warm any lazy imports
    before = Tracer.created
    result = _run_analysis(schema, sigma, None)
    constructed = Tracer.created - before
    gate_metrics.gauge("obs.disabled_tracers_constructed").set(
        constructed)
    assert result[0] and result[1]
    assert constructed == 0, (
        f"untraced workload constructed {constructed} Tracer(s); "
        f"the disabled path must build nothing")


def test_enabled_overhead_gate(gate_metrics):
    """Gate: tracing costs <= 10% wall-clock on identical results."""
    schema, sigma = _workload()
    # warm-up both paths once (imports, pool compilation caches)
    baseline = _run_analysis(schema, sigma, None)
    assert _run_analysis(schema, sigma, Tracer()) == baseline

    disabled, enabled = [], []
    gc.collect()
    gc.disable()   # GC pauses, not tracing, dominate run-to-run noise
    try:
        for repetition in range(REPETITIONS):
            # interleave and alternate the order so drift and cache
            # warming hit both sides equally
            sides = ("disabled", "enabled") if repetition % 2 == 0 \
                else ("enabled", "disabled")
            for side in sides:
                tracer = Tracer() if side == "enabled" else None
                start = time.perf_counter()
                result = _run_analysis(schema, sigma, tracer)
                elapsed = time.perf_counter() - start
                (enabled if tracer is not None
                 else disabled).append(elapsed)
                assert result == baseline
                if tracer is not None:
                    assert tracer.spans(), \
                        "traced run recorded no spans"
            gc.collect()
    finally:
        gc.enable()

    # best-of-N: the minimum is the least noise-contaminated estimate
    # of each side's true cost (pauses and jitter only ever add time)
    disabled_best = min(disabled)
    enabled_best = min(enabled)
    overhead = enabled_best / disabled_best
    gate_metrics.gauge("obs.disabled_best_seconds").set(disabled_best)
    gate_metrics.gauge("obs.enabled_best_seconds").set(enabled_best)
    gate_metrics.gauge("obs.overhead_ratio").set(overhead)
    print(f"\nobs overhead on the session analysis workload: "
          f"disabled best {disabled_best * 1000:.2f}ms, "
          f"enabled best {enabled_best * 1000:.2f}ms "
          f"({(overhead - 1) * 100:+.1f}%)")
    assert enabled_best <= disabled_best * MAX_OVERHEAD \
        + NOISE_FLOOR, (
        f"tracing overhead {(overhead - 1) * 100:.1f}% exceeds "
        f"{(MAX_OVERHEAD - 1) * 100:.0f}% "
        f"(disabled {disabled_best:.4f}s, enabled "
        f"{enabled_best:.4f}s)")


def test_traced_analysis(benchmark):
    """pytest-benchmark record of the traced workload."""
    schema, sigma = _workload()
    benchmark.group = "obs overhead"
    keys, cover = benchmark(
        lambda: _run_analysis(schema, sigma, Tracer()))
    assert keys and cover


def test_untraced_analysis(benchmark):
    """pytest-benchmark record of the untraced workload."""
    schema, sigma = _workload()
    benchmark.group = "obs overhead"
    keys, cover = benchmark(
        lambda: _run_analysis(schema, sigma, None))
    assert keys and cover
