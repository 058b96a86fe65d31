"""The dense bitset closure kernel, gated on absolute throughput.

The kernel is the engine's one saturation; the naive reference
saturation checks its answers.  Two acceptance gates, each measured
best-of-:data:`REPEATS` with GC paused and compared against the
absolute numbers committed in ``BENCH_closure.json``:

* ``test_dense_kernel_gate`` — a 100-query closure sweep over a
  |Σ| = 64 workload (chains, cross dependencies, and nested-set
  members over 16 attributes plus a set-valued path) must not spend
  more ns/query than the committed ``kernel.dense_ns_per_query``
  allows, with every closure identical to the reference's.  The sweep
  is timed in a fresh interpreter under ``PYTHONHASHSEED=0``
  (:func:`_fresh_process_sweep`): in a long session, earlier tests'
  heap moves the reading by a third.
* ``test_minimal_keys_gate`` — ``minimal_keys`` end-to-end (the
  level-wise batch-closure sweep and its drop-one core probes) must
  run at least as many sweeps/sec as the committed
  ``kernel.keys_sweeps_per_sec`` allows, same keys as the reference.

"Allows" is the nightly ``--compare`` tolerance: a number may be at
most :data:`TOLERANCE` worse than its committed value.  Each gate also
holds its workload's kernel work (:data:`WORK_COUNTS`) exactly to the
committed ``kernel.sweep_*`` / ``kernel.keys_*`` counts, which depend on
the workload alone, not on the host or the hash seed.  The
``kernel.*_per_sec`` gauges are the inference perf trajectory: nightly
CI dumps them into ``BENCH_closure.json`` via ``--metrics-json`` and
``--compare`` fails the run when a rate falls more than 20% below the
committed baseline.
"""

import gc
import itertools
import json
import os
import pathlib
import subprocess
import sys
import time

import repro
from repro.analysis import minimal_keys
from repro.inference import ClosureEngine
from repro.nfd import parse_nfd
from repro.paths import Path, parse_path
from repro.types.parser import parse_schema

#: The committed gauges the gates measure against.
BASELINE = pathlib.Path(__file__).with_name("BENCH_closure.json")

#: How much worse than its committed value a gated number may be (the
#: same 20% the nightly ``--compare`` allows).
TOLERANCE = 0.2

#: Repeats per measurement; the best (lowest) time counts.
REPEATS = 3

#: The :class:`~repro.inference.EngineStats` counters each gate holds
#: to the row: saturation loops, row scans, and bitmask tests.
WORK_COUNTS = ("saturations", "attempts", "mask_tests")


def _committed(name: str) -> float:
    with open(BASELINE) as handle:
        return json.load(handle)["gauges"][name]


def _work_gate(gate_metrics, prefix: str, stats) -> None:
    """Hold one workload's kernel work counts exactly to the committed
    ``{prefix}_<counter>`` gauges, and record them."""
    counts = {f"{prefix}_{name}": getattr(stats, name)
              for name in WORK_COUNTS}
    committed = {name: _committed(name) for name in counts}
    assert counts == committed, (
        f"work counts moved: {counts} != {committed}")
    for name, value in counts.items():
        gate_metrics.gauge(name).set(value)


def _sweep_workload():
    """16 flat attributes plus one nested set under exactly 64 NFDs."""
    fields = ", ".join(f"a{i}: int" for i in range(16))
    schema = parse_schema(
        f"R = {{<{fields}, "
        "s: {<x0: int, x1: int, x2: int, x3: int>}>}"
    )
    texts = []
    texts += [f"R:[a{i} -> a{i + 1}]" for i in range(15)]
    texts += [f"R:[a{i}, a{i + 2} -> a{(i * 7 + 3) % 16}]"
              for i in range(12)]
    texts += [f"R:[a{(i * 5 + 1) % 16} -> a{(i * 11 + 4) % 16}]"
              for i in range(12)]
    texts += [f"R:[a{i} -> s:x{i % 4}]" for i in range(8)]
    texts += [f"R:[s, a{8 + i % 8} -> s:x{(i + 1) % 4}]"
              for i in range(8)]
    texts += [f"R:[a{(i * 3) % 16}, s:x{i % 4} -> a{(i * 5 + 7) % 16}]"
              for i in range(8)]
    texts += ["R:[s:x0, s:x1 -> a0]"]
    sigma = tuple(parse_nfd(text) for text in texts)
    assert len(sigma) == 64, f"workload drifted to |Sigma|={len(sigma)}"
    base = Path(("R",))
    queries = [(base, frozenset({parse_path(f"a{i}")}))
               for i in range(16)]
    queries += [(base, frozenset({parse_path(f"a{i}"),
                                  parse_path(f"a{j}")}))
                for i, j in itertools.combinations(range(16), 2)][:84]
    return schema, sigma, queries


def _timed_sweep(schema, sigma, queries) -> float:
    """Best-of-REPEATS wall seconds for a cold engine serving the full
    sweep (dense table compilation included — it is part of the first
    query's cost), GC paused around each repeat."""
    best = None
    for _ in range(REPEATS):
        engine = ClosureEngine(schema, sigma)
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            [engine.closure(base, lhs) for base, lhs in queries]
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        if best is None or elapsed < best:
            best = elapsed
    return best


def _fresh_process_sweep() -> float:
    """:func:`_timed_sweep` run once in a fresh interpreter under
    ``PYTHONHASHSEED=0`` (this file's ``__main__``), importing the
    same ``repro`` package as this process."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]]
                          if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, __file__], env=env,
                          capture_output=True, text=True, check=True)
    return float(done.stdout)


def test_dense_kernel_gate(gate_metrics):
    """Gate: the |Sigma|=64 sweep within TOLERANCE of the committed
    ns/query, closures identical to the naive reference's."""
    schema, sigma, queries = _sweep_workload()
    engine = ClosureEngine(schema, sigma)
    dense_answers = [engine.closure(base, lhs) for base, lhs in queries]

    reference = ClosureEngine(schema, sigma)
    assert dense_answers == [reference.reference_closure(base, lhs)
                             for base, lhs in queries], \
        "the dense kernel diverged from the naive reference"
    _work_gate(gate_metrics, "kernel.sweep", engine.stats)
    dense_time = _fresh_process_sweep()
    count = len(queries)
    dense_ns = dense_time * 1e9 / count
    ceiling = _committed("kernel.dense_ns_per_query") * (1 + TOLERANCE)
    print(f"\nclosure kernel (|Sigma|=64, {count} queries, "
          f"best of {REPEATS}, fresh process): dense {dense_ns:,.0f} "
          f"ns/query (ceiling {ceiling:,.0f})")
    assert dense_ns <= ceiling, (
        f"the kernel spent {dense_ns:,.0f} ns/query, above the "
        f"committed ceiling of {ceiling:,.0f}")

    gate_metrics.gauge("kernel.dense_ns_per_query").set(round(dense_ns))
    gate_metrics.gauge("kernel.dense_queries_per_sec").set(
        round(count / dense_time, 1))


def _keys_workload():
    """10 attributes under a chain plus cross dependencies, |Σ| = 31.

    ``{a0}`` is the only key (no rule ever derives ``a0``): the first
    level finds it, the second would be wider than the scope, so the
    sweep asks the ten drop-one probes, each saturating a non-trivial
    rule pool, and their core ``{a0}`` prunes every later level — 20
    saturations where a sweep over every subset made 512."""
    fields = ", ".join(f"a{i}: int" for i in range(10))
    schema = parse_schema(f"K = {{<{fields}>}}")
    texts = [f"K:[a{i} -> a{i + 1}]" for i in range(9)]
    texts += [f"K:[a{i % 10}, a{(i + 3) % 9 + 1} "
              f"-> a{(i * 7 + 3) % 9 + 1}]" for i in range(12)]
    texts += [f"K:[a{(i * 5) % 9 + 1} -> a{(i * 4 + 2) % 9 + 1}]"
              for i in range(10)]
    sigma = tuple(parse_nfd(text) for text in texts)
    assert len(sigma) == 31, f"workload drifted to |Sigma|={len(sigma)}"
    return schema, sigma


class _Reference:
    """The naive reference saturation behind the query surface
    :func:`minimal_keys` needs."""

    def __init__(self, schema, sigma):
        self.engine = ClosureEngine(schema, sigma)
        self.schema = schema
        self.tracer = None

    def covers_batch(self, base, candidates, targets):
        return [set(targets) <= self.engine.reference_closure(base, c)
                for c in candidates]


def _timed_keys(schema, sigma):
    best = None
    keys = None
    for _ in range(REPEATS):
        session = ClosureEngine(schema, sigma)
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            run = minimal_keys(schema, sigma, "K", engine=session)
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        if best is None or elapsed < best:
            best, keys = elapsed, run
    return best, keys, session.stats


def test_minimal_keys_gate(gate_metrics):
    """Gate: minimal_keys sweeps/sec within TOLERANCE of the committed
    rate, keys identical to the naive reference's."""
    schema, sigma = _keys_workload()
    dense_time, dense_keys, stats = _timed_keys(schema, sigma)

    assert dense_keys == minimal_keys(
        schema, sigma, "K", engine=_Reference(schema, sigma)), \
        "the dense key sweep diverged from the naive reference"
    _work_gate(gate_metrics, "kernel.keys", stats)
    rate = 1.0 / dense_time
    floor = _committed("kernel.keys_sweeps_per_sec") * (1 - TOLERANCE)
    print(f"\nminimal_keys (10 attributes, best of {REPEATS}): "
          f"{dense_time * 1000:.1f}ms, {rate:.2f} sweeps/s "
          f"(floor {floor:.2f})")
    assert rate >= floor, (
        f"minimal_keys ran {rate:.2f} sweeps/s, below the committed "
        f"floor of {floor:.2f}")

    gate_metrics.gauge("kernel.keys_sweeps_per_sec").set(round(rate, 2))


if __name__ == "__main__":
    print(repr(_timed_sweep(*_sweep_workload())))
