"""Out-of-core streaming validation: bounded memory, exact witnesses.

The streaming engine's production claim is that group-table residency
is bounded by the :class:`repro.nfd.ResourceBudget` no matter how large
the relation is, with the spill/merge machinery producing byte-identical
witnesses to the in-memory :class:`repro.nfd.ValidatorEngine`.

``test_bounded_memory_gate`` is the acceptance gate: a relation with
**at least 10× more distinct antecedent keys than the resident-row
budget** must stream with ``peak_resident_rows <= budget`` (so spilling
actually happened, and the cap held at every instant), and the
violation witnesses must equal the in-memory engine's exactly.

The remaining benchmarks time streaming against the in-memory walk
under pytest-benchmark.
"""

import gc
import random
import time

from repro.generators import workloads
from repro.io.stream import iter_set_elements
from repro.nfd import (
    ResourceBudget,
    ValidatorEngine,
    parse_nfds,
    stream_validate,
)

#: Resident-row budget for the gate.
BUDGET_ROWS = 500

#: The gate instance must carry at least this many times more distinct
#: antecedent keys than the budget admits resident rows.
SCALE_FACTOR = 10

#: The exact work counts of the gate workload: they depend only on the
#: seeded instance, Σ and the budget, never on the host, so the gate
#: holds them to the row.
WORK_COUNTS = {
    "rows_emitted": 5000,
    "spills": 9,
    "rows_spilled": 4500,
    "runs_written": 18,
    "runs_merged": 18,
    "groups_merged": 5000,
}


def _workload():
    """A Course workload whose root NFDs emit >= 10x the budget in
    distinct keys, with one injected cross-element conflict."""
    schema = workloads.course_schema()
    sigma = parse_nfds("\n".join([
        "Course:[cnum -> time]",
        "Course:[cnum, time -> books]",
        "Course:students:[sid -> grade]",
    ]))
    instance = workloads.scaled_course_instance(
        random.Random(23), courses=BUDGET_ROWS * SCALE_FACTOR // 2,
        students_per_course=3, books_per_course=2)
    return schema, sigma, instance


def _sources(instance):
    return {name: iter_set_elements(value)
            for name, value in instance.relations()}


def test_bounded_memory_gate(gate_metrics):
    """Gate: peak resident rows <= budget on a >= 10x instance, with
    witnesses identical to the in-memory engine's."""
    schema, sigma, instance = _workload()
    reference = ValidatorEngine(schema, sigma).validate(
        instance, all_violations=True)

    budget = ResourceBudget(max_resident_rows=BUDGET_ROWS)
    result = stream_validate(schema, sigma, _sources(instance),
                             budget=budget)
    stats = result.stats

    distinct = stats.groups_merged
    print(f"\nstreaming validation: {stats.elements_seen} elements, "
          f"{distinct} distinct keys through a {BUDGET_ROWS}-row "
          f"budget; peak resident {stats.peak_resident_rows}, "
          f"{stats.spills} spill(s), {stats.rows_spilled} rows in "
          f"{stats.runs_written} run(s) ({stats.bytes_spilled} bytes)")
    assert distinct >= BUDGET_ROWS * SCALE_FACTOR, (
        f"workload too small: {distinct} distinct keys < "
        f"{SCALE_FACTOR}x the {BUDGET_ROWS}-row budget")
    assert stats.peak_resident_rows <= BUDGET_ROWS, (
        f"budget violated: peak resident {stats.peak_resident_rows} "
        f"rows > {BUDGET_ROWS}")
    assert stats.spills >= 1 and stats.rows_spilled > 0
    assert [v.describe() for v in result.violations] == \
        [v.describe() for v in reference.violations]
    counts = {name: getattr(stats, name) for name in WORK_COUNTS}
    assert counts == WORK_COUNTS, (
        f"work counts moved: {counts} != {WORK_COUNTS}")

    gate_metrics.gauge("stream.budget_rows").set(BUDGET_ROWS)
    gate_metrics.gauge("stream.distinct_keys").set(distinct)
    gate_metrics.gauge("stream.peak_resident_rows").set(
        stats.peak_resident_rows)
    gate_metrics.gauge("stream.spills").set(stats.spills)
    gate_metrics.gauge("stream.rows_spilled").set(stats.rows_spilled)
    gate_metrics.gauge("stream.bytes_spilled").set(stats.bytes_spilled)
    for name in ("rows_emitted", "runs_written", "runs_merged",
                 "groups_merged"):
        gate_metrics.gauge(f"stream.{name}").set(getattr(stats, name))


def test_throughput_gate(gate_metrics):
    """Gate: the streaming hot path on the 10x-keys spill workload
    reports the in-memory engine's witnesses, spills, and keeps
    residency within the budget, timed best-of-3 with GC paused.

    The gauges this gate records (``stream.elements_per_sec``,
    ``stream.rows_spilled_per_sec``) are the perf trajectory: nightly
    CI dumps them into ``BENCH_stream.json`` and ``--compare`` fails
    the run when a rate falls more than 20% below the committed
    baseline.  There is no in-test absolute threshold: the committed
    rate is a property of the reference host.
    """
    schema, sigma, instance = _workload()
    reference = ValidatorEngine(schema, sigma).validate(
        instance, all_violations=True)
    budget = ResourceBudget(max_resident_rows=BUDGET_ROWS)

    # Wall-clock timing: best-of-3 with the collector paused, so a GC
    # cycle landing inside one run cannot move the rate.
    best = None
    result = None
    for _ in range(3):
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            result = stream_validate(schema, sigma, _sources(instance),
                                     budget=budget)
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        best = elapsed if best is None else min(best, elapsed)

    stats = result.stats
    assert [v.describe() for v in result.violations] == \
        [v.describe() for v in reference.violations], \
        "stream witnesses differ from the in-memory engine's"
    assert stats.spills >= 1, \
        "workload stopped spilling; the gate no longer times the " \
        "out-of-core path"
    assert stats.peak_resident_rows <= BUDGET_ROWS

    elements_per_sec = stats.elements_seen / best
    spilled_per_sec = stats.rows_spilled / best
    print(f"\nstream throughput: {elements_per_sec:,.0f} elem/s "
          f"({spilled_per_sec:,.0f} spilled rows/s)")

    gate_metrics.gauge("stream.elements_per_sec").set(
        round(elements_per_sec, 1))
    gate_metrics.gauge("stream.rows_spilled_per_sec").set(
        round(spilled_per_sec, 1))
    gate_metrics.gauge("stream.intern_hits").set(stats.intern_hits)
    gate_metrics.gauge("stream.intern_misses").set(stats.intern_misses)


def test_stream_with_budget(benchmark):
    schema, sigma, instance = _workload()
    budget = ResourceBudget(max_resident_rows=BUDGET_ROWS)

    def run():
        return stream_validate(schema, sigma, _sources(instance),
                               budget=budget)

    benchmark.group = "streaming validation"
    assert benchmark(run).ok is True


def test_stream_unbudgeted(benchmark):
    schema, sigma, instance = _workload()

    def run():
        return stream_validate(schema, sigma, _sources(instance))

    benchmark.group = "streaming validation"
    assert benchmark(run).ok is True


def test_in_memory_reference(benchmark):
    schema, sigma, instance = _workload()
    engine = ValidatorEngine(schema, sigma)
    benchmark.group = "streaming validation"
    assert benchmark(
        lambda: engine.validate(instance, all_violations=True)).ok
