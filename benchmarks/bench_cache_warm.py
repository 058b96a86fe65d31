"""Persistent-cache warm starts and incremental resumable streaming.

The :mod:`repro.store` production claims, as acceptance gates:

* ``test_warm_start_gate`` — a warm analysis pass (closure sweep +
  validator construction + validation) against a populated store
  performs **zero** saturation rule applications, at least
  :data:`MIN_ATTEMPT_RATIO` times fewer than the cold pass that
  populated it, and finishes faster in wall-clock — with answers and
  witnesses byte-identical.  The closure memo and the dense tables are
  what warm up; the validator compiles its plans in both passes.
* ``test_incremental_append_gate`` — after appending 1% to a
  checkpointed JSONL source, ``--incremental`` revalidation folds only
  the appended elements (at least :data:`MIN_FOLD_RATIO` times fewer
  than the file holds) and reports witnesses byte-identical to a full
  cold re-stream, and writes at most
  :data:`MAX_GROUPS_PER_FOLDED_ELEMENT` group rows per folded element —
  an exact count of the checkpoint work, independent of the host.

The ``cache.*_per_sec`` gauges are the perf trajectory: nightly CI
dumps them into ``BENCH_cache.json`` and ``--compare`` fails the run
when a rate falls more than 20% below the committed baseline.
"""

import gc
import itertools
import json
import os
import random
import shutil
import tempfile
import time

from repro.generators import random_sigma, workloads
from repro.inference import ImplicationSession
from repro.io.stream import dump_jsonl, iter_jsonl_elements, \
    iter_set_elements
from repro.nfd import ValidatorEngine, stream_validate
from repro.paths import parse_path
from repro.store import CacheStore, incremental_stream_validate
from repro.values import Atom, to_python

#: A warm pass must apply at least this many times fewer saturation
#: rules than the cold pass (it actually applies zero).
MIN_ATTEMPT_RATIO = 5

#: An incremental revalidation of a 1%-appended source must fold at
#: least this many times fewer elements than the file holds.
MIN_FOLD_RATIO = 10

#: A resume may write at most this many group rows per element it
#: folds (a delta checkpoint writes only the groups the appended lines
#: touch; rewriting the whole checkpoint would be ~100x this).
MAX_GROUPS_PER_FOLDED_ELEMENT = 10

#: Elements in the checkpointed prefix of the incremental workload.
STREAM_PREFIX = 1000

#: Elements appended after the checkpoint (1% of the prefix).
STREAM_APPEND = 10


def _analysis_workload():
    """The Course schema under a Σ large enough that saturation
    dominates a cold pass."""
    schema = workloads.course_schema()
    sigma = tuple(random_sigma(random.Random(11), schema, count=12))
    instance = workloads.course_instance()
    labels = list(schema.element_type("Course").labels)
    base = parse_path("Course")
    queries = [(base, frozenset())]
    queries += [(base, frozenset({parse_path(l)})) for l in labels]
    queries += [(base, frozenset({parse_path(a), parse_path(b)}))
                for a, b in itertools.combinations(labels, 2)]
    return schema, sigma, instance, queries


def _analysis_pass(schema, sigma, instance, queries, cache_dir):
    """One full pass — closure sweep, validator build, validation —
    against *cache_dir*; returns (wall seconds, observable outcome)."""
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        with CacheStore(cache_dir) as store:
            session = ImplicationSession(schema, sigma, store=store)
            answers = [session.closure(b, l) for b, l in queries]
            engine = ValidatorEngine(schema, sigma)
            result = engine.validate(instance, all_violations=True)
            elapsed = time.perf_counter() - started
            outcome = {
                "answers": answers,
                "witnesses": [v.describe() for v in result.violations],
                "attempts": session.engine.stats.attempts,
                "compilations": engine.stats.plan_compilations,
            }
    finally:
        gc.enable()
    return elapsed, outcome


def test_warm_start_gate(gate_metrics):
    """Gate: a warm pass applies zero rules — >= MIN_ATTEMPT_RATIO
    fewer applications than cold, faster wall-clock, identical
    answers."""
    schema, sigma, instance, queries = _analysis_workload()
    workdir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        # Cold best-of-3: each repeat starts from an empty directory.
        cold_time, cold = None, None
        for attempt in range(3):
            cache_dir = os.path.join(workdir, f"cold{attempt}")
            elapsed, outcome = _analysis_pass(
                schema, sigma, instance, queries, cache_dir)
            if cold_time is None or elapsed < cold_time:
                cold_time, cold = elapsed, outcome
        # Warm best-of-3 against the last cold repeat's store.
        warm_time, warm = None, None
        for _ in range(3):
            elapsed, outcome = _analysis_pass(
                schema, sigma, instance, queries, cache_dir)
            if warm_time is None or elapsed < warm_time:
                warm_time, warm = elapsed, outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    assert warm["answers"] == cold["answers"]
    assert warm["witnesses"] == cold["witnesses"]
    assert warm["attempts"] == 0, \
        "a warm session must answer every closure from the store"
    ratio = cold["attempts"] / max(warm["attempts"], 1)
    assert ratio >= MIN_ATTEMPT_RATIO, (
        f"cold pass applied only {cold['attempts']} rules — "
        f"{ratio:.1f}x the warm pass, below {MIN_ATTEMPT_RATIO}x")
    speedup = cold_time / warm_time
    print(f"\nwarm start: cold {cold_time * 1000:.2f}ms "
          f"({cold['attempts']} rule applications, "
          f"{cold['compilations']} compilation), warm "
          f"{warm_time * 1000:.2f}ms (0, {warm['compilations']}) "
          f"-> {speedup:.2f}x")
    assert speedup > 1.0, (
        f"warm pass was not faster: {warm_time * 1000:.2f}ms warm vs "
        f"{cold_time * 1000:.2f}ms cold")

    closures_per_sec = len(queries) / warm_time
    gate_metrics.gauge("cache.cold_rule_applications").set(
        cold["attempts"])
    gate_metrics.gauge("cache.warm_rule_applications").set(
        warm["attempts"])
    gate_metrics.gauge("cache.warm_speedup").set(round(speedup, 2))
    gate_metrics.gauge("cache.warm_closures_per_sec").set(
        round(closures_per_sec, 1))


def _stream_workload():
    schema = workloads.course_schema()
    sigma = tuple(workloads.course_sigma())
    instance = workloads.scaled_course_instance(
        random.Random(23), courses=STREAM_PREFIX + STREAM_APPEND,
        students_per_course=3, books_per_course=2)
    rows = list(iter_set_elements(instance.relation("Course")))
    return schema, sigma, rows


def test_incremental_append_gate(gate_metrics):
    """Gate: revalidating a 1%-appended source folds only the appended
    elements — >= MIN_FOLD_RATIO fewer than the file holds — writes at
    most MAX_GROUPS_PER_FOLDED_ELEMENT group rows per folded element,
    and reports witnesses identical to a full cold re-stream."""
    schema, sigma, rows = _stream_workload()
    workdir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        path = os.path.join(workdir, "stream.jsonl")
        dump_jsonl(path, rows[:STREAM_PREFIX])
        with CacheStore(os.path.join(workdir, "cache")) as store:
            gc.collect()
            started = time.perf_counter()
            _, info = incremental_stream_validate(
                schema, sigma, "Course", path, store=store)
            checkpoint_time = time.perf_counter() - started
            assert info["mode"] == "cold" and info["persisted"]
            groups = store.summary()["stream_groups"]

            appended = list(rows[STREAM_PREFIX:])
            appended[0] = rows[0].replace("time", Atom(-1))  # a clash
            with open(path, "a") as handle:
                for element in appended:
                    handle.write(json.dumps(to_python(element)) + "\n")

            written = []
            put = store.put_stream_source

            def counting_put(source_id, *, groups, **kwargs):
                groups = list(groups)
                written.append(sum(len(rows) for _, rows in groups))
                return put(source_id, groups=groups, **kwargs)
            store.put_stream_source = counting_put
            gc.collect()
            started = time.perf_counter()
            resumed, info = incremental_stream_validate(
                schema, sigma, "Course", path, store=store)
            resume_time = time.perf_counter() - started

        gc.collect()
        started = time.perf_counter()
        cold = stream_validate(
            schema, sigma,
            {"Course": iter_jsonl_elements(path, schema, "Course")})
        cold_time = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    assert info["mode"] == "resumed"
    assert info["elements_folded"] == len(appended)
    total = STREAM_PREFIX + len(appended)
    fold_ratio = total / info["elements_folded"]
    assert fold_ratio >= MIN_FOLD_RATIO, (
        f"resume folded {info['elements_folded']} of {total} elements "
        f"— only {fold_ratio:.1f}x fewer, below {MIN_FOLD_RATIO}x")
    assert info["persisted"] and len(written) == 1
    rewritten = written[0] / info["elements_folded"]
    assert rewritten <= MAX_GROUPS_PER_FOLDED_ELEMENT, (
        f"resume wrote {written[0]} group rows for "
        f"{info['elements_folded']} folded elements — {rewritten:.1f} "
        f"per element, above {MAX_GROUPS_PER_FOLDED_ELEMENT}")
    assert not resumed.ok, "the appended clash must surface"
    assert [v.describe() for v in resumed.violations] == \
        [v.describe() for v in cold.violations], \
        "resumed witnesses diverged from the cold re-stream"

    groups_per_sec = groups / resume_time
    print(f"\nincremental: checkpointed {STREAM_PREFIX} elements "
          f"({groups} groups) in {checkpoint_time * 1000:.0f}ms; "
          f"resume folded {info['elements_folded']} in "
          f"{resume_time * 1000:.0f}ms "
          f"({groups_per_sec:,.0f} groups/s checkpointed, "
          f"{written[0]} rows written); "
          f"cold re-stream {cold_time * 1000:.0f}ms")
    gate_metrics.gauge("cache.incremental_elements_total").set(total)
    gate_metrics.gauge("cache.incremental_elements_folded").set(
        info["elements_folded"])
    gate_metrics.gauge("cache.incremental_fold_ratio").set(
        round(fold_ratio, 1))
    gate_metrics.gauge("cache.checkpoint_groups_per_sec").set(
        round(groups_per_sec, 1))
    gate_metrics.gauge("cache.groups_rewritten_per_folded_element").set(
        round(rewritten, 2))


def test_cold_validator_compile(benchmark):
    """One cold plan compile, which every check pays: compiled plans
    are not persisted, because restoring them was no faster."""
    schema, sigma, _, _ = _analysis_workload()
    engine = benchmark(lambda: ValidatorEngine(schema, sigma))
    assert engine.stats.plan_compilations == 1
