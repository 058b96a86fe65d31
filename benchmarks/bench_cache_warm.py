"""Incremental resumable streaming over the persistent cache.

The :mod:`repro.store` production claim, as an acceptance gate:

* ``test_incremental_append_gate`` — after appending 1% to a
  checkpointed JSONL source, ``--incremental`` revalidation folds only
  the appended elements (at least :data:`MIN_FOLD_RATIO` times fewer
  than the file holds) and reports witnesses byte-identical to a full
  cold re-stream, and writes at most
  :data:`MAX_GROUPS_PER_FOLDED_ELEMENT` group rows per folded element —
  an exact count of the checkpoint work, independent of the host.

The store keeps no implications: a closure query is one saturation of
the dense kernel, which a stored answer read back from SQLite did not
beat (see ``test_cold_validator_compile`` for the same finding about
compiled plans).

The ``cache.*_per_sec`` gauge is the perf trajectory: nightly CI dumps
it into ``BENCH_cache.json`` and ``--compare`` fails the run when the
rate falls more than 20% below the committed baseline.
"""

import gc
import json
import os
import random
import shutil
import tempfile
import time

from repro.generators import random_sigma, workloads
from repro.io.stream import dump_jsonl, iter_jsonl_elements, \
    iter_set_elements
from repro.nfd import ValidatorEngine, stream_validate
from repro.store import CacheStore, incremental_stream_validate
from repro.values import Atom, to_python

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
    schema = workloads.course_schema()
    sigma = tuple(random_sigma(random.Random(11), schema, count=12))
    engine = benchmark(lambda: ValidatorEngine(schema, sigma))
    assert engine.stats.plan_compilations == 1
