"""Differential property tests: the persistent cache is invisible.

The store is a pure accelerator, so for any random schema/Σ/instance
the cache-mode matrix — no cache, cold cache, warm cache — must
produce byte-identical witness descriptions through the stream
checkpoints.  Each hypothesis case runs the whole matrix, so the
default profile's 100 examples exercise a few hundred cached
validations per suite run (the nightly profile multiplies that by
10).

The concurrency half drives two OS processes writing stream
checkpoints into the same WAL database through
:func:`repro.parallel.process_map`: the database must stay uncorrupted
(``PRAGMA integrity_check``), a contended source must resolve to
exactly one writer's checkpoint (last-writer-wins, never a torn or
merged one), and uncontended sources must read back verbatim.
"""

import json
import os
import random
import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import random_instance, random_schema, \
    random_sigma
from repro.io.stream import dump_jsonl, iter_jsonl_elements, \
    iter_set_elements
from repro.nfd import ValidatorEngine, stream_validate
from repro.parallel import process_map
from repro.store import CacheStore, incremental_stream_validate
from repro.values import to_python


def _draw_case(seed: int):
    rng = random.Random(seed)
    schema = random_schema(rng, relations=1, max_fields=3, max_depth=2,
                           set_probability=0.5)
    sigma = random_sigma(rng, schema, count=rng.randint(1, 3))
    instance = random_instance(rng, schema, tuples=rng.randint(2, 5),
                               domain=2, empty_probability=0.2)
    return schema, tuple(sigma), instance


def _witnesses(result):
    return [v.describe() for v in result.violations]


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_cache_mode_matrix_is_invisible(seed):
    """off / cold / warm all agree, byte for byte."""
    schema, sigma, instance = _draw_case(seed)
    expected = _witnesses(ValidatorEngine(schema, sigma).validate(
        instance, all_violations=True))
    workdir = tempfile.mkdtemp(prefix="repro-storeprop-")
    relation = schema.relation_names[0]
    path = os.path.join(workdir, "stream.jsonl")
    try:
        if not dump_jsonl(path, iter_set_elements(
                instance.relation(relation))):
            return  # an empty cold stream is a typed error, not a run
        with CacheStore(workdir) as store:
            cold, info = incremental_stream_validate(
                schema, sigma, relation, path, store=store)
            assert info["mode"] == "cold"
            assert _witnesses(cold) == expected
        with CacheStore(workdir) as store:
            warm, info = incremental_stream_validate(
                schema, sigma, relation, path, store=store)
            assert info["mode"] == "resumed"
            assert _witnesses(warm) == expected
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=100_000),
       st.integers(min_value=0, max_value=10**6))
def test_incremental_resume_matches_cold_at_any_split(seed, cut):
    """Checkpoint after a random prefix, fold the rest incrementally:
    witnesses equal the full cold re-stream, at every split point."""
    schema, sigma, instance = _draw_case(seed)
    relation = schema.relation_names[0]
    rows = [to_python(e)
            for e in iter_set_elements(instance.relation(relation))]
    if not rows:
        return
    # split >= 1: an empty cold stream is a typed StreamError by
    # design (the CLI exits 2), not a checkpointable run
    split = 1 + cut % len(rows)
    workdir = tempfile.mkdtemp(prefix="repro-storeprop-")
    try:
        path = os.path.join(workdir, "stream.jsonl")
        dump_jsonl(path, instance.relation(relation).elements)
        lines = open(path).readlines()
        with open(path, "w") as handle:
            handle.writelines(lines[:split])
        with CacheStore(os.path.join(workdir, "cache")) as store:
            first, info = incremental_stream_validate(
                schema, sigma, relation, path, store=store)
            assert info["mode"] == "cold"
            with open(path, "a") as handle:
                handle.writelines(lines[split:])
            resumed, info = incremental_stream_validate(
                schema, sigma, relation, path, store=store)
            assert info["elements_folded"] == len(rows) - split
        cold = stream_validate(
            schema, sigma,
            {relation: iter_jsonl_elements(path, schema, relation,
                                           require_elements=False)})
        assert _witnesses(resumed) == _witnesses(cold)
        assert resumed.ok == cold.ok
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ------------------------------------------------- concurrent writers
# Module-level workers so the process pool can pickle them.

def _writer_setup(cache_dir):
    return CacheStore(cache_dir)


def _put(store, source_id, tag):
    """Write one checkpoint of *source_id* whose every part — content
    hash, state, group row, witness element — carries *tag*."""
    return store.put_stream_source(
        source_id, fingerprint="fp", relation="R", line_count=1,
        content_hash=tag, mtime=0.0, state={"tag": tag},
        groups=[("0:R:[a -> b]",
                 [(b"k", 0, ["agg", tag], [(1, {"a": tag})])])])


def _read(store, source_id):
    """The stored checkpoint of *source_id* as ``(hash, state, group
    rows, elements)``, or None."""
    entry = store.get_stream_source(source_id)
    if entry is None:
        return None
    return (entry["content_hash"], entry["state"],
            list(store.iter_stream_groups(source_id, plan=0,
                                          keys=[b"k"])),
            store.get_stream_elements(source_id, [1]))


def _whole(tag):
    return (tag, {"tag": tag}, [(0, b"k", ["agg", tag])], {1: {"a": tag}})


def _writer_probe(store, task):
    source_id, tag = task
    _put(store, source_id, tag)
    return store.stats.errors


class TestConcurrentWALWriters:
    def test_two_processes_share_one_store_without_corruption(
            self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        tasks = []
        for i in range(20):
            # every worker hammers the same contended source ...
            tasks.append(("shared", "even" if i % 2 == 0 else "odd"))
            # ... and owns one uncontended source of its own
            tasks.append((f"own{i}", f"t{i}"))
        errors = process_map(_writer_setup, cache_dir, _writer_probe,
                             tasks, jobs=2)
        assert all(count == 0 for count in errors)
        with CacheStore(cache_dir) as store:
            assert store.integrity_check()
            # contended source: exactly one writer's checkpoint, whole
            assert _read(store, "shared") in (_whole("even"),
                                              _whole("odd"))
            # uncontended sources read back verbatim
            for i in range(20):
                assert _read(store, f"own{i}") == _whole(f"t{i}")
            assert store.summary()["stream_sources"] == 21

    def test_last_writer_wins_within_one_connection(self, tmp_path):
        with CacheStore(str(tmp_path / "cache")) as store:
            assert _put(store, "a", "first")
            assert _put(store, "a", "second")
            assert _read(store, "a") == _whole("second")
