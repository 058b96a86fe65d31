"""Differential property tests: the persistent cache is invisible.

The store is a pure accelerator, so for any random schema/Σ/instance
the full cache-mode matrix — no cache, cold cache, warm cache,
read-only warm cache — must produce byte-identical witness
descriptions and closures.  Each hypothesis case runs the whole
matrix (for validation, through the stream checkpoints), so the
default profile's 100 examples exercise several hundred cached
validations per suite run (the nightly profile multiplies that by
10).

The concurrency half drives two OS processes writing the same WAL
database through :func:`repro.parallel.process_map`: the database must
stay uncorrupted (``PRAGMA integrity_check``), contended rows must
resolve to exactly one writer's value (last-writer-wins, never a
torn/merged row), and uncontended rows must read back verbatim.
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
from repro.inference import ImplicationSession
from repro.io.stream import dump_jsonl, iter_jsonl_elements, \
    iter_set_elements
from repro.nfd import ValidatorEngine, stream_validate
from repro.parallel import process_map
from repro.paths import parse_path
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
    """off / cold / warm / read-only-warm all agree, byte for byte."""
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
        reader = CacheStore(workdir, read_only=True)
        try:
            ro, info = incremental_stream_validate(
                schema, sigma, relation, path, store=reader)
            assert info["mode"] == "resumed"
            assert _witnesses(ro) == expected
        finally:
            reader.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_warm_sessions_answer_every_closure_identically(seed):
    """Cold-computed and store-restored closures agree on every base
    and every single-attribute LHS — and the warm pass saturates
    nothing."""
    schema, sigma, _ = _draw_case(seed)
    queries = []
    for relation in schema.relation_names:
        labels = schema.element_type(relation).labels
        base = parse_path(relation)
        queries.append((base, frozenset()))
        for label in labels:
            queries.append((base, frozenset({parse_path(label)})))
    plain = ImplicationSession(schema, sigma)
    expected = [plain.closure(base, lhs) for base, lhs in queries]
    workdir = tempfile.mkdtemp(prefix="repro-storeprop-")
    try:
        with CacheStore(workdir) as store:
            cold = ImplicationSession(schema, sigma, store=store)
            assert [cold.closure(b, l) for b, l in queries] == expected
        with CacheStore(workdir) as store:
            warm = ImplicationSession(schema, sigma, store=store)
            assert [warm.closure(b, l) for b, l in queries] == expected
            assert warm.engine.stats.attempts == 0
            assert warm.stats.store_hits == len(queries)
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


def _writer_probe(store, task):
    fp, relation, lhs_texts, closure_texts = task
    lhs = frozenset(parse_path(t) for t in lhs_texts)
    closure = frozenset(parse_path(t) for t in closure_texts)
    store.put_closure(fp, relation, lhs, closure)
    return store.stats.errors


class TestConcurrentWALWriters:
    def test_two_processes_share_one_store_without_corruption(
            self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        contended_a = ("a", "b")
        contended_b = ("a", "c")
        tasks = []
        for i in range(20):
            # every worker hammers the same contended row ...
            tasks.append(("fp", "R", ("a",),
                          contended_a if i % 2 else contended_b))
            # ... and owns one uncontended row of its own
            tasks.append(("fp", "R", (f"k{i}",), (f"k{i}", "z")))
        errors = process_map(_writer_setup, cache_dir, _writer_probe,
                             tasks, jobs=2)
        assert all(count == 0 for count in errors)
        with CacheStore(cache_dir) as store:
            assert store.integrity_check()
            # contended row: exactly one writer's value, never a merge
            winner = store.get_closure("fp", "R",
                                       frozenset({parse_path("a")}))
            candidates = [frozenset(parse_path(t) for t in texts)
                          for texts in (contended_a, contended_b)]
            assert winner in candidates
            # uncontended rows read back verbatim
            for i in range(20):
                row = store.get_closure(
                    "fp", "R", frozenset({parse_path(f"k{i}")}))
                assert row == frozenset({parse_path(f"k{i}"),
                                         parse_path("z")})

    def test_last_writer_wins_within_one_connection(self, tmp_path):
        with CacheStore(str(tmp_path / "cache")) as store:
            lhs = frozenset({parse_path("a")})
            first = frozenset({parse_path("a"), parse_path("b")})
            second = frozenset({parse_path("a"), parse_path("c")})
            store.put_closure("fp", "R", lhs, first)
            store.put_closure("fp", "R", lhs, second)
            assert store.get_closure("fp", "R", lhs) == second
