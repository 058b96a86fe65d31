"""Differential property tests: streaming vs the in-memory engine.

:func:`repro.nfd.stream_validate` must report **exactly** the
violations — same witnesses, same order — as
:meth:`repro.nfd.ValidatorEngine.validate` on the materialized
instance, whether the group tables stay resident or spill to disk, and
whether the elements arrive in one stream or sharded (including shards
split so that no single worker sees both elements of a clash).

The three seeded hypothesis tests run 100 examples each under the
default profile (≥ 300 randomized cases per run; the nightly profile
raises them to 1000 each — they deliberately do not pin
``max_examples``), and the explicit seed loops cover the JSONL
round-trip and the multiprocess fan-out.
"""

import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import random_instance, random_schema, random_sigma
from repro.io.stream import dump_jsonl, iter_set_elements, plan_shards
from repro.nfd import (
    ResourceBudget,
    ValidatorEngine,
    shard_validate,
    stream_validate,
)


def _draw_case(seed: int, empty_probability: float):
    rng = random.Random(seed)
    schema = random_schema(rng, relations=1, max_fields=3, max_depth=2,
                           set_probability=0.5)
    sigma = random_sigma(rng, schema, count=rng.randint(1, 3))
    instance = random_instance(rng, schema, tuples=rng.randint(2, 4),
                               domain=2,
                               empty_probability=empty_probability)
    return rng, schema, sigma, instance


def _reference(schema, sigma, instance):
    result = ValidatorEngine(schema, sigma).validate(
        instance, all_violations=True)
    return [v.describe() for v in result.violations]


def _sources(instance):
    return {name: iter_set_elements(value)
            for name, value in instance.relations()}


def _row_shards(rng, instance, relation):
    """Split the relation's serial walk into 2-3 contiguous row shards
    at random cut points (empty shards are legitimate)."""
    ordered = list(instance.relation(relation))
    count = rng.randint(2, 3)
    cuts = sorted(rng.randint(0, len(ordered)) for _ in range(count - 1))
    shards = []
    lo = 0
    for cut in cuts + [len(ordered)]:
        shards.append(("rows", ordered[lo:cut]))
        lo = cut
    return shards


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_adapter_stream_matches_engine(seed):
    """Unbudgeted streaming over the in-memory adapter is witness-exact."""
    _, schema, sigma, instance = _draw_case(seed, empty_probability=0.2)
    expected = _reference(schema, sigma, instance)
    result = stream_validate(schema, sigma, _sources(instance))
    assert [v.describe() for v in result.violations] == expected
    assert result.ok == (not expected)
    assert result.budget_exhausted is None


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_spilling_stream_matches_engine(seed):
    """A 2-row budget forces external sort-merge grouping; witnesses
    and order must not change, and residency must respect the cap."""
    _, schema, sigma, instance = _draw_case(seed, empty_probability=0.3)
    expected = _reference(schema, sigma, instance)
    result = stream_validate(schema, sigma, _sources(instance),
                             budget=ResourceBudget(max_resident_rows=2))
    assert [v.describe() for v in result.violations] == expected
    assert result.stats.peak_resident_rows <= 2
    if result.stats.rows_spilled:
        assert result.stats.spills >= 1
        assert result.stats.runs_written >= 1


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_sharded_stream_matches_engine(seed):
    """Random contiguous row shards (any clash may straddle a shard
    boundary) merge to the serial witnesses, budgeted and not."""
    rng, schema, sigma, instance = _draw_case(seed,
                                              empty_probability=0.2)
    if not sigma:  # nothing to shard over; trivially consistent
        return
    relation = sigma[0].relation
    expected = _reference(schema, sigma, instance)
    shards = _row_shards(rng, instance, relation)
    result = shard_validate(schema, sigma, relation, shards)
    assert [v.describe() for v in result.violations] == expected
    budgeted = shard_validate(
        schema, sigma, relation, shards,
        budget=ResourceBudget(max_resident_rows=2))
    assert [v.describe() for v in budgeted.violations] == expected
    assert budgeted.stats.peak_resident_rows <= 2


def test_jsonl_shards_match_engine():
    """Dump → plan_shards → shard_validate equals the in-memory run."""
    checked = 0
    for seed in range(40):
        _, schema, sigma, instance = _draw_case(
            seed * 7919, empty_probability=0.2)
        if not sigma:
            continue
        relation = sigma[0].relation
        if len(instance.relation(relation)) == 0:
            continue  # plan_shards rejects empty dumps by contract
        expected = _reference(schema, sigma, instance)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "relation.jsonl"
            dump_jsonl(path, iter_set_elements(
                instance.relation(relation)))
            result = shard_validate(schema, sigma, relation,
                                    plan_shards(path, 3))
        assert [v.describe() for v in result.violations] == expected
        checked += 1
    assert checked >= 20


def test_parallel_shard_workers_match_serial():
    """jobs=2 (a real process pool) changes nothing about the result."""
    checked = 0
    for seed in range(8):
        rng, schema, sigma, instance = _draw_case(
            seed * 104_729, empty_probability=0.2)
        if not sigma:
            continue
        relation = sigma[0].relation
        expected = _reference(schema, sigma, instance)
        shards = _row_shards(rng, instance, relation)
        result = shard_validate(schema, sigma, relation, shards,
                                jobs=2)
        assert [v.describe() for v in result.violations] == expected
        assert result.completed_shards == tuple(range(len(shards)))
        checked += 1
    assert checked >= 5


def test_stream_stats_are_consistent():
    """The stats a run reports describe the run: spills leave spilled
    rows, runs and bytes behind, every emitted row went through the
    intern pool, and residency never passes the budget."""
    spilled = 0
    for seed in range(40):
        _, schema, sigma, instance = _draw_case(seed * 4242,
                                                empty_probability=0.2)
        result = stream_validate(
            schema, sigma, _sources(instance),
            budget=ResourceBudget(max_resident_rows=2))
        stats = result.stats
        if stats.spills:
            spilled += 1
            assert stats.rows_spilled > 0
            assert stats.runs_written >= 1
            assert stats.bytes_spilled > 0
        if stats.rows_emitted:
            assert stats.intern_hits + stats.intern_misses > 0
        assert stats.peak_resident_rows <= 2
    assert spilled >= 5
