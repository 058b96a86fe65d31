"""Differential tests: the engine as a query server vs the naive reference.

The engine serves every query through its dense query state —
held keys read off without saturating, new keys seeded from their
drop-one sub-queries, batches visited in subset order — and hands out
copy-on-write Sigma probes; none of that may change an answer.  Each
case draws a random (schema, Sigma), serves a repetitive query stream
through one engine — repeating queries (held keys), growing LHSs
(drop-one seeds), one subset-ordered batch, and interleaved
``without``/``with_added`` probes — and checks every answer against
the naive reference saturation (:meth:`ClosureEngine.reference_closure`)
over the corresponding Sigma.

A deterministic seed sweep guarantees the advertised case count (the
acceptance bar is >= 200 randomized cases across the plain and gated
modes); a hypothesis wrapper adds shrinking on failure.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import random_schema, random_sigma
from repro.inference import ClosureEngine, NonEmptySpec
from repro.paths import Path, relation_paths, set_paths

SEEDS_PER_MODE = 100


def _draw(seed: int):
    rng = random.Random(seed)
    schema = random_schema(rng, relations=1, max_fields=3, max_depth=2,
                           set_probability=0.5)
    sigma = random_sigma(rng, schema, count=rng.randint(1, 4), max_lhs=2)
    relation = schema.relation_names[0]
    paths = relation_paths(schema, relation)
    return rng, schema, sigma, relation, paths


def _partial_spec(rng: random.Random, schema, relation: str) \
        -> NonEmptySpec:
    declared = {Path((relation,))}
    for p in set_paths(schema, relation):
        if rng.random() < 0.5:
            declared.add(Path((relation,)).concat(p))
    return NonEmptySpec(declared)


def _query_stream(rng: random.Random, paths):
    """Nested LHS chains plus repeats: the shapes that hit held keys
    and drop-one seeds."""
    queries = []
    for _ in range(3):
        chain = rng.sample(paths, min(len(paths), rng.randint(1, 3)))
        for cut in range(1, len(chain) + 1):
            queries.append(frozenset(chain[:cut]))
    queries.extend(rng.sample(queries, min(len(queries), 4)))
    queries.append(frozenset())
    return queries


def _check_agreement(seed: int, gated: bool) -> None:
    rng, schema, sigma, relation, paths = _draw(seed)
    spec = _partial_spec(rng, schema, relation) if gated else None
    session = ClosureEngine(schema, sigma, spec)
    reference = ClosureEngine(schema, sigma, nonempty=spec)
    base = Path((relation,))

    stream = _query_stream(rng, paths)
    for lhs in stream:
        expected = reference.reference_closure(base, lhs)
        assert session.closure_simple(relation, lhs) == expected, \
            (sigma, spec, lhs)
        assert session.closure(base, lhs) == expected, (sigma, spec, lhs)

    # interleaved copy-on-write probes answer like the reference over
    # the perturbed Sigma...
    probe_lhs = frozenset(rng.sample(paths, min(len(paths), 2)))
    if sigma:
        index = rng.randrange(len(sigma))
        rest = sigma[:index] + sigma[index + 1:]
        assert session.without(index).closure_simple(relation, probe_lhs) \
            == ClosureEngine(schema, rest, nonempty=spec) \
            .reference_closure(base, probe_lhs), (sigma, spec, index)
        extra = sigma[index]
        grown = sigma + [extra]
        assert session.with_added(extra) \
            .closure_simple(relation, probe_lhs) == \
            ClosureEngine(schema, grown, nonempty=spec) \
            .reference_closure(base, probe_lhs), (sigma, spec, index)

    # ...and the probed session keeps answering for the original Sigma,
    # one query at a time and as one subset-ordered batch
    stream = _query_stream(rng, paths)
    for lhs in stream:
        assert session.closure_simple(relation, lhs) == \
            reference.reference_closure(base, lhs), (sigma, spec, lhs)
    assert session.closure_batch([(base, lhs) for lhs in stream]) == \
        [reference.reference_closure(base, lhs) for lhs in stream], \
        (sigma, spec)


@pytest.mark.parametrize("seed", range(SEEDS_PER_MODE))
def test_session_equals_fresh_engine_plain(seed):
    _check_agreement(seed, gated=False)


@pytest.mark.parametrize("seed", range(SEEDS_PER_MODE))
def test_session_equals_fresh_engine_gated(seed):
    _check_agreement(seed, gated=True)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.booleans())
def test_session_equals_fresh_engine_hypothesis(seed, gated):
    """Shrinkable variant of the seed sweep above."""
    _check_agreement(seed, gated)
