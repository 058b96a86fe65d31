"""Differential tests: the dense kernel vs. the naive reference.

The engine saturates with the dense bitset kernel: each relation's path
universe is interned into contiguous bit positions and the fixpoint is
pure integer mask arithmetic.  The naive object-level reference
saturation (:meth:`ClosureEngine.reference_closure`) computes the least
fixpoint of the *same* monotone single-step operator, so the two must
agree exactly: on every closure (relation-name and nested base), on
every implication verdict, and on every minimal-key sweep, in the plain
Section 3.1 mode, the fully-gated Section 3.2 mode, and under partial
non-empty declarations.  In the plain mode both must also match
:class:`~repro.inference.BruteForceProver` — exhaustive application of
the rules — whenever its path space is small enough to enumerate.

A deterministic seed sweep guarantees the advertised case count (the
acceptance bar is >= 200 randomized cases across the modes) independent
of hypothesis profiles; a hypothesis wrapper adds shrinking on failure.
The batch APIs (``closure_many`` / ``closure_batch`` / ``covers_many``)
are checked against their mapped one-query-at-a-time reading.
:mod:`tests.properties.test_closure_differential` runs the same
agreement check on deeper, wider schemas.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import minimal_keys
from repro.errors import InferenceError
from repro.generators import random_schema, random_sigma
from repro.inference import (
    BruteForceProver,
    ClosureEngine,
    ImplicationSession,
    NonEmptySpec,
)
from repro.nfd import NFD
from repro.paths import Path, relation_paths, set_paths

SEEDS_PER_MODE = 100
QUERIES_PER_CASE = 3
BRUTE_FORCE_MAX_PATHS = 6


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


class _Reference:
    """The naive reference saturation behind the query surface
    :func:`minimal_keys` needs (``schema``, ``tracer``,
    ``covers_batch``)."""

    def __init__(self, schema, sigma, spec):
        self.engine = ClosureEngine(schema, sigma, nonempty=spec)
        self.schema = schema
        self.tracer = None

    def covers_batch(self, base, candidates, targets):
        return [set(targets) <= self.engine.reference_closure(base, c)
                for c in candidates]


def _brute_force(schema, sigma):
    """The exhaustive prover, or None when its space is too large."""
    try:
        return BruteForceProver(schema, sigma,
                                max_paths=BRUTE_FORCE_MAX_PATHS)
    except InferenceError:
        return None


def _check_dense_agreement(seed: int, gated: bool, draw=_draw) -> None:
    rng, schema, sigma, relation, paths = draw(seed)
    spec = _partial_spec(rng, schema, relation) if gated else None
    dense = ClosureEngine(schema, sigma, nonempty=spec)
    reference = ClosureEngine(schema, sigma, nonempty=spec)
    prover = None if gated else _brute_force(schema, sigma)
    base = Path((relation,))
    for _ in range(QUERIES_PER_CASE):
        lhs = frozenset(rng.sample(paths,
                                   min(len(paths), rng.randint(0, 2))))
        closed = dense.closure(base, lhs)
        assert closed == dense.closure_simple(relation, lhs)
        assert closed == reference.reference_closure(base, lhs), \
            (sigma, spec, lhs)
        if prover is not None:
            assert closed == prover.closure(base, lhs), (sigma, lhs)
        # implication verdicts: one implied RHS, one arbitrary RHS
        for rhs in [*list(closed)[:1], *rng.sample(paths, 1)]:
            if rhs in lhs:
                continue
            nfd = NFD(base, lhs, rhs)
            assert dense.implies(nfd) == \
                (rhs in reference.reference_closure(base, lhs)), \
                (sigma, spec, nfd)
    # nested bases exercise the simple-form translation and, in gated
    # mode, the pull-out gate of ClosureEngine.closure
    nested = list(set_paths(schema, relation))
    for tail in nested[:2]:
        nested_base = base.concat(tail)
        closed = dense.closure(nested_base, ())
        assert closed == reference.reference_closure(nested_base, ()), \
            (sigma, spec, nested_base)
        if prover is not None:
            assert closed == prover.closure(nested_base, ()), \
                (sigma, nested_base)


@pytest.mark.parametrize("seed", range(SEEDS_PER_MODE))
def test_dense_equals_object_strategies_plain(seed):
    _check_dense_agreement(seed, gated=False)


@pytest.mark.parametrize("seed", range(SEEDS_PER_MODE))
def test_dense_equals_object_strategies_gated(seed):
    _check_dense_agreement(seed, gated=True)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.booleans())
def test_dense_equals_object_strategies_hypothesis(seed, gated):
    """Shrinkable variant of the seed sweep above."""
    _check_dense_agreement(seed, gated)


def test_brute_force_runs_on_most_plain_cases():
    """The exhaustive oracle must actually run, not skip every case."""
    feasible = sum(
        1 for seed in range(SEEDS_PER_MODE)
        if _brute_force(*_draw(seed)[1:3]) is not None)
    assert feasible >= SEEDS_PER_MODE // 2


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("oracle", [
    pytest.param(ClosureEngine.closure, id="dense"),
    # the naive reference, which the former worklist engine matched
    pytest.param(ClosureEngine.reference_closure, id="worklist"),
])
def test_closure_many_matches_mapped_closure(seed, oracle):
    """The batch API answers exactly like one-at-a-time closure calls
    (on a fresh engine, so neither order nor seeding can leak), by the
    kernel and by the reference saturation."""
    rng, schema, sigma, relation, paths = _draw(seed)
    base = Path((relation,))
    queries = []
    for _ in range(6):
        lhs = frozenset(rng.sample(paths,
                                   min(len(paths), rng.randint(0, 3))))
        queries.append((base, lhs))
    batch = ClosureEngine(schema, sigma).closure_many(queries)
    single = ClosureEngine(schema, sigma)
    assert batch == [oracle(single, b, lhs) for b, lhs in queries]


@pytest.mark.parametrize("seed", range(20))
def test_session_batches_match_engine(seed):
    """closure_batch and covers_batch agree with the mapped reading."""
    rng, schema, sigma, relation, paths = _draw(seed)
    base = Path((relation,))
    candidates = [
        frozenset(rng.sample(paths, min(len(paths), rng.randint(0, 2))))
        for _ in range(5)
    ]
    targets = rng.sample(paths, min(len(paths), 2))
    session = ImplicationSession(schema, sigma)
    closures = session.closure_batch([(base, c) for c in candidates])
    fresh = ImplicationSession(schema, sigma)
    assert closures == [fresh.closure(base, c) for c in candidates]
    assert session.covers_batch(base, candidates, targets) == [
        all(t in closed for t in targets) for closed in closures
    ]


@pytest.mark.parametrize("seed", range(15))
@pytest.mark.parametrize("gated", [False, True])
def test_dense_keys_match_object_strategies(seed, gated):
    rng, schema, sigma, relation, paths = _draw(seed)
    spec = _partial_spec(rng, schema, relation) if gated else None
    assert minimal_keys(schema, sigma, relation, nonempty=spec) == \
        minimal_keys(schema, sigma, relation,
                     engine=_Reference(schema, sigma, spec))
