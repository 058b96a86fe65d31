"""Differential tests: the production engine vs. the naive reference,
on deeper and wider schemas than :mod:`.test_closure_dense` draws.

The engine's saturation began as an indexed worklist and is now the
dense bitset kernel; the test names below date from the worklist, and
the property they check has not changed: the production saturation and
the naive reference compute the least fixpoint of the same monotone
single-step operator, so they must agree exactly, in both the plain
Section 3.1 mode and the non-empty-gated Section 3.2 mode, and the
production saturation must reach it with no more rule attempts.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import random_schema, random_sigma
from repro.inference import ClosureEngine
from repro.paths import Path, relation_paths

from .test_closure_dense import _check_dense_agreement

SEEDS_PER_MODE = 40


def _draw(seed: int):
    rng = random.Random(seed)
    schema = random_schema(rng, relations=1, max_fields=4, max_depth=3,
                           set_probability=0.5)
    sigma = random_sigma(rng, schema, count=rng.randint(1, 6), max_lhs=3)
    relation = schema.relation_names[0]
    paths = relation_paths(schema, relation)
    return rng, schema, sigma, relation, paths


@pytest.mark.parametrize("seed", range(SEEDS_PER_MODE))
def test_worklist_equals_naive_plain(seed):
    _check_dense_agreement(seed, gated=False, draw=_draw)


@pytest.mark.parametrize("seed", range(SEEDS_PER_MODE))
def test_worklist_equals_naive_gated(seed):
    _check_dense_agreement(seed, gated=True, draw=_draw)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.booleans())
def test_worklist_equals_naive_hypothesis(seed, gated):
    """Shrinkable variant of the seed sweep above."""
    _check_dense_agreement(seed, gated, draw=_draw)


@pytest.mark.parametrize("seed", range(10))
def test_worklist_does_less_work(seed):
    """No more rule attempts than the reference's rescans, identical
    successes (both derive exactly the closure of the same queries)."""
    rng, schema, sigma, relation, paths = _draw(seed)
    engine = ClosureEngine(schema, sigma)
    reference_attempts = 0
    apply_usable = engine._apply_usable

    def counted(*args):
        nonlocal reference_attempts
        reference_attempts += 1
        return apply_usable(*args)

    engine._apply_usable = counted
    base = Path((relation,))
    for p in paths:
        assert engine.closure(base, frozenset([p])) == \
            engine.reference_closure(base, frozenset([p]))
    derived = engine._references[relation].provenance.values()
    assert engine.stats.attempts <= reference_attempts
    assert engine.stats.successes == sum(len(d) for d in derived)
