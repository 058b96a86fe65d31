"""E12 (continued) — scaling of the Appendix-A construction.

The completeness witness is built per query; this bench sweeps schema
breadth and depth to show construction cost stays interactive.  Each
constructed instance is verified to separate (Lemma A.1) outside the
timed region.
"""

import random

import pytest

from repro.generators import random_schema, random_sigma
from repro.inference import ClosureEngine, build_countermodel
from repro.nfd import NFD, ValidatorEngine
from repro.paths import Path, relation_paths

CASES = {
    "wide (fields=6, depth=1)": dict(max_fields=6, max_depth=1),
    "balanced (fields=4, depth=2)": dict(max_fields=4, max_depth=2),
    "deep (fields=3, depth=4)": dict(max_fields=3, max_depth=4),
}


def _pick_query(rng, schema, engine):
    """A non-implied single-path query (so the witness must separate)."""
    relation = schema.relation_names[0]
    paths = relation_paths(schema, relation)
    base = Path((relation,))
    for _ in range(50):
        lhs = frozenset(rng.sample(paths, 1))
        closed = engine.closure(base, lhs)
        outside = [q for q in paths if q not in closed]
        if outside:
            return base, lhs, outside
    return base, frozenset(), [p for p in paths]


@pytest.mark.parametrize("case", CASES)
def test_construction(benchmark, case):
    rng = random.Random(hash(case) % 100_000)
    schema = random_schema(rng, relations=1, set_probability=0.7,
                           **CASES[case])
    sigma = random_sigma(rng, schema, count=4)
    engine = ClosureEngine(schema, sigma)
    base, lhs, outside = _pick_query(rng, schema, engine)
    benchmark.group = "countermodel construction"

    witness = benchmark(lambda: build_countermodel(engine, base, lhs))

    assert ValidatorEngine(witness.schema, sigma).check(witness)
    for q in outside[:3]:
        assert not ValidatorEngine(
            witness.schema, [NFD(base, lhs, q)]).check(witness), q
