"""E12 — scaling of the closure engine.

Sweeps the two structural knobs the theory exposes:

* |Sigma| — more dependencies at a fixed schema;
* nesting depth — deeper schemas at a fixed |Sigma|.

Expected shape: roughly linear growth in |Sigma| for fixed schemas;
super-linear but polynomial growth in depth (the singleton-candidate
family grows with the number of set paths times depth).
"""

import random

import pytest

from repro.generators import random_schema, random_sigma
from repro.inference import ClosureEngine
from repro.paths import Path, relation_paths

SIGMA_SIZES = [2, 8, 32]
DEPTHS = [1, 2, 3]


def _fixed_schema():
    return random_schema(random.Random(99), relations=1, max_fields=4,
                         max_depth=2, set_probability=0.5)


@pytest.mark.parametrize("size", SIGMA_SIZES)
def test_scaling_sigma(benchmark, size):
    schema = _fixed_schema()
    rng = random.Random(100 + size)
    sigma = random_sigma(rng, schema, count=size, max_lhs=2)
    relation = schema.relation_names[0]
    paths = relation_paths(schema, relation)
    lhs = frozenset(paths[:2])
    benchmark.group = "closure vs |Sigma|"

    def compute():
        engine = ClosureEngine(schema, sigma)
        return engine.closure(Path((relation,)), lhs)

    closed = benchmark(compute)
    assert lhs <= closed


@pytest.mark.parametrize("depth", DEPTHS)
def test_scaling_depth(benchmark, depth):
    rng = random.Random(200 + depth)
    schema = random_schema(rng, relations=1, max_fields=3,
                           max_depth=depth, set_probability=0.8)
    sigma = random_sigma(rng, schema, count=6, max_lhs=2)
    relation = schema.relation_names[0]
    paths = relation_paths(schema, relation)
    lhs = frozenset(paths[:1])
    benchmark.group = "closure vs depth"

    def compute():
        engine = ClosureEngine(schema, sigma)
        return engine.closure(Path((relation,)), lhs)

    closed = benchmark(compute)
    assert lhs <= closed


def test_engine_reuse_amortizes(benchmark):
    """Querying a warm engine is much cheaper than building one: the
    saturation state is shared across queries."""
    schema = _fixed_schema()
    rng = random.Random(300)
    sigma = random_sigma(rng, schema, count=16, max_lhs=2)
    relation = schema.relation_names[0]
    paths = relation_paths(schema, relation)
    engine = ClosureEngine(schema, sigma)
    base = Path((relation,))
    queries = [frozenset([p]) for p in paths]
    for query in queries:
        engine.closure(base, query)  # warm every query once

    def query_all_warm():
        return [engine.closure(base, query) for query in queries]

    results = benchmark(query_all_warm)
    assert len(results) == len(queries)
