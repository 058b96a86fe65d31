"""Property tests for Theorem 3.1: soundness and completeness.

Soundness — whatever the engine derives holds semantically: every
Sigma-satisfying instance (without empty sets) satisfies every implied
NFD.

Completeness — whatever the engine does *not* derive is semantically
refutable: the Appendix-A construction yields an instance satisfying
Sigma and violating the candidate.

Empty-set soundness — the gated engine's derivations hold on every
instance *admitted by the spec*, even ones with empty sets elsewhere.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import (
    random_instance,
    random_nfd,
    random_schema,
    random_sigma,
)
from repro.inference import ClosureEngine, NonEmptySpec, \
    build_countermodel
from repro.nfd import satisfies, satisfies_all
from repro.paths import Path
from repro.values import check_instance, has_empty_sets


def _draw(seed: int):
    rng = random.Random(seed)
    schema = random_schema(rng, relations=1, max_fields=3, max_depth=2,
                           set_probability=0.5)
    sigma = random_sigma(rng, schema, count=rng.randint(1, 3))
    candidate = random_nfd(rng, schema, max_lhs=2)
    return rng, schema, sigma, candidate


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_soundness(seed):
    rng, schema, sigma, candidate = _draw(seed)
    engine = ClosureEngine(schema, sigma)
    if not engine.implies(candidate):
        return
    checked = 0
    for _ in range(120):
        instance = random_instance(rng, schema, tuples=2, domain=2)
        if satisfies_all(instance, sigma):
            checked += 1
            assert satisfies(instance, candidate), \
                (sigma, candidate, instance)
        if checked >= 25:
            break


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_completeness_via_countermodel(seed):
    _, schema, sigma, candidate = _draw(seed)
    engine = ClosureEngine(schema, sigma)
    if engine.implies(candidate):
        return
    witness = build_countermodel(engine, candidate.base, candidate.lhs)
    check_instance(witness)
    assert not has_empty_sets(witness)
    assert satisfies_all(witness, sigma)
    assert not satisfies(witness, candidate), (sigma, candidate)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_empty_set_soundness(seed):
    """Gated derivations hold on spec-admitted instances with holes.

    Uses deeper schemas, local candidates, and *partial* random specs —
    the configuration that exposed the pull-out unsoundness fixed in
    ClosureEngine.closure (see DESIGN.md section 3.3).
    """
    from repro.paths import set_paths

    rng = random.Random(seed)
    schema = random_schema(rng, relations=1, max_fields=3, max_depth=3,
                           set_probability=0.6)
    relation = schema.relation_names[0]
    sigma = random_sigma(rng, schema, count=rng.randint(1, 4),
                         local_probability=0.4)
    candidate = random_nfd(rng, schema, max_lhs=2,
                           local_probability=0.5)
    declared = {Path((relation,))}
    for p in set_paths(schema, relation):
        if rng.random() < 0.5:
            declared.add(Path((relation,)).concat(p))
    spec = NonEmptySpec(declared)
    engine = ClosureEngine(schema, sigma, nonempty=spec)
    if not engine.implies(candidate):
        return
    checked = 0
    for _ in range(150):
        instance = random_instance(rng, schema, tuples=2, domain=2,
                                   empty_probability=0.35)
        if not spec.admits(instance):
            continue
        if satisfies_all(instance, sigma):
            checked += 1
            assert satisfies(instance, candidate), \
                (sigma, candidate, spec, instance)
        if checked >= 20:
            break
