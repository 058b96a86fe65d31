"""Differential property tests: the batch engine vs the reference checkers.

:class:`repro.nfd.ValidatorEngine` compiles shared path-trie plans and
validates a whole Σ in one walk; these tests pin its verdicts to the
literal Definition-2.4 checker (`satisfies`, `satisfies_all`) *per
NFD* and per Σ, across randomized schemas, constraint sets, and
instances — including instances with empty sets (the
trivially-true escape clause) and hence partially defined paths.

Together the three seeds-based tests run ≥ 200 randomized cases.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import random_instance, random_schema, random_sigma
from repro.nfd import ValidatorEngine, satisfies, satisfies_all


def _draw_case(seed: int, empty_probability: float):
    rng = random.Random(seed)
    schema = random_schema(rng, relations=1, max_fields=3, max_depth=2,
                           set_probability=0.5)
    sigma = random_sigma(rng, schema, count=rng.randint(1, 4))
    instance = random_instance(rng, schema, tuples=3, domain=2,
                               empty_probability=empty_probability)
    return schema, sigma, instance


def _assert_engine_agrees(schema, sigma, instance):
    engine = ValidatorEngine(schema, sigma)
    result = engine.validate(instance, all_violations=True)
    expected_failed = {nfd for nfd in sigma
                       if not satisfies(instance, nfd)}
    assert set(result.failed) == expected_failed
    assert engine.check(instance) == (not expected_failed) == \
        satisfies_all(instance, sigma)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_engine_agrees_without_empty_sets(seed):
    schema, sigma, instance = _draw_case(seed, empty_probability=0.0)
    _assert_engine_agrees(schema, sigma, instance)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_engine_agrees_with_empty_sets(seed):
    """Empty sets exercise the Definition 2.4 escape clause: paths that
    run into an empty set are undefined and constrain nothing."""
    schema, sigma, instance = _draw_case(seed, empty_probability=0.3)
    _assert_engine_agrees(schema, sigma, instance)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_single_nfd_engine_matches_both_checkers(seed):
    """Per-NFD engines (the find_violation path) agree with the
    reference checker, heavier on empty sets."""
    schema, sigma, instance = _draw_case(seed, empty_probability=0.5)
    for nfd in sigma:
        engine = ValidatorEngine(schema, (nfd,))
        assert engine.check(instance) == satisfies(instance, nfd)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_exhaustive_violations_cover_every_failed_nfd(seed):
    """Every violated NFD contributes at least one witness, witnesses
    come in Σ order, and each witness really disagrees on its RHS."""
    schema, sigma, instance = _draw_case(seed, empty_probability=0.2)
    engine = ValidatorEngine(schema, sigma)
    result = engine.validate(instance, all_violations=True)
    order = {nfd: pos for pos, nfd in enumerate(sigma)}
    positions = [order[v.nfd] for v in result.violations]
    assert positions == sorted(positions)
    for violation in result.violations:
        assert violation.rhs_value1 != violation.rhs_value2
        assert not satisfies(instance, violation.nfd)
