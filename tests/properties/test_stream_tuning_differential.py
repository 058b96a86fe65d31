"""Differential property tests: the streaming hot path against the oracles.

:func:`repro.nfd.stream_validate` has one hot path — dict group tables,
batched binding emission, an always-on intern pool, plain-codec spill
runs in 64-pair pickle chunks.  For any random schema/Σ/instance it
must report byte-identical witness descriptions to the in-memory
:class:`repro.nfd.ValidatorEngine`, and its verdict must equal the
Definition 2.4 oracle :func:`repro.nfd.satisfy.satisfies_all`, in
two settings:

* resident (no budget);
* spilling (a 2-row budget, so every table goes through sorted runs and
  the k-way merge).

Each of these runs 100 hypothesis examples under the default profile
(the nightly profile multiplies that by 10).  Six fixed spilling cases
also check that the run's stats describe the run.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import random_instance, random_schema, random_sigma
from repro.io.stream import iter_set_elements
from repro.nfd import (
    ResourceBudget,
    ValidatorEngine,
    stream_validate,
)
from repro.nfd.satisfy import satisfies_all


def _draw_case(seed: int):
    rng = random.Random(seed)
    schema = random_schema(rng, relations=1, max_fields=3, max_depth=2,
                           set_probability=0.5)
    sigma = random_sigma(rng, schema, count=rng.randint(1, 3))
    instance = random_instance(rng, schema, tuples=rng.randint(2, 4),
                               domain=2, empty_probability=0.2)
    return schema, sigma, instance


def _sources(instance):
    return {name: iter_set_elements(value)
            for name, value in instance.relations()}


def _witnesses(result):
    return [v.describe() for v in result.violations]


def _oracles(schema, sigma, instance):
    """The in-memory engine's witnesses and the Def. 2.4 verdict; the
    two must agree with each other before they can judge the stream."""
    expected = _witnesses(ValidatorEngine(schema, sigma).validate(
        instance, all_violations=True))
    holds = satisfies_all(instance, sigma)
    assert holds == (not expected)
    return expected, holds


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_all_tunings_match_engine_resident(seed):
    """Unbudgeted: the stream equals the in-memory engine exactly."""
    schema, sigma, instance = _draw_case(seed)
    expected, holds = _oracles(schema, sigma, instance)
    result = stream_validate(schema, sigma, _sources(instance))
    assert _witnesses(result) == expected
    assert result.ok == holds
    assert result.stats.spills == 0


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_all_tunings_match_engine_spilling(seed):
    """A 2-row budget forces spill/merge; the witnesses, their order,
    the verdict and the residency cap must all hold."""
    schema, sigma, instance = _draw_case(seed)
    expected, holds = _oracles(schema, sigma, instance)
    result = stream_validate(
        schema, sigma, _sources(instance),
        budget=ResourceBudget(max_resident_rows=2))
    assert _witnesses(result) == expected
    assert result.ok == holds
    assert result.stats.peak_resident_rows <= 2


#: One stats case per retired tuning label.  The hot path no longer
#: takes a tuning, so the labels only keep the case ids stable; each
#: label now names its own drawn case and row budget for the one path,
#: chosen so that every case spills.
STATS_CASES = {
    "i0-dict-plain": (4242, 1),
    "i0-dict-value": (4244, 2),
    "i0-numpy-plain": (4245, 3),
    "i1-auto-value": (4246, 1),
    "i1-dict-plain": (4250, 2),
    "i1-numpy-plain": (4251, 3),
}


@pytest.mark.parametrize("case", sorted(STATS_CASES))
def test_stats_counters_are_consistent(case):
    """The stats a spilling run reports describe the run: spills leave
    spilled rows, runs and bytes behind, every emitted row went through
    the intern pool, residency stays within the budget, and the run's
    witnesses still equal the in-memory engine's."""
    seed, max_rows = STATS_CASES[case]
    schema, sigma, instance = _draw_case(seed)
    expected, holds = _oracles(schema, sigma, instance)
    result = stream_validate(
        schema, sigma, _sources(instance),
        budget=ResourceBudget(max_resident_rows=max_rows))
    assert _witnesses(result) == expected
    assert result.ok == holds
    stats = result.stats
    assert stats.spills >= 1
    assert stats.rows_spilled > 0
    assert stats.runs_written >= 1
    assert stats.bytes_spilled > 0
    assert stats.rows_emitted > 0
    assert stats.intern_hits + stats.intern_misses > 0
    assert stats.peak_resident_rows <= max_rows
