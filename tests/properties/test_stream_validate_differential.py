"""Differential property tests: streaming vs the in-memory engine.

:func:`repro.nfd.stream_validate` must report **exactly** the
violations — same witnesses, same order — as
:meth:`repro.nfd.ValidatorEngine.validate` on the materialized
instance, whether the group tables stay resident or spill to disk.

The two seeded hypothesis tests run 100 examples each under the
default profile (the nightly profile raises them to 1000 each — they
deliberately do not pin ``max_examples``), and the explicit seed loops
cover the stats a run reports, respelled JSONL against Definition 2.4,
and the compiled binder against the value binder.
"""

import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import (
    random_instance,
    random_schema,
    random_sigma,
    workloads,
)
from repro.io.stream import (
    dump_jsonl,
    iter_jsonl_elements,
    iter_set_elements,
)
from repro.nfd import (
    ResourceBudget,
    ValidatorEngine,
    parse_nfds,
    stream_validate,
)
from repro.nfd.batch_validate import _Run
from repro.nfd.satisfy import satisfies
from repro.nfd.stream_validate import StreamValidator
from repro.values import value_of_json
from repro.values.build import to_python
from repro.values.canonical import (
    canonical_bytes,
    canonical_json_bytes,
    canonical_key_bytes,
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


def _respelled(data, rng):
    """*data* spelled another way: record fields shuffled, and arrays
    shuffled with repeats of their elements added (itself respelled)."""
    if type(data) is dict:
        fields = [(label, _respelled(sub, rng)) for label, sub in data.items()]
        rng.shuffle(fields)
        return dict(fields)
    if type(data) is list:
        items = [_respelled(item, rng) for item in data]
        if data:
            items += [_respelled(rng.choice(data), rng)
                      for _ in range(rng.randint(0, 2))]
        rng.shuffle(items)
        return items
    return data


def test_respelled_jsonl_matches_definition_2_4():
    """Each line spells its element another way, and the lines are
    shuffled with some duplicated (a relation is a set): the verdict per
    NFD of the JSONL stream — resident and spilling at one row — is
    Definition 2.4's on the instance."""
    checked = 0
    for seed in range(300):
        rng, schema, sigma, instance = _draw_case(seed * 7331,
                                                  empty_probability=0.2)
        if not sigma:
            continue
        relation = sigma[0].relation
        rows = [_respelled(to_python(element), rng)
                for element in instance.relation(relation)]
        rows += [_respelled(rng.choice(rows), rng)
                 for _ in range(rng.randint(0, 2))]
        rng.shuffle(rows)
        expected = {str(nfd): satisfies(instance, nfd) for nfd in sigma}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "relation.jsonl"
            dump_jsonl(path, rows)
            for budget in (None, ResourceBudget(max_resident_rows=1)):
                result = stream_validate(schema, sigma, {
                    relation: iter_jsonl_elements(path, schema, relation)},
                    budget=budget)
                violated = {str(v.nfd) for v in result.violations}
                assert {str(nfd): str(nfd) not in violated
                        for nfd in sigma} == expected, seed
        checked += 1
    assert checked >= 200


#: Course NFDs whose bindings are products of two set-valued branches.
PRODUCT_SIGMA = ["Course:[books:isbn, students:sid -> time]",
                 "Course:[books:title -> students:grade]",
                 "Course:[cnum, students:age -> books:isbn]",
                 "Course:students:[sid -> grade]"]


def test_compiled_binder_matches_value_binder():
    """Per element, as set order spells it and respelled, the compiled
    binder agrees with the value binder (``_element_rows`` +
    ``_plan_bindings_list``): each root plan's set of ``(key bytes, RHS
    bytes)`` — or a skip on the same undefined paths — whenever it binds
    the element itself, and each nested check's clean-or-conflict
    verdict and base-set counts are ``_walk_scope``'s.  The schemas nest
    sets three deep, and Σ has plans reading several set-valued
    branches at once."""
    compared = multi = product = nested = 0
    for seed in range(300):
        rng = random.Random(seed)
        if seed % 4:
            schema = random_schema(rng, relations=1, max_fields=3,
                                   max_depth=3, set_probability=0.6)
            sigma = random_sigma(rng, schema, count=rng.randint(2, 4))
        else:
            schema = workloads.course_schema()
            sigma = parse_nfds("\n".join(PRODUCT_SIGMA))
        instance = random_instance(rng, schema, tuples=3, domain=2,
                                   max_set_size=3, empty_probability=0.2)
        if not sigma:
            continue
        validator = StreamValidator(schema, sigma)
        engine = validator.engine
        mask = frozenset(validator._plan_anchor_base)
        for relation, root in engine._relations.items():
            bind, counted = validator._binders[relation]
            for element in instance.relation(relation):
                for data in (to_python(element),
                             _respelled(to_python(element), rng)):
                    roots, counts = bind(data)
                    run = _Run(len(engine.sigma), first_only=False,
                               mask=mask)
                    engine._walk_scope(root, (value_of_json(data),), run)
                    assert (counts is None) == bool(run.violations), seed
                    if counts is not None and counted:
                        assert {slot: count for slot, count
                                in zip(counted, counts) if count} == \
                            run.base_counter, seed
                        nested += 1
                    if root.anchor is None or roots is None:
                        continue
                    undefined: set = set()
                    rows = engine._element_rows(root.anchor, element,
                                                undefined)
                    for plan, bindings in zip(root.anchor.plans, roots):
                        skipped = not undefined.isdisjoint(plan.paths)
                        assert (bindings == ()) == skipped, seed
                        if skipped:
                            continue
                        assert {(key_bytes, rhs_bytes) for key_bytes,
                                rhs_bytes, _, _ in bindings} == {
                            (canonical_key_bytes(key), canonical_bytes(rhs))
                            for key, rhs in engine._plan_bindings_list(
                                plan, rows)}, seed
                        assert all(canonical_json_bytes(rhs) == rhs_bytes
                                   for _, rhs_bytes, _, rhs in bindings)
                        compared += 1
                        multi += len(plan.branch_proj) > 1
                        product += len({path.first for path in plan.paths
                                        if len(path) > 1}) > 1
    assert compared >= 500 and multi >= 300 and product >= 100 \
        and nested >= 100, (compared, multi, product, nested)
