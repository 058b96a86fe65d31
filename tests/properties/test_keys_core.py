"""Differential tests for the key sweep's core step on wide relations.

Once a size-level of :func:`~repro.analysis.minimal_keys` would ask
more candidate closures than the relation has attributes, the sweep
asks the drop-one probes ``U - {A}`` and keeps only candidates holding
the *core*, the attributes whose probe fails.  :mod:`.test_closure_dense`
draws at most three fields, too few to reach that step, so this file
draws 6–9 attributes (some set-valued), at the relation and at a
nested base, in the plain and the gated modes, and compares the keys
with a brute-force search over every attribute subset, each decided by
the naive :meth:`ClosureEngine.reference_closure`.  It also pins the
sweep's kernel work on the offline-sweep key bundle and on Course.
"""

import json
import random
from itertools import combinations

import pytest

from repro.analysis import local_minimal_keys, minimal_keys
from repro.generators import random_sigma, workloads
from repro.generators.schemas import LabelSupply, random_record
from repro.inference import ClosureEngine, ImplicationSession
from repro.io.json_io import load_bundle_sigma
from repro.obs import Tracer
from repro.paths import Path
from repro.types import INT, RecordType, Schema, SetType

from ..test_offline_outputs import _wide_key_bundle
from .test_closure_dense import _partial_spec

SEEDS_PER_MODE = 40
NESTED_SEEDS_PER_MODE = 8


def _draw(seed: int, nested: bool):
    """A 6–9-field record, some fields set-valued, and a Σ over it.
    The record is the relation's element, or (*nested*) the element of
    a set-valued attribute ``s`` beside one atom; returns the base whose
    keys are asked and the paths a key must determine."""
    rng = random.Random(f"keys-core:{nested}:{seed}")
    labels = LabelSupply()
    fields = []
    for _ in range(rng.randint(6, 9)):
        label = labels.next()
        if rng.random() < 0.3:
            fields.append((label, SetType(random_record(
                rng, labels, max_fields=2, max_depth=0))))
        else:
            fields.append((label, INT))
    record = RecordType(fields)
    base = Path(("R",))
    if nested:
        record = RecordType([("top", INT), ("s", SetType(record))])
        base = Path(("R", "s"))
    schema = Schema({"R": SetType(record)})
    sigma = random_sigma(rng, schema, count=rng.randint(2, 8), max_lhs=3)
    attributes = [Path((label,)) for label, _ in fields]
    return rng, schema, sigma, base, attributes


def _brute_force_keys(schema, sigma, spec, base, attributes):
    """The minimal attribute sets whose reference closure at *base*
    holds every attribute: every subset is closed, smallest first,
    except the proper supersets of a key already found (never
    minimal)."""
    keys = []
    for size in range(1, len(attributes) + 1):
        for subset in map(frozenset, combinations(attributes, size)):
            if any(key < subset for key in keys):
                continue
            # a fresh engine per subset: the reference rescans every
            # query it holds on each round
            engine = ClosureEngine(schema, sigma, nonempty=spec)
            if set(attributes) <= engine.reference_closure(base, subset):
                keys.append(subset)
    return sorted(keys, key=lambda key: (len(key), sorted(map(str, key))))


def _probed(seed: int, gated: bool, nested: bool = False) -> bool:
    """Sweep one drawn case, compare it with the brute force, and say
    whether the sweep ran its drop-one probes."""
    rng, schema, sigma, base, attributes = _draw(seed, nested)
    spec = _partial_spec(rng, schema, "R") if gated else None
    tracer = Tracer()
    session = ImplicationSession(schema, sigma, spec, tracer=tracer)
    if nested:
        keys = local_minimal_keys(schema, sigma, base, engine=session)
    else:
        keys = minimal_keys(schema, sigma, "R", engine=session)
    assert keys == _brute_force_keys(schema, sigma, spec, base,
                                     attributes), (sigma, spec)
    [span] = tracer.spans("analysis.keys")
    return span.counters.get("probes", 0) > 0


@pytest.mark.parametrize("gated", [False, True], ids=["plain", "gated"])
def test_keys_match_brute_force_on_wide_relations(gated):
    probed = [_probed(seed, gated) for seed in range(SEEDS_PER_MODE)]
    # the cases must reach the core step, not stop below it
    assert sum(probed) >= SEEDS_PER_MODE // 2, sum(probed)


@pytest.mark.parametrize("gated", [False, True], ids=["plain", "gated"])
def test_local_keys_match_brute_force_at_a_nested_base(gated):
    """The same at ``R:s``, where ``covers_batch`` answers through the
    closure's pull-out, gated by the non-empty spec."""
    probed = [_probed(seed, gated, nested=True)
              for seed in range(NESTED_SEEDS_PER_MODE)]
    assert sum(probed) >= NESTED_SEEDS_PER_MODE // 2, sum(probed)


def test_wide_bundle_sweep_work_is_pinned():
    """The 11+1-attribute bundle: twelve probes find the five-attribute
    core, which is the one key; the engine keeps 25 queries."""
    schema, sigma = load_bundle_sigma(json.dumps(_wide_key_bundle()))
    session = ImplicationSession(schema, sigma)
    keys = minimal_keys(schema, sigma, "R", engine=session)
    assert [sorted(map(str, key)) for key in keys] == \
        [["a0", "a10", "a2", "a7", "a9"]]
    stats = session.engine.stats
    assert (stats.saturations, stats.attempts, stats.mask_tests) == \
        (24, 170, 195)
    assert sum(stats.queries.values()) == 25


def test_course_sweep_never_probes():
    """Course has four attributes, and once ``{cnum}`` prunes its
    supersets no level asks for more than four candidates, so the sweep
    does the same work as without the core step."""
    tracer = Tracer()
    schema = workloads.course_schema()
    session = ImplicationSession(schema, workloads.course_sigma(),
                                 tracer=tracer)
    minimal_keys(schema, workloads.course_sigma(), "Course",
                 engine=session)
    stats = session.engine.stats
    assert (stats.saturations, stats.attempts, stats.mask_tests) == \
        (5, 69, 76)
    [span] = tracer.spans("analysis.keys")
    assert "probes" not in span.counters
