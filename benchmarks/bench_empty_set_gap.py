"""E13 (ours) — how conservative is the Section 3.2 gated system?

The paper proves no completeness for the empty-set rules; this
experiment quantifies the gap.  Over a seeded family of random schemas,
constraint sets, and partial NON-NULL specs, every candidate falls into
one of four buckets:

* ``both``        — implied with and without the gates;
* ``neither``     — implied by neither engine;
* ``gap-real``    — ungated-only, and a spec-admitted instance *with*
                    empty sets separates it: the gate was necessary;
* ``gap-unknown`` — ungated-only, and the bounded search found no
                    separator: either the gated system is incomplete
                    here or the countermodel needs to be larger.

Expected shape: a substantial fraction of the gap is ``gap-real`` —
the gates earn their keep — while ``gap-unknown`` bounds the system's
possible incompleteness on this family.
"""

import random

from repro.generators import random_instance, random_nfd, random_schema, \
    random_sigma
from repro.inference import ClosureEngine, NonEmptySpec
from repro.nfd import ValidatorEngine
from repro.paths import Path, set_paths

SEED = 16_180
TRIALS = 25
CANDIDATES_PER_TRIAL = 6
SEARCH_BUDGET = 250


def _sweep():
    rng = random.Random(SEED)
    buckets = {"both": 0, "neither": 0, "gap-real": 0, "gap-unknown": 0}
    for _ in range(TRIALS):
        schema = random_schema(rng, relations=1, max_fields=3,
                               max_depth=2, set_probability=0.6)
        relation = schema.relation_names[0]
        sigma = random_sigma(rng, schema, count=rng.randint(1, 3))
        declared = {Path((relation,))}
        for p in set_paths(schema, relation):
            if rng.random() < 0.4:
                declared.add(Path((relation,)).concat(p))
        spec = NonEmptySpec(declared)
        gated = ClosureEngine(schema, sigma, nonempty=spec)
        ungated = ClosureEngine(schema, sigma)
        sigma_engine = ValidatorEngine(schema, sigma)
        for _ in range(CANDIDATES_PER_TRIAL):
            candidate = random_nfd(rng, schema, max_lhs=2)
            gated_verdict = gated.implies(candidate)
            ungated_verdict = ungated.implies(candidate)
            if gated_verdict:
                buckets["both"] += 1
                continue
            if not ungated_verdict:
                buckets["neither"] += 1
                continue
            separated = False
            candidate_engine = ValidatorEngine(schema, [candidate])
            for _ in range(SEARCH_BUDGET):
                instance = random_instance(rng, schema, tuples=2,
                                           domain=2,
                                           empty_probability=0.4)
                if not spec.admits(instance):
                    continue
                if not sigma_engine.check(instance):
                    continue
                if not candidate_engine.check(instance):
                    separated = True
                    break
            buckets["gap-real" if separated else "gap-unknown"] += 1
    return buckets


def test_empty_set_gap(benchmark, report):
    buckets = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    total_gap = buckets["gap-real"] + buckets["gap-unknown"]
    report(
        "Section 3.2 conservativeness",
        "\n".join([
            f"implied by both engines:        {buckets['both']}",
            f"implied by neither:             {buckets['neither']}",
            f"gate necessary (separator found): {buckets['gap-real']}",
            f"gate possibly conservative:     {buckets['gap-unknown']}",
            f"(gap total {total_gap}; the paper proves soundness only "
            "for the gated rules — completeness is open)",
        ]),
    )
    # The sweep must exercise the gap, and the gates must be shown
    # necessary at least once (sanity of the whole construction).
    assert total_gap > 0
    assert buckets["gap-real"] > 0
    assert buckets["both"] > 0
