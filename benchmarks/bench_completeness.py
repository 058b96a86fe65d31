"""E11 — Theorem 3.1, completeness half, as a measured sweep.

For every engine-rejected candidate over a seeded family, the
Appendix-A construction must produce an instance that satisfies Sigma
and violates the candidate (Lemma A.1).  The bench reports the sweep
size and asserts the construction separated every single time.
"""

import random

from repro.generators import random_nfd, random_schema, random_sigma
from repro.inference import ClosureEngine, build_countermodel
from repro.nfd import ValidatorEngine
from repro.values import has_empty_sets

SEED = 27_182
TRIALS = 12
CANDIDATES_PER_TRIAL = 5


def _sweep():
    rng = random.Random(SEED)
    rejected = 0
    separated = 0
    holes = 0
    for _ in range(TRIALS):
        schema = random_schema(rng, relations=1, max_fields=3,
                               max_depth=2, set_probability=0.5)
        sigma = random_sigma(rng, schema, count=rng.randint(1, 3))
        engine = ClosureEngine(schema, sigma)
        sigma_engine = ValidatorEngine(schema, sigma)
        for _ in range(CANDIDATES_PER_TRIAL):
            candidate = random_nfd(rng, schema, max_lhs=2)
            if engine.implies(candidate):
                continue
            rejected += 1
            witness = build_countermodel(engine, candidate.base,
                                         candidate.lhs)
            if has_empty_sets(witness):
                holes += 1
            if sigma_engine.check(witness) and not ValidatorEngine(
                    schema, [candidate]).check(witness):
                separated += 1
    return rejected, separated, holes


def test_completeness_sweep(benchmark, report):
    rejected, separated, holes = benchmark(_sweep)
    report(
        "completeness sweep (Theorem 3.1 / Lemma A.1)",
        f"rejected candidates: {rejected}\n"
        f"witnesses that separate: {separated} (paper: all)\n"
        f"witnesses with empty sets: {holes} (paper: 0)",
    )
    assert rejected > 0
    assert separated == rejected
    assert holes == 0
