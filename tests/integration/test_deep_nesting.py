"""Integration tests at depth: 3-4 level schemas end to end."""

import random

from repro.generators import random_instance, workloads
from repro.inference import (
    BruteForceProver,
    ClosureEngine,
    build_countermodel,
    compile_proof,
)
from repro.nfd import NFD, ValidatorEngine, holds_fol, parse_nfd, satisfies
from repro.paths import parse_path, relation_paths
from repro.values import check_instance


class TestDeepSchema:
    def setup_method(self):
        self.schema = workloads.trial_schema()
        self.sigma = workloads.trial_sigma()
        self.instance = workloads.trial_instance()

    def test_instance_satisfies_sigma(self):
        check_instance(self.instance)
        assert ValidatorEngine(self.schema, self.sigma).check(self.instance)
        for nfd in self.sigma:
            assert satisfies(self.instance, nfd)
            assert holds_fol(self.instance, nfd)

    def test_local_vs_global_at_depth(self):
        # sample 100 has different values in different cohorts: the
        # depth-3 local NFD tolerates it, the global one does not.
        local = parse_nfd(
            "Trial:sites:cohorts:samples:[sample_id -> value]")
        global_form = parse_nfd(
            "Trial:[sites:cohorts:samples:sample_id -> "
            "sites:cohorts:samples:value]")
        assert ValidatorEngine(self.schema, [local]).check(self.instance)
        assert not ValidatorEngine(self.schema,
                                   [global_form]).check(self.instance)

    def test_deep_implication(self):
        engine = ClosureEngine(self.schema, self.sigma)
        # a site name pins the whole trial tuple, hence its sites set
        assert engine.implies(parse_nfd("Trial:[sites:site -> sites]"))
        # ... but not any particular sample value
        assert not engine.implies(parse_nfd(
            "Trial:[sites:site -> sites:cohorts:samples:value]"))

    def test_deep_base_closure(self):
        engine = ClosureEngine(self.schema, self.sigma)
        base = parse_path("Trial:sites:cohorts:samples")
        closed = engine.closure(base, {parse_path("sample_id")})
        assert parse_path("value") in closed
        assert parse_path("assay") in closed  # via the global NFD

    def test_deep_countermodel(self):
        engine = ClosureEngine(self.schema, self.sigma)
        candidate = parse_nfd(
            "Trial:sites:cohorts:[cohort -> samples]")
        assert not engine.implies(candidate)
        witness = build_countermodel(engine, candidate.base,
                                     candidate.lhs)
        check_instance(witness)
        assert ValidatorEngine(witness.schema, self.sigma).check(witness)
        assert not ValidatorEngine(witness.schema, [candidate]).check(witness)

    def test_deep_proof_certificate(self):
        engine = ClosureEngine(self.schema, self.sigma)
        target = parse_nfd(
            "Trial:sites:cohorts:samples:[sample_id -> value]")
        proof = compile_proof(engine, target)
        assert proof.conclusion() == target

    def test_brute_force_agrees_on_deep_base(self):
        prover = BruteForceProver(self.schema, self.sigma, max_paths=9)
        engine = ClosureEngine(self.schema, self.sigma)
        for base_text, lhs_texts in [
            ("Trial", ["trial_id"]),
            ("Trial", ["sites:site"]),
            ("Trial:sites:cohorts:samples", ["sample_id"]),
        ]:
            base = parse_path(base_text)
            lhs = [parse_path(t) for t in lhs_texts]
            assert prover.closure(base, lhs) == \
                engine.closure(base, lhs), base

    def test_random_instances_respect_soundness(self):
        rng = random.Random(42)
        engine = ClosureEngine(self.schema, self.sigma)
        implied = [
            q for q in relation_paths(self.schema, "Trial")
            if q in engine.closure(parse_path("Trial"),
                                   {parse_path("trial_id")})
        ]
        checked = 0
        for _ in range(200):
            instance = random_instance(rng, self.schema, tuples=2,
                                       domain=2)
            if not ValidatorEngine(self.schema, self.sigma).check(instance):
                continue
            checked += 1
            for q in implied:
                nfd = NFD(parse_path("Trial"),
                          {parse_path("trial_id")}, q)
                assert ValidatorEngine(self.schema, [nfd]).check(instance)
            if checked >= 10:
                break
        assert checked > 0
