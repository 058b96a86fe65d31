"""Unit and randomized tests for proof compilation.

The compiler's contract: for every implied NFD it emits a Derivation —
machine-checked step by step by the rule objects — whose conclusion is
exactly the queried NFD.  Randomized sweeps enforce the contract across
schemas, constraint sets, and base-path shapes.
"""

import random

import pytest

from repro.errors import InferenceError
from repro.generators import random_nfd, random_schema, random_sigma
from repro.generators import workloads
from repro.inference import ClosureEngine, compile_proof
from repro.nfd import NFD, parse_nfds
from repro.types import parse_schema


class TestCompile:
    def test_section_3_1(self, section_3_1_engine):
        target = NFD.parse("R:A:[B -> E]")
        proof = compile_proof(section_3_1_engine, target)
        assert proof.conclusion() == target
        rules_used = {step.rule for step in proof.steps}
        # the compiled proof exercises the same rule families as the
        # paper's hand proof
        assert "singleton" in rules_used
        assert "transitivity" in rules_used
        assert "prefix" in rules_used
        assert "pull-out" in rules_used

    def test_flat_chain(self):
        schema = parse_schema("R = {<A, B, C>}")
        engine = ClosureEngine(schema, parse_nfds("R:[A -> B]\nR:[B -> C]"))
        proof = compile_proof(engine, NFD.parse("R:[A -> C]"))
        assert proof.conclusion() == NFD.parse("R:[A -> C]")

    def test_prefix_chains_through_a_shorter_member(self):
        # B:C:D and B:C:E shorten through B:C, which is itself an LHS
        # member shortening to B: the chains must not consume B:C
        # before its own chain runs
        schema = parse_schema("R = {<A, B: {<C: {<D, E, F>}>}>}")
        engine = ClosureEngine(schema, parse_nfds(
            "R:[B:C, B:C:D, B:C:E -> A]\nR:[B:C:F -> B:C]"))
        target = NFD.parse("R:[B -> A]")
        proof = compile_proof(engine, target)
        assert proof.conclusion() == target
        assert "prefix" in {step.rule for step in proof.steps}

    def test_trivial(self, course_engine):
        target = NFD.parse("Course:[cnum -> cnum]")
        proof = compile_proof(course_engine, target)
        assert proof.conclusion() == target
        assert proof.steps[-1].rule in ("reflexivity",)

    def test_trivial_nested_base(self, course_engine):
        target = NFD.parse("Course:students:[sid -> sid]")
        proof = compile_proof(course_engine, target)
        assert proof.conclusion() == target

    def test_intro_inference(self, course_engine):
        target = NFD.parse("Course:[students:sid, time -> books]")
        proof = compile_proof(course_engine, target)
        assert proof.conclusion() == target
        # cites the scheduling constraint
        cited = {p for step in proof.steps for p in step.premise_labels}
        assert any(label.startswith("s") for label in cited)

    def test_degenerate_conclusion(self):
        schema = parse_schema("R = {<A: {<F, G>}, D>}")
        sigma = parse_nfds("R:A:[∅ -> F]")
        engine = ClosureEngine(schema, sigma)
        target = NFD.parse("R:A:[G -> F]")  # augmentation of s1
        proof = compile_proof(engine, target)
        assert proof.conclusion() == target

    def test_not_implied_raises(self, section_3_1_engine):
        with pytest.raises(InferenceError):
            compile_proof(section_3_1_engine, NFD.parse("R:A:[E -> B]"))


class TestRandomizedContract:
    def test_every_implied_nfd_compiles(self):
        rng = random.Random(404)
        compiled = 0
        for _ in range(30):
            schema = random_schema(rng, max_fields=3, max_depth=2,
                                   set_probability=0.5)
            sigma = random_sigma(rng, schema, count=rng.randint(1, 4))
            engine = ClosureEngine(schema, sigma)
            for _ in range(5):
                candidate = random_nfd(rng, schema, max_lhs=2,
                                       local_probability=0.4)
                if not engine.implies(candidate):
                    continue
                proof = compile_proof(engine, candidate)
                assert proof.conclusion() == candidate, candidate
                compiled += 1
        assert compiled > 20

    def test_appendix_a_examples_compile(self):
        for schema, sigma, lhs_texts in [
            (workloads.example_a1_schema(), workloads.example_a1_sigma(),
             ["B"]),
            (workloads.example_a2_schema(), workloads.example_a2_sigma(),
             ["A:B:C"]),
        ]:
            from repro.paths import parse_path
            engine = ClosureEngine(schema, sigma)
            lhs = {parse_path(t) for t in lhs_texts}
            for q in engine.closure(parse_path("R"), lhs):
                target = NFD(parse_path("R"), lhs, q)
                proof = compile_proof(engine, target)
                assert proof.conclusion() == target
