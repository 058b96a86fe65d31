"""Tests for the experimental chase-based implication test.

Contract under test: "not implied" verdicts carry a genuine
countermodel; "implied" verdicts agree with the closure engine on the
seeded random family except for documented over-approximations.
"""

import random

from repro.chase.nested_implication import chase_implies
from repro.generators import random_nfd, random_schema, random_sigma
from repro.generators import workloads
from repro.inference import ClosureEngine
from repro.nfd import NFD, parse_nfds, satisfies, satisfies_all
from repro.types import parse_schema


class TestChaseImplies:
    def test_positive_on_paper_example(self):
        schema = workloads.section_3_1_schema()
        sigma = workloads.section_3_1_sigma()
        verdict = chase_implies(schema, sigma, NFD.parse("R:A:[B -> E]"))
        assert verdict.implied
        assert not verdict.certified  # positives are heuristic

    def test_negative_is_certified_with_countermodel(self):
        schema = workloads.section_3_1_schema()
        sigma = workloads.section_3_1_sigma()
        verdict = chase_implies(schema, sigma, NFD.parse("R:A:[E -> B]"))
        assert not verdict.implied
        assert verdict.certified
        assert satisfies_all(verdict.instance, sigma)
        assert not satisfies(verdict.instance, NFD.parse("R:A:[E -> B]"))

    def test_course_inferences(self):
        schema = workloads.course_schema()
        sigma = workloads.course_sigma()
        positive = chase_implies(
            schema, sigma,
            NFD.parse("Course:[students:sid, time -> books]"))
        assert positive.implied
        negative = chase_implies(
            schema, sigma, NFD.parse("Course:[time -> cnum]"))
        assert not negative.implied and negative.certified

    def test_negatives_always_certified_randomized(self):
        """Every 'not implied' produced on a random family is a real
        countermodel, and never contradicts the engine."""
        rng = random.Random(2718)
        negatives = 0
        for _ in range(25):
            schema = random_schema(rng, max_fields=3, max_depth=2,
                                   set_probability=0.5)
            sigma = random_sigma(rng, schema, count=rng.randint(1, 3))
            engine = ClosureEngine(schema, sigma)
            for _ in range(3):
                candidate = random_nfd(rng, schema, max_lhs=2)
                verdict = chase_implies(schema, sigma, candidate)
                if verdict.implied:
                    continue
                negatives += 1
                assert satisfies_all(verdict.instance, sigma)
                assert not satisfies(verdict.instance, candidate)
                # a certified negative must agree with Theorem 3.1
                assert not engine.implies(candidate)
        assert negatives > 10

    def test_documented_over_approximation(self):
        """The known case where the global-replacement chase merges two
        A sets that a genuine model could keep distinct: the chase says
        implied, the (complete) engine says not.  This pins the
        one-sidedness down; if the chase is ever sharpened, this test
        should flip and be updated."""
        schema = parse_schema("R = {<A: {<B: {<C>}>}, D: {<E>}>}")
        sigma = parse_nfds("""
            R:[A:B:C -> A:B]
            R:[A, A:B -> D:E]
        """)
        candidate = NFD.parse("R:[A:B:C -> D]")
        engine = ClosureEngine(schema, sigma)
        assert not engine.implies(candidate)
        verdict = chase_implies(schema, sigma, candidate)
        assert verdict.implied          # the over-approximation
        assert not verdict.certified    # ... and it says so itself
