"""Unit tests for the Appendix-A counterexample construction."""

import pytest

from repro.errors import InferenceError
from repro.generators import workloads
from repro.inference import (
    ClosureEngine,
    build_countermodel,
    find_countermodel,
)
from repro.nfd import NFD, parse_nfd, satisfies, satisfies_all
from repro.paths import parse_path, relation_paths
from repro.types import parse_schema
from repro.values import check_instance, has_empty_sets, iter_base_sets


@pytest.fixture
def a1_engine():
    return ClosureEngine(workloads.example_a1_schema(),
                         workloads.example_a1_sigma())


@pytest.fixture
def a2_engine():
    return ClosureEngine(workloads.example_a2_schema(),
                         workloads.example_a2_sigma())


class TestExampleA1:
    def test_instance_is_well_typed_and_full(self, a1_engine):
        instance = build_countermodel(a1_engine, parse_path("R"),
                                      {parse_path("B")})
        check_instance(instance)
        assert not has_empty_sets(instance)

    def test_two_tuples_at_the_base(self, a1_engine):
        instance = build_countermodel(a1_engine, parse_path("R"),
                                      {parse_path("B")})
        assert len(instance.relation("R")) == 2

    def test_satisfies_sigma(self, a1_engine):
        instance = build_countermodel(a1_engine, parse_path("R"),
                                      {parse_path("B")})
        assert satisfies_all(instance, a1_engine.sigma)

    def test_separates_exactly_the_closure(self, a1_engine):
        instance = build_countermodel(a1_engine, parse_path("R"),
                                      {parse_path("B")})
        closed = a1_engine.closure(parse_path("R"), {parse_path("B")})
        for q in relation_paths(a1_engine.schema, "R"):
            nfd = NFD(parse_path("R"), {parse_path("B")}, q)
            assert satisfies(instance, nfd) == (q in closed), q

    def test_paper_shapes(self, a1_engine):
        """Structural facts visible in the paper's table."""
        instance = build_countermodel(a1_engine, parse_path("R"),
                                      {parse_path("B")})
        rows = list(instance.relation("R"))
        # B is in the closure with all attributes inside: a shared
        # singleton set in both rows.
        assert rows[0].get("B") == rows[1].get("B")
        assert rows[0].get("B").is_singleton
        # H is in the closure: same two-row set in both tuples (J shared,
        # L fresh within).
        assert rows[0].get("H") == rows[1].get("H")
        assert len(rows[0].get("H")) == 2
        # A is not determined: the two tuples differ on it.
        assert rows[0].get("A") != rows[1].get("A")
        # D is determined: equal in both.
        assert rows[0].get("D") == rows[1].get("D")


class TestExampleA2:
    def test_deep_base_construction(self, a2_engine):
        instance = build_countermodel(a2_engine, parse_path("R"),
                                      {parse_path("A:B:C")})
        check_instance(instance)
        assert satisfies_all(instance, a2_engine.sigma)
        closed = a2_engine.closure(parse_path("R"), {parse_path("A:B:C")})
        for q in relation_paths(a2_engine.schema, "R"):
            nfd = NFD(parse_path("R"), {parse_path("A:B:C")}, q)
            assert satisfies(instance, nfd) == (q in closed), q


class TestNestedBase:
    def test_local_query_builds_singleton_chain(self):
        engine = ClosureEngine(workloads.section_3_1_schema(),
                               workloads.section_3_1_sigma())
        base = parse_path("R:A")
        instance = build_countermodel(engine, base, {parse_path("E")})
        check_instance(instance)
        # chain down to the base: R has one tuple, its A has two elements
        assert len(instance.relation("R")) == 1
        base_sets = list(iter_base_sets(instance, base))
        assert len(base_sets) == 1
        assert len(base_sets[0]) == 2
        # and it separates: E does not determine B
        assert satisfies_all(instance, engine.sigma)
        assert not satisfies(instance, parse_nfd("R:A:[E -> B]"))


class TestFindCountermodel:
    def test_none_for_implied(self, course_engine):
        assert find_countermodel(
            course_engine, parse_nfd("Course:[cnum -> time]")) is None

    def test_witness_for_non_implied(self, course_engine):
        nfd = parse_nfd("Course:[time -> cnum]")
        witness = find_countermodel(course_engine, nfd)
        assert witness is not None
        assert satisfies_all(witness, course_engine.sigma)
        assert not satisfies(witness, nfd)


class TestBoolRejection:
    def test_finite_domain_rejected(self):
        schema = parse_schema("R = {<A: bool, B: bool>}")
        engine = ClosureEngine(schema, [])
        with pytest.raises(InferenceError):
            build_countermodel(engine, parse_path("R"), {parse_path("A")})
