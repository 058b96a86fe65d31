"""Unit tests for BCNF decomposition, preservation, and nest plans."""

import random

import pytest

from repro.chase import lossless_join
from repro.design import (
    DependencyPlacement,
    NestPlan,
    bcnf_decompose,
    bcnf_violations,
    is_bcnf,
    is_superkey,
    preserves_dependencies,
    project_fds,
    unpreserved_fds,
)
from repro.errors import InferenceError
from repro.inference import FD
from repro.nfd import ValidatorEngine, parse_nfd
from repro.paths import parse_path
from repro.types import parse_schema
from repro.values import Instance


class TestBCNF:
    ATTRS = ["A", "B", "C"]

    def test_superkey(self):
        fds = [FD({"A"}, "B"), FD({"A"}, "C")]
        assert is_superkey(self.ATTRS, fds, {"A"})
        assert not is_superkey(self.ATTRS, fds, {"B"})

    def test_violations(self):
        fds = [FD({"A"}, "B"), FD({"B"}, "C")]
        violations = bcnf_violations(self.ATTRS, fds)
        assert FD({"B"}, "C") in violations
        assert FD({"A"}, "B") not in violations  # A is a key

    def test_is_bcnf(self):
        assert is_bcnf(self.ATTRS, [FD({"A"}, "B"), FD({"A"}, "C")])
        assert not is_bcnf(self.ATTRS, [FD({"B"}, "C")])

    def test_decompose_textbook(self):
        # R(A,B,C) with B -> C: split into BC and AB.
        fds = [FD({"A"}, "B"), FD({"B"}, "C")]
        components = bcnf_decompose(self.ATTRS, fds)
        as_sets = {frozenset(c) for c in components}
        assert as_sets == {frozenset({"A", "B"}), frozenset({"B", "C"})}

    def test_decomposition_is_lossless(self):
        fds = [FD({"A"}, "B"), FD({"B"}, "C")]
        components = bcnf_decompose(self.ATTRS, fds)
        assert lossless_join(self.ATTRS, components, fds)

    def test_decomposition_components_are_bcnf(self):
        attrs = ["A", "B", "C", "D"]
        fds = [FD({"A"}, "B"), FD({"B"}, "C"), FD({"C"}, "D")]
        components = bcnf_decompose(attrs, fds)
        for component in components:
            local = project_fds(attrs, fds, component)
            assert is_bcnf(component, local), component

    def test_already_bcnf_is_untouched(self):
        fds = [FD({"A"}, "B"), FD({"A"}, "C")]
        assert bcnf_decompose(self.ATTRS, fds) == [("A", "B", "C")]

    def test_randomized_lossless_and_bcnf(self):
        rng = random.Random(5)
        attrs = ["A", "B", "C", "D", "E"]
        for _ in range(20):
            fds = [
                FD(set(rng.sample(attrs, rng.randint(1, 2))),
                   rng.choice(attrs))
                for _ in range(rng.randint(1, 4))
            ]
            components = bcnf_decompose(attrs, fds)
            assert lossless_join(attrs, components, fds), (fds, components)
            for component in components:
                local = project_fds(attrs, fds, component)
                assert is_bcnf(component, local), (fds, component)


class TestProjection:
    def test_transitive_projection(self):
        attrs = ["A", "B", "C"]
        fds = [FD({"A"}, "B"), FD({"B"}, "C")]
        projected = project_fds(attrs, fds, ["A", "C"])
        assert any(fd.lhs == frozenset({"A"}) and fd.rhs == "C"
                   for fd in projected)


class TestPreservation:
    ATTRS = ["A", "B", "C"]

    def test_preserving_decomposition(self):
        fds = [FD({"A"}, "B"), FD({"B"}, "C")]
        assert preserves_dependencies(
            self.ATTRS, fds, [["A", "B"], ["B", "C"]])

    def test_classic_non_preserving(self):
        # R(A,B,C) with AB -> C and C -> B; BCNF split on C -> B loses
        # AB -> C.
        fds = [FD({"A", "B"}, "C"), FD({"C"}, "B")]
        decomposition = [["C", "B"], ["A", "C"]]
        lost = unpreserved_fds(self.ATTRS, fds, decomposition)
        assert FD({"A", "B"}, "C") in lost
        assert not preserves_dependencies(self.ATTRS, fds, decomposition)


class TestNestPlan:
    def test_attribute_paths(self):
        plan = NestPlan("Course", ["cnum", "time", "sid", "grade"])
        plan.nest("students", ["sid", "grade"])
        paths = plan.attribute_paths()
        assert paths["cnum"] == parse_path("cnum")
        assert paths["sid"] == parse_path("students:sid")

    def test_two_level_plan(self):
        plan = NestPlan("R", ["a", "b", "c"])
        plan.nest("inner", ["c"]).nest("outer", ["b", "inner"])
        paths = plan.attribute_paths()
        assert paths["c"] == parse_path("outer:inner:c")
        assert paths["b"] == parse_path("outer:b")
        assert paths["a"] == parse_path("a")

    def test_bad_step_rejected(self):
        plan = NestPlan("R", ["a", "b"])
        plan.nest("n", ["z"])
        with pytest.raises(InferenceError):
            plan.attribute_paths()

    def test_apply_instance(self):
        schema = parse_schema(
            "Course = {<cnum: string, time: int, sid: int, "
            "grade: string>}")
        flat = Instance(schema, {"Course": [
            {"cnum": "a", "time": 1, "sid": 1, "grade": "A"},
            {"cnum": "a", "time": 1, "sid": 2, "grade": "B"},
        ]})
        plan = NestPlan("Course", ["cnum", "time", "sid", "grade"])
        plan.nest("students", ["sid", "grade"])
        nested = plan.apply_instance(flat)
        assert len(nested.relation("Course")) == 1
        element = next(iter(nested.relation("Course")))
        assert len(element.get("students")) == 2

    def test_report_classification(self):
        schema = parse_schema(
            "Course = {<cnum: string, time: int, sid: int, "
            "grade: string>}")
        plan = NestPlan("Course", ["cnum", "time", "sid", "grade"])
        plan.nest("students", ["sid", "grade"])
        fds = [FD({"cnum"}, "time"),        # top-level
               FD({"sid"}, "grade"),        # intra-set
               FD({"cnum"}, "grade")]       # inter-set
        report = plan.report(schema.relation_type("Course"), fds)
        kinds = {str(p.fd): p.kind for p in report.placements}
        assert kinds["FD(cnum -> time)"] == DependencyPlacement.TOP
        assert kinds["FD(sid -> grade)"] == DependencyPlacement.INTRA
        assert kinds["FD(cnum -> grade)"] == DependencyPlacement.INTER
        intra = report.by_kind(DependencyPlacement.INTRA)[0]
        assert intra.local_base == parse_path("Course:students")
        assert intra.nfd == parse_nfd(
            "Course:[students:sid -> students:grade]")

    def test_structural_nfds(self):
        schema = parse_schema(
            "Course = {<cnum: string, time: int, sid: int, "
            "grade: string>}")
        plan = NestPlan("Course", ["cnum", "time", "sid", "grade"])
        plan.nest("students", ["sid", "grade"])
        report = plan.report(schema.relation_type("Course"), [])
        assert report.structural_nfds() == [
            parse_nfd("Course:[cnum, time -> students]")]

    def test_structural_nfds_hold_on_any_nest_output(self):
        import random
        schema = parse_schema("R = {<a, b, c>}")
        plan = NestPlan("R", ["a", "b", "c"]).nest("n", ["c"])
        report = plan.report(schema.relation_type("R"), [])
        rng = random.Random(3)
        for _ in range(10):
            rows = [{"a": rng.randrange(2), "b": rng.randrange(2),
                     "c": rng.randrange(2)} for _ in range(5)]
            flat = Instance(schema, {"R": rows})
            nested = plan.apply_instance(flat)
            assert ValidatorEngine(
                nested.schema, report.structural_nfds()).check(nested)

    def test_local_enforceability_reproduces_examples_2_3_and_2_4(self):
        """The paper's local grade (Ex. 2.3) vs global age (Ex. 2.4)
        distinction, derived automatically from the flat FDs."""
        schema = parse_schema(
            "Course = {<cnum: string, time: int, sid: int, age: int, "
            "grade: string>}")
        plan = NestPlan("Course", ["cnum", "time", "sid", "age",
                                   "grade"])
        plan.nest("students", ["sid", "age", "grade"])
        fds = [FD({"cnum"}, "time"),
               FD({"sid"}, "age"),
               FD({"cnum", "sid"}, "grade")]
        report = plan.report(schema.relation_type("Course"), fds)
        by_fd = {str(p.fd): p for p in report.placements}
        grade = by_fd["FD(cnum, sid -> grade)"]
        age = by_fd["FD(sid -> age)"]
        # grade checks per course — the paper's Example 2.3 local NFD
        assert report.locally_enforceable(grade)
        assert report.local_form(grade) == parse_nfd(
            "Course:students:[sid -> grade]")
        # age needs the global Example 2.4 NFD
        assert not report.locally_enforceable(age)
        assert report.local_form(age) == parse_nfd(
            "Course:students:[sid -> age]")

    def test_multi_step_structural_paths(self):
        schema = parse_schema("R = {<a, b, c>}")
        plan = NestPlan("R", ["a", "b", "c"])
        plan.nest("inner", ["c"]).nest("outer", ["b", "inner"])
        report = plan.report(schema.relation_type("R"), [])
        structural = {str(nfd) for nfd in report.structural_nfds()}
        # step 1 grouped by {a, b}; b is now nested under outer
        assert "R:[a, outer:b -> outer:inner]" in structural
        # step 2 grouped by {a}
        assert "R:[a -> outer]" in structural

    def test_carried_nfds_hold_on_nested_data(self):
        schema = parse_schema(
            "Course = {<cnum: string, time: int, sid: int, "
            "grade: string>}")
        flat = Instance(schema, {"Course": [
            {"cnum": "a", "time": 1, "sid": 1, "grade": "A"},
            {"cnum": "b", "time": 2, "sid": 1, "grade": "A"},
        ]})
        plan = NestPlan("Course", ["cnum", "time", "sid", "grade"])
        plan.nest("students", ["sid", "grade"])
        fds = [FD({"cnum"}, "time"), FD({"sid"}, "grade")]
        nested = plan.apply_instance(flat)
        report = plan.report(schema.relation_type("Course"), fds)
        assert ValidatorEngine(nested.schema, report.nfds()).check(nested)
