"""Unit tests for the nested normalization pipeline.

Covers the synthesis stages of :mod:`repro.design.synthesize` — the
flatten/rewrite front end, candidate generation, scoring, the
preservation verdict, round-trip validation — plus the ``repro
normalize`` CLI surface and the ``analyze`` regression for the retired
``--strategy`` flag.
"""

import json

import pytest

from repro.analysis.carryover import nfd_through_unnest, sigma_through_unnest
from repro.cli import main
from repro.design import (
    DesignReport,
    candidate_plans,
    synthesize_design,
    sweep_normalize,
)
from repro.design.bcnf import project_fds
from repro.errors import InferenceError
from repro.inference import FD, NonEmptySpec
from repro.io import dump_bundle
from repro.generators import workloads
from repro.nfd import ValidatorEngine, parse_nfd
from repro.types import SetType, parse_schema
from repro.values import Instance
from repro.values.restructure import flatten_type, flatten_value

from .properties.test_design_synthesize import (
    _brute_force_preserved,
    _reference_cover,
)


ENROLL = "Enroll = {<cnum: string, time: int, sid: int, grade: string>}"


def _enroll():
    schema = parse_schema(ENROLL)
    sigma = [parse_nfd("Enroll:[cnum -> time]"),
             parse_nfd("Enroll:[cnum, sid -> grade]")]
    return schema, sigma


class TestSynthesizeEnroll:
    """The paper's running example: the flat course/enrollment feed."""

    def test_nests_the_partial_dependency(self):
        schema, sigma = _enroll()
        report = synthesize_design(schema, sigma)
        assert report.steps == 1
        [(label, nested)] = report.plan.steps
        assert set(nested) == {"sid", "grade"}

    def test_redundancy_removed(self):
        schema, sigma = _enroll()
        report = synthesize_design(schema, sigma)
        assert report.violations_flat == 1
        assert report.violations == 0

    def test_preserved_beyond_flat_projections(self):
        # the inter-set dependency cnum, sid -> grade is preserved by
        # the local form + structural NFDs, but its flat projections
        # lose it — Section 4's point, and why both verdicts exist
        schema, sigma = _enroll()
        report = synthesize_design(schema, sigma)
        assert report.preserved
        assert not report.projection_preserved

    def test_modes_agree(self):
        # the session-backed cover equals the drop-one cover computed
        # by the naive reference saturation, and the design built on it
        # nests the partial dependency and preserves Sigma
        schema, sigma = _enroll()
        report = synthesize_design(schema, sigma)
        assert report.cover == _reference_cover(schema, sigma)
        assert report.steps == 1
        assert report.preserved

    def test_strategies_agree(self):
        # the preservation verdict equals its re-derivation by the
        # naive reference saturation
        schema, sigma = _enroll()
        report = synthesize_design(schema, sigma)
        assert report.preserved == _brute_force_preserved(report)

    def test_gated_semantics(self):
        schema, sigma = _enroll()
        report = synthesize_design(
            schema, sigma, nonempty=NonEmptySpec.all_nonempty())
        assert report.steps == 1
        assert report.preserved

    def test_metrics_are_numbers(self):
        schema, sigma = _enroll()
        metrics = synthesize_design(schema, sigma).as_metrics()
        assert all(isinstance(value, (int, float))
                   for value in metrics.values())
        assert metrics["steps"] == 1
        assert metrics["preserved"] == 1
        assert metrics["rule_applications"] > 0

    def test_to_text_mentions_the_plan(self):
        schema, sigma = _enroll()
        text = synthesize_design(schema, sigma).to_text()
        assert "nest" in text
        assert "sid" in text and "grade" in text
        assert "preserved=yes" in text

    def test_report_is_a_design_report(self):
        schema, sigma = _enroll()
        assert isinstance(synthesize_design(schema, sigma),
                          DesignReport)


class TestSynthesizeNested:
    """Nested inputs flatten first; locally-scoped rules are dropped."""

    def test_course_keeps_flat(self):
        schema = workloads.course_schema()
        sigma = workloads.course_sigma()
        report = synthesize_design(schema, sigma)
        assert report.unnest_order  # it really was nested
        assert report.dropped > 0
        assert report.preserved

    def test_unknown_relation_rejected(self):
        schema, sigma = _enroll()
        with pytest.raises(InferenceError):
            synthesize_design(schema, sigma, "NoSuchRelation")

    def test_multi_relation_needs_explicit_choice(self):
        schema = parse_schema(
            "R = {<a: int, b: int>} ; S = {<c: int, d: int>}")
        sigma = [parse_nfd("R:[a -> b]")]
        with pytest.raises(InferenceError):
            synthesize_design(schema, sigma)
        report = synthesize_design(schema, sigma, "R")
        assert report.relation == "R"
        # S's rules are foreign to R
        foreign = synthesize_design(
            schema, sigma + [parse_nfd("S:[c -> d]")], "R")
        assert foreign.foreign == 1

    def test_bad_mode_rejected(self, tmp_path, capsys):
        # synthesis has one inference backing: no mode parameter, and
        # no --mode flag on the CLI
        schema, sigma = _enroll()
        with pytest.raises(TypeError):
            synthesize_design(schema, sigma, mode="session")
        bundle = tmp_path / "enroll.json"
        bundle.write_text(dump_bundle(schema, sigma))
        with pytest.raises(SystemExit) as exc:
            main(["normalize", str(bundle), "--mode", "session"])
        assert exc.value.code == 2
        assert "--mode" in capsys.readouterr().err


class TestCandidatePlans:
    COVER = [FD({"cnum"}, "time"), FD({"cnum", "sid"}, "grade")]

    def test_flat_identity_first(self):
        plans = candidate_plans("R", ("cnum", "time", "sid", "grade"),
                                self.COVER)
        assert not plans[0].steps

    def test_deterministic(self):
        attrs = ("cnum", "time", "sid", "grade")
        first = candidate_plans("R", attrs, self.COVER)
        second = candidate_plans("R", attrs, self.COVER)
        assert [p.steps for p in first] == [p.steps for p in second]

    def test_deduplicates(self):
        # both orderings of a single group collapse to the same steps
        plans = candidate_plans("R", ("a", "b"), [FD({"a"}, "b")])
        signatures = [tuple(p.steps) for p in plans]
        assert len(signatures) == len(set(signatures))


class TestFlatten:
    def test_flatten_type_unnests_everything(self):
        schema = workloads.course_schema()
        flat, order = flatten_type(schema.relation_type("Course"))
        assert set(order) == {"students", "books"}
        assert all(not isinstance(ft, SetType)
                   for _, ft in flat.element.fields)

    def test_flatten_value_matches_iterated_unnest(self):
        schema = workloads.course_schema()
        instance = workloads.course_instance()
        _, order = flatten_type(schema.relation_type("Course"))
        flat = flatten_value(instance.relation("Course"), order)
        assert len(flat.elements) >= len(
            instance.relation("Course").elements)

    def test_roundtrip_through_nest(self):
        schema, sigma = _enroll()
        report = synthesize_design(schema, sigma)
        flat = Instance(schema, {"Enroll": [
            {"cnum": "db", "time": 1, "sid": 1, "grade": "A"},
            {"cnum": "db", "time": 1, "sid": 2, "grade": "B"},
        ]})
        nested = report.plan.apply_instance(flat)
        assert ValidatorEngine(nested.schema,
                               report.plan_report.all_nfds()).check(nested)


class TestCarryoverUnnest:
    def test_scope_vanishes(self):
        local = parse_nfd("Course:students:[sid -> grade]")
        assert nfd_through_unnest(local, "students") is None

    def test_paths_rewritten(self):
        inter = parse_nfd(
            "Course:[cnum, students:sid -> students:grade]")
        rewritten = nfd_through_unnest(inter, "students")
        assert rewritten is not None
        assert str(rewritten) == "Course:[cnum, sid -> grade]"

    def test_set_attribute_itself_dropped(self):
        structural = parse_nfd("Course:[cnum -> students]")
        assert nfd_through_unnest(structural, "students") is None

    def test_sigma_through_unnest_counts(self):
        sigma = [
            parse_nfd("Course:[cnum -> time]"),
            parse_nfd("Course:students:[sid -> grade]"),
        ]
        survived = sigma_through_unnest(sigma, "students")
        assert [str(nfd) for nfd in survived] == \
            ["Course:[cnum -> time]"]


class TestProjectionOracle:
    def test_engine_oracle_matches_attribute_closure(self):
        attrs = ("a", "b", "c", "d")
        fds = [FD({"a"}, "b"), FD({"b"}, "c")]
        oracle_calls = []

        def oracle(combo):
            oracle_calls.append(combo)
            closed = set(combo)
            changed = True
            while changed:
                changed = False
                for fd in fds:
                    if fd.lhs <= closed and fd.rhs not in closed:
                        closed.add(fd.rhs)
                        changed = True
            return closed

        plain = project_fds(attrs, fds, ("a", "b", "c"))
        routed = project_fds(attrs, fds, ("a", "b", "c"),
                             closure=oracle)
        assert plain == routed
        assert oracle_calls  # the hook really ran


class TestSweep:
    def test_jobs_invariant(self):
        serial = sweep_normalize(6, jobs=1, seed=11)
        parallel = sweep_normalize(6, jobs=3, seed=11)
        assert serial.to_text() == parallel.to_text()

    def test_gate_predicate(self):
        summary = sweep_normalize(5, seed=0)
        assert summary.ok(min_preserved=0.95)
        assert not summary.ok(min_preserved=1.01)

    def test_metrics_shape(self):
        metrics = sweep_normalize(4, seed=2).as_metrics()
        assert metrics["schemas"] == 4
        assert 0.0 <= metrics["preserved_rate"] <= 1.0


@pytest.fixture
def enroll_bundle(tmp_path):
    schema, sigma = _enroll()
    path = tmp_path / "enroll.json"
    path.write_text(dump_bundle(schema, sigma))
    return str(path)


class TestNormalizeCLI:
    def test_bundle_report(self, enroll_bundle, capsys):
        assert main(["normalize", enroll_bundle]) == 0
        out = capsys.readouterr().out
        assert "winning plan: 1 nest step(s)" in out
        assert "preserved=yes" in out

    def test_sweep_gate(self, capsys):
        assert main(["normalize", "--sweep", "4", "--seed", "7"]) == 0
        assert "sweep: 4 schema(s)" in capsys.readouterr().out

    def test_sweep_gate_failure_exit(self, capsys):
        assert main(["normalize", "--sweep", "2",
                     "--min-preserved", "1.01"]) == 1

    def test_metrics_json(self, enroll_bundle, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert main(["normalize", enroll_bundle,
                     "--metrics-json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["command"] == "normalize"
        assert data["sections"]["design"]["preserved"] == 1

    def test_trace(self, enroll_bundle, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["normalize", enroll_bundle,
                     "--trace", str(trace)]) == 0
        spans = [json.loads(line)
                 for line in trace.read_text().splitlines()]
        assert any(s.get("name") == "design.synthesize"
                   for s in spans)

    def test_no_input_is_usage_error(self, capsys):
        assert main(["normalize"]) == 2

    @pytest.mark.parametrize(("extra", "named"), [
        (["{bundle}"], "the bundle argument"),
        (["--relation", "Enroll"], "--relation"),
        (["--nonempty", "Enroll"], "--nonempty")],
        ids=["bundle", "relation", "nonempty"])
    def test_sweep_refuses_bundle_inputs(self, enroll_bundle, extra,
                                         named, capsys):
        argv = ["normalize", "--sweep", "2"] + [
            arg.format(bundle=enroll_bundle) for arg in extra]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: --sweep ") and named in line


class TestAnalyzeStrategyRegression:
    """``repro analyze`` runs the one engine; ``--strategy`` is gone."""

    def test_dense_equals_worklist_stdout(self, tmp_path, capsys):
        from repro.analysis import analyze_constraints

        schema = workloads.course_schema()
        sigma = workloads.course_sigma()
        path = tmp_path / "course.json"
        path.write_text(dump_bundle(schema, sigma))
        assert main(["analyze", str(path)]) == 0
        assert capsys.readouterr().out == \
            analyze_constraints(schema, sigma).to_text() + "\n"
        for strategy in ("worklist", "dense"):
            with pytest.raises(SystemExit):
                main(["analyze", str(path), "--strategy", strategy])

    def test_library_strategy_kwarg(self):
        from repro.analysis import analyze_constraints

        schema, sigma = _enroll()
        with pytest.raises(TypeError, match="strategy"):
            analyze_constraints(schema, sigma, strategy="dense")
