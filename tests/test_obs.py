"""Unit tests for the observability layer (:mod:`repro.obs`).

Covers the tracer's span nesting and completion ordering, the ring
buffer's explicit (never silent) truncation, histogram bucket-edge
semantics, the deterministic merge of child-process metrics, the
snapshot/diff window semantics of the stats classes, and the
:class:`RunReport` consolidation protocol.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import InferenceError
from repro.generators import workloads
from repro.inference import ClosureEngine, ImplicationSession
from repro.nfd import ValidatorEngine
from repro.obs import (
    Histogram,
    MetricsRegistry,
    RunReport,
    Tracer,
    supports_metrics,
)
from repro.paths import parse_path


class TestTracerSpans:
    def test_nesting_records_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.parent_id is None
        assert outer.depth == 0
        assert inner.parent_id == outer.span_id
        assert inner.depth == 1

    def test_ids_follow_opening_order(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        ids = {span.name: span.span_id for span in tracer.spans()}
        assert ids == {"a": 0, "b": 1, "c": 2}

    def test_completion_order_lists_children_first(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        assert [span.name for span in tracer.spans()] == \
            ["parent", "child"][::-1]

    def test_count_charges_innermost_open_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.count("work")
            with tracer.span("inner") as inner:
                tracer.count("work", 2)
        assert outer.counters == {"work": 1}
        assert inner.counters == {"work": 2}

    def test_count_outside_any_span_is_noop(self):
        tracer = Tracer()
        tracer.count("orphan")
        assert tracer.spans() == []
        assert list(tracer.records()) == []

    def test_duration_uses_injected_clock(self):
        ticks = iter([0.0, 1.0, 3.5])
        tracer = Tracer(clock=lambda: next(ticks))
        with tracer.span("timed") as span:
            pass
        assert span.start == 1.0
        assert span.duration == 2.5

    def test_exception_marks_span_failed_and_closes_it(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.spans()
        assert span.attrs["failed"] is True
        assert span.closed
        assert tracer.current is None


class TestTracerRingBuffer:
    def test_truncation_keeps_newest_and_is_flagged(self):
        tracer = Tracer(max_records=3)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert tracer.truncated
        assert tracer.dropped == 2
        kept = [span.name for span in tracer.spans()]
        assert kept == ["s2", "s3", "s4"]
        marker = list(tracer.records())[-1]
        assert marker == {"kind": "truncated", "dropped": 2,
                          "max_records": 3}

    def test_untruncated_trace_has_no_marker(self):
        tracer = Tracer(max_records=10)
        with tracer.span("only"):
            pass
        kinds = [record["kind"] for record in tracer.records()]
        assert kinds == ["span"]

    def test_jsonl_export_parses_and_flags_truncation(self, tmp_path):
        tracer = Tracer(max_records=2)
        for index in range(4):
            with tracer.span("work", index=index):
                tracer.count("steps", index)
        target = tmp_path / "trace.jsonl"
        tracer.write_jsonl(target)
        lines = target.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 3  # 2 kept + the truncation marker
        assert records[-1]["kind"] == "truncated"
        assert records[-1]["dropped"] == 2

    def test_max_records_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(max_records=0)


class TestHistogram:
    def test_value_on_edge_lands_in_edge_bucket(self):
        histogram = Histogram("h", edges=(1, 5, 10))
        for value in (1, 5, 10):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1, 0]

    def test_values_between_edges(self):
        histogram = Histogram("h", edges=(1, 5, 10))
        histogram.observe(0)    # <= 1
        histogram.observe(2)    # (1, 5]
        histogram.observe(7)    # (5, 10]
        histogram.observe(11)   # overflow
        assert histogram.counts == [1, 1, 1, 1]
        assert histogram.count == 4
        assert histogram.total == 20

    def test_edges_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram("bad", edges=(1, 1, 2))
        with pytest.raises(ValueError):
            Histogram("bad", edges=())


class TestMetricsRegistry:
    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_one_name_one_kind(self):
        registry = MetricsRegistry()
        registry.counter("n")
        with pytest.raises(ValueError):
            registry.gauge("n")

    def test_count_all_with_prefix(self):
        registry = MetricsRegistry()
        registry.count_all({"a": 2, "b": 3}, prefix="x.")
        assert registry.as_dict()["counters"] == {"x.a": 2, "x.b": 3}

    def test_merge_semantics(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("c").inc(2)
        right.counter("c").inc(3)
        left.gauge("g").set(1)
        right.gauge("g").set(9)
        left.histogram("h", edges=(1, 2)).observe(1)
        right.histogram("h", edges=(1, 2)).observe(2)
        left.merge(right)
        merged = left.as_dict()
        assert merged["counters"]["c"] == 5       # counters add
        assert merged["gauges"]["g"] == 9         # last write wins
        assert merged["histograms"]["h"]["counts"] == [1, 1, 0]

    def test_merge_order_independent_for_counters(self):
        deltas = [{"counters": {"c": n}, "gauges": {},
                   "histograms": {}} for n in (1, 2, 3)]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for delta in deltas:
            forward.merge(delta)
        for delta in reversed(deltas):
            backward.merge(delta)
        assert forward.as_dict()["counters"] == \
            backward.as_dict()["counters"]

    def test_merge_rejects_edge_mismatch(self):
        left = MetricsRegistry()
        left.histogram("h", edges=(1, 2)).observe(1)
        with pytest.raises(ValueError):
            left.merge({"histograms": {"h": {
                "edges": [1, 3], "counts": [0, 0, 0],
                "total": 0, "count": 0}}})

    def test_json_export_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(7)
        assert json.loads(registry.to_json())["counters"]["c"] == 7


class TestSnapshotDiff:
    """Cumulative counters + snapshot()/diff() windows, never resets."""

    def _course(self):
        return workloads.course_schema(), list(workloads.course_sigma())

    def test_engine_counters_are_cumulative(self):
        schema, sigma = self._course()
        engine = ClosureEngine(schema, sigma)
        base = parse_path("Course")
        engine.closure(base, {parse_path("cnum")})
        first = engine.snapshot()
        engine.closure(base, {parse_path("time")})
        second = engine.snapshot()
        assert second.saturations >= first.saturations
        assert second.attempts >= first.attempts

    def test_engine_diff_isolates_the_window(self):
        schema, sigma = self._course()
        engine = ClosureEngine(schema, sigma)
        base = parse_path("Course")
        engine.closure(base, {parse_path("cnum")})
        before = engine.snapshot()
        engine.closure(base, {parse_path("time")})
        window = engine.snapshot().diff(before)
        assert window.saturations == \
            engine.snapshot().saturations - before.saturations
        assert window.attempts >= 0
        # point-in-time maps keep the later snapshot's values
        assert window.usables == engine.snapshot().usables

    def test_session_diff_isolates_the_window(self):
        schema, sigma = self._course()
        session = ImplicationSession(schema, sigma)
        base = parse_path("Course")
        session.closure(base, {parse_path("cnum")})
        before = session.snapshot()
        session.closure(base, {parse_path("cnum")})   # held key
        window = session.snapshot().diff(before)
        assert window.queries == 1
        assert window.hits == 1
        # the window saturated nothing; the engine's query map is
        # point-in-time, not a delta
        assert window.engine.saturations == 0
        assert window.engine.queries == session.snapshot().engine.queries

    def test_session_diff_rejects_fingerprint_mismatch(self):
        schema, sigma = self._course()
        full = ImplicationSession(schema, sigma).snapshot()
        smaller = ImplicationSession(schema, sigma[:-1]).snapshot()
        with pytest.raises(InferenceError):
            full.diff(smaller)

    def test_validator_diff_isolates_the_window(self):
        schema, sigma = self._course()
        engine = ValidatorEngine(schema, sigma)
        instance = workloads.course_instance()
        engine.validate(instance)
        before = engine.snapshot()
        engine.validate(instance)
        window = engine.snapshot().diff(before)
        assert window.validations == 1
        assert window.elements_walked > 0
        # per-NFD group counts subtract too
        assert all(count >= 0 for count in window.groups.values())
        # trie_nodes is fixed at compile time, not a delta
        assert window.trie_nodes == engine.snapshot().trie_nodes

    @pytest.mark.parametrize("kind", ["closure", "session", "validator"])
    def test_reversed_diff_is_rejected(self, kind):
        """``earlier.diff(later)`` raises instead of returning negative
        counts (the session's second query is a memo hit, which moves
        only the session's own counters)."""
        schema, sigma = self._course()
        base, instance = parse_path("Course"), workloads.course_instance()
        if kind == "validator":
            engine = ValidatorEngine(schema, sigma)
            windows = [lambda: engine.validate(instance)] * 2
        else:
            engine = (ClosureEngine if kind == "closure"
                      else ImplicationSession)(schema, sigma)
            labels = ["cnum", "time" if kind == "closure" else "cnum"]
            windows = [lambda label=label: engine.closure(
                base, {parse_path(label)}) for label in labels]
        snapshots = []
        for run in windows:
            run()
            snapshots.append(engine.snapshot())
        earlier, later = snapshots
        with pytest.raises(InferenceError, match="more work"):
            earlier.diff(later)


class TestRunReport:
    def test_sections_freeze_at_add_time(self):
        schema = workloads.course_schema()
        sigma = list(workloads.course_sigma())
        engine = ClosureEngine(schema, sigma)
        engine.closure(parse_path("Course"), {parse_path("cnum")})
        report = RunReport(command="test").add("closure", engine.stats)
        frozen = report.section("closure")
        engine.closure(parse_path("Course"), {parse_path("time")})
        assert report.section("closure") == frozen
        assert report.section("closure") != engine.stats.as_metrics()

    def test_section_text_matches_engine_rendering(self):
        schema = workloads.course_schema()
        sigma = list(workloads.course_sigma())
        engine = ClosureEngine(schema, sigma)
        engine.closure(parse_path("Course"), {parse_path("cnum")})
        snapshot = engine.stats
        report = RunReport().add("closure", snapshot)
        assert report.section_text("closure") == snapshot.to_text()

    def test_mapping_sections_render_as_json(self):
        report = RunReport().add("extra", {"answer": 42})
        assert json.loads(report.section_text("extra")) == {"answer": 42}

    def test_rejects_non_metric_sources(self):
        with pytest.raises(TypeError):
            RunReport().add("bad", object())

    def test_supports_metrics_protocol(self):
        schema = workloads.course_schema()
        sigma = list(workloads.course_sigma())
        assert supports_metrics(ClosureEngine(schema, sigma).stats)
        assert not supports_metrics(object())

    def test_json_export_contains_all_sections(self, tmp_path):
        schema = workloads.course_schema()
        sigma = list(workloads.course_sigma())
        session = ImplicationSession(schema, sigma)
        session.closure(parse_path("Course"), {parse_path("cnum")})
        validator = ValidatorEngine(schema, sigma)
        validator.validate(workloads.course_instance())
        report = (RunReport(command="analyze")
                  .add("closure", session.engine.stats)
                  .add("session", session.stats)
                  .add("validator", validator.stats))
        target = tmp_path / "metrics.json"
        report.write_json(target)
        payload = json.loads(target.read_text())
        assert payload["command"] == "analyze"
        assert set(payload["sections"]) == \
            {"closure", "session", "validator"}
        assert payload["sections"]["session"]["queries"] == 1


class TestCompareSnapshots:
    """compare_snapshots: the perf-trajectory guardrail behind the
    benchmark suite's ``--compare BASELINE.json`` mode."""

    def _registry(self, **gauges):
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        for name, value in gauges.items():
            registry.gauge(name.replace("__", ".")).set(value)
        return registry

    def test_holding_the_line_passes(self):
        from repro.obs import compare_snapshots
        baseline = self._registry(**{"stream.elements_per_sec": 1000})
        current = self._registry(**{"stream.elements_per_sec": 900})
        assert compare_snapshots(current, baseline) == []

    def test_regression_beyond_tolerance_fails(self):
        from repro.obs import compare_snapshots
        baseline = self._registry(**{"stream.elements_per_sec": 1000})
        current = self._registry(**{"stream.elements_per_sec": 700})
        messages = compare_snapshots(current, baseline, tolerance=0.2)
        assert len(messages) == 1
        assert "stream.elements_per_sec" in messages[0]
        assert "30.0%" in messages[0]

    def test_missing_gauge_is_a_regression(self):
        from repro.obs import compare_snapshots
        baseline = self._registry(**{"stream.elements_per_sec": 1000})
        current = self._registry()
        messages = compare_snapshots(current, baseline)
        assert messages and "missing" in messages[0]

    def test_only_rate_gauges_are_compared(self):
        from repro.obs import compare_snapshots
        baseline = self._registry(**{"stream.spills": 9,
                                     "stream.rows_spilled": 4500})
        current = self._registry(**{"stream.spills": 90,
                                    "stream.rows_spilled": 1})
        assert compare_snapshots(current, baseline) == []

    def test_accepts_plain_dicts(self):
        from repro.obs import compare_snapshots
        baseline = {"gauges": {"x_per_sec": 100.0}}
        current = {"gauges": {"x_per_sec": 50.0}}
        assert compare_snapshots(current, baseline)
        assert compare_snapshots(current, baseline, tolerance=0.6) == []

    def test_rejects_bad_tolerance(self):
        from repro.obs import compare_snapshots
        with pytest.raises(ValueError):
            compare_snapshots({}, {}, tolerance=1.5)

    def test_improvements_never_flag(self):
        from repro.obs import compare_snapshots
        baseline = self._registry(**{"stream.elements_per_sec": 1000})
        current = self._registry(**{"stream.elements_per_sec": 5000})
        assert compare_snapshots(current, baseline) == []
