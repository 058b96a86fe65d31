"""CLI observability flags: ``--trace FILE`` and ``--metrics-json FILE``.

The contract under test: the flags never change stdout or the exit
code; the trace file is valid JSON Lines; the metrics file is one
:class:`repro.obs.RunReport` whose sections carry the same numbers the
``--stats`` / ``--cache-stats`` stderr blocks print (they render from
the same frozen snapshots).
"""

import json
import re

import pytest

from repro.cli import main
from repro.generators import workloads
from repro.io import dump_bundle


@pytest.fixture
def course_bundle(tmp_path):
    path = tmp_path / "course.json"
    path.write_text(dump_bundle(workloads.course_schema(),
                                workloads.course_sigma(),
                                workloads.course_instance()))
    return str(path)


@pytest.fixture
def broken_bundle(tmp_path):
    instance = workloads.course_instance().with_relation("Course", [
        {"cnum": "a", "time": 1,
         "students": [{"sid": 1, "age": 20, "grade": "A"}],
         "books": [{"isbn": 1, "title": "X"}]},
        {"cnum": "b", "time": 2,
         "students": [{"sid": 1, "age": 99, "grade": "A"}],
         "books": [{"isbn": 1, "title": "X"}]},
    ])
    path = tmp_path / "broken.json"
    path.write_text(dump_bundle(workloads.course_schema(),
                                workloads.course_sigma(), instance))
    return str(path)


def _read_jsonl(path):
    return [json.loads(line)
            for line in path.read_text().splitlines() if line]


class TestTraceFlag:
    def test_check_writes_parseable_trace(self, course_bundle, tmp_path,
                                          capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["check", course_bundle, "--trace",
                     str(trace)]) == 0
        records = _read_jsonl(trace)
        assert records, "trace file is empty"
        spans = {r["name"]: r for r in records if r["kind"] == "span"}
        # the in-memory check runs the stream engine: its span, not
        # the batch engine's
        assert "stream.validate" in spans
        assert spans["stream.validate"]["counters"]["elements_seen"] == 2
        assert "validate.run" not in spans

    def test_implies_trace_has_saturation_counters(self, course_bundle,
                                                   tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["implies", course_bundle, "Course:[cnum -> time]",
                     "--trace", str(trace)]) == 0
        saturations = [r for r in _read_jsonl(trace)
                       if r["kind"] == "span"
                       and r["name"] == "closure.saturate"]
        assert saturations
        # the engine's saturation span carries the kernel's deltas
        assert any(r["counters"].get("saturations")
                   for r in saturations)
        assert any(r["counters"].get("attempts") is not None
                   for r in saturations)

    def test_trace_does_not_change_stdout_or_exit(self, broken_bundle,
                                                  tmp_path, capsys):
        assert main(["check", broken_bundle]) == 1
        bare = capsys.readouterr().out
        trace = tmp_path / "trace.jsonl"
        assert main(["check", broken_bundle, "--trace",
                     str(trace)]) == 1
        assert capsys.readouterr().out == bare

    def test_keys_and_closure_and_analyze_trace(self, course_bundle,
                                                tmp_path, capsys):
        for command, expect in [
            (["keys", course_bundle, "Course"], "analysis.keys"),
            (["closure", course_bundle, "Course", "cnum"],
             "closure.saturate"),
            (["analyze", course_bundle], "analysis.non_redundant"),
        ]:
            trace = tmp_path / "t.jsonl"
            assert main(command + ["--trace", str(trace)]) == 0
            names = {r["name"] for r in _read_jsonl(trace)
                     if r["kind"] == "span"}
            assert expect in names, (command, names)


class TestMetricsJsonFlag:
    def test_check_metrics_sections(self, course_bundle, tmp_path,
                                    capsys):
        target = tmp_path / "metrics.json"
        assert main(["check", course_bundle, "--metrics-json",
                     str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["command"] == "check"
        assert set(payload["sections"]) == {"stream"}
        assert payload["sections"]["stream"]["elements_seen"] == 2

    def test_analyze_consolidates_all_three_engines(self, course_bundle,
                                                    tmp_path, capsys):
        target = tmp_path / "metrics.json"
        assert main(["analyze", course_bundle, "--metrics-json",
                     str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["command"] == "analyze"
        assert set(payload["sections"]) >= \
            {"closure", "session", "validator"}
        assert payload["sections"]["closure"]["saturations"] > 0
        assert payload["sections"]["session"]["queries"] > 0
        assert payload["sections"]["validator"]["validations"] == 1

    def test_metrics_do_not_change_stdout_or_exit(self, broken_bundle,
                                                  tmp_path, capsys):
        assert main(["check", broken_bundle]) == 1
        bare = capsys.readouterr().out
        target = tmp_path / "metrics.json"
        assert main(["check", broken_bundle, "--metrics-json",
                     str(target)]) == 1
        assert capsys.readouterr().out == bare

    def test_metrics_reconcile_with_stats_stderr(self, course_bundle,
                                                 tmp_path, capsys):
        target = tmp_path / "metrics.json"
        assert main(["analyze", course_bundle, "--stats",
                     "--cache-stats", "--metrics-json",
                     str(target)]) == 0
        err = capsys.readouterr().err
        payload = json.loads(target.read_text())
        sections = payload["sections"]
        # the stderr blocks and the JSON render the same snapshots
        attempts = re.search(r"apply attempts: (\d+)", err).group(1)
        assert sections["closure"]["attempts"] == int(attempts)
        queries = re.search(r"closure queries: (\d+)", err).group(1)
        assert sections["session"]["queries"] == int(queries)
        walked = re.search(r"elements walked: (\d+)", err).group(1)
        assert sections["validator"]["elements_walked"] == int(walked)

    def test_stats_stderr_formats_unchanged(self, course_bundle,
                                            capsys):
        assert main(["analyze", course_bundle, "--stats",
                     "--cache-stats"]) == 0
        err = capsys.readouterr().err
        assert "engine stats:" in err
        assert "session stats (fingerprint " in err
        assert "validator stats (single-pass batch engine)" in err

    def test_implies_metrics_sections(self, course_bundle, tmp_path,
                                      capsys):
        target = tmp_path / "metrics.json"
        assert main(["implies", course_bundle,
                     "Course:[cnum -> nosuch]", "--metrics-json",
                     str(target)]) == 2  # parse error: unknown path
        # usage errors abort before the report is written
        assert not target.exists()
        assert main(["implies", course_bundle, "Course:[cnum -> time]",
                     "--metrics-json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert set(payload["sections"]) == {"closure", "session"}

    def test_keys_metrics_and_exit_codes(self, course_bundle, tmp_path,
                                         capsys):
        target = tmp_path / "metrics.json"
        assert main(["keys", course_bundle, "Course", "--metrics-json",
                     str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["command"] == "keys"
        assert "session" in payload["sections"]
