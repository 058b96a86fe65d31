"""Tests of the benchmark's own arithmetic and of its output contract.

    python3 -m pytest perfbench/test_perfbench.py

The smoke tests run every workload on tiny inputs for one second, so
the whole file takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.stats import (Tally, percentile, self_times, tail_percentile,
                             tail_report, union_length)
from perfbench.tracing import (PER_LAYER, intersection_length, layer_report,
                               per_layer_metrics)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("stream-spill", "stream-resume", "daemon-mix", "offline-sweep")


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# ------------------------------------------------------------ percentiles


@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_p99_never_from_fewer_than_1000_samples():
    assert all(tail_percentile(n) != 99.0 for n in range(1000))
    assert tail_report(list(range(999)))[0] == 90.0


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(samples, 99) == 99
    assert percentile([7], 99) == 7
    assert tail_report([float(n) for n in range(1, 1001)]) == (99.0, 990.0)


# -------------------------------------------------------------- self time


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "parent", 0.0, 10.0, None),
        (2, "a", 1.0, 4.0, 1),
        (3, "b", 3.0, 6.0, 1),        # overlaps a: counted once
        (4, "late", 8.0, 12.0, 1),    # clipped to the parent's end
        (5, "grandchild", 1.5, 2.0, 2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[5] == pytest.approx(0.5)


def test_union_and_intersection_lengths():
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert union_length([]) == 0.0
    assert intersection_length([(0, 10)], [(2, 3), (2.5, 4), (9, 12)]) \
        == pytest.approx(3.0)


def test_layer_report_splits_wall_into_layers_and_other():
    spans = [
        (1, "cli.main", 0.0, 10.0, None),
        (2, "nfd.consume", 1.0, 7.0, 1),
        (3, "io.jsonl_next", 2.0, 3.0, 2),
        (4, "trace.install", 9.0, 10.0, 1),
    ]
    per_op, wall, covered = layer_report(spans, ops=2)
    assert wall == pytest.approx(9.0)          # tracer time excluded
    assert covered == pytest.approx(6.0)
    assert per_op["nfd.consume"] == pytest.approx(2.5)
    assert per_op["io.jsonl_next"] == pytest.approx(0.5)


def test_per_layer_metrics_name_every_benchmark_metric():
    counts = dict.fromkeys((
        "elements_seen", "rows_emitted", "spills", "rows_spilled",
        "bytes_spilled", "runs_merged", "intern_hits", "intern_misses",
        "plan_compilations", "session_queries", "session_hits",
        "mask_tests", "store_stale", "store_errors", "rule_attempts",
        "saturations", "peak_resident_rows", "rows_persisted",
        "resumed_rows_persisted", "resumed_elements", "synthesized",
        "candidates"), 0)
    values = per_layer_metrics([(1, "cli.main", 0.0, 1.0, None)], 1,
                               counts, None, overhead=0.1, fail_ratio=0.0)
    names = [name for name, _, _, _ in PER_LAYER]
    assert sorted(values) == sorted(names)
    assert names == [m["name"] for m in _benchmark_spec()["per_layer"]]


# ------------------------------------------------------------------ tally


def test_fail_ratio_counts_failures_against_attempts():
    tally = Tally()
    tally.record(True)
    tally.record(False, "wrong answer")
    tally.fail("stderr not empty")
    tally.merge(7, 1, ["worker: witnesses differ"])
    assert (tally.attempted, tally.failed) == (10, 3)
    assert tally.fail_ratio == pytest.approx(0.3)
    assert tally.reasons == ["wrong answer", "stderr not empty",
                             "worker: witnesses differ"]
    assert Tally().fail_ratio == 1.0   # nothing attempted is no success


# ------------------------------------------------------------ smoke runs


def _run(workload: str, trace: int, *extra: str, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_the_benchmark_names(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = _benchmark_spec()
    table = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in table} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    if trace:
        assert result["metrics"]["trace.layer_share"]["value"] > 0.5
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_work"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_answer_is_counted(workload):
    done = _run(workload, 0, "--plant-wrong-answer")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("stream-spill", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()
