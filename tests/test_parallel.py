"""Tests for the process-parallel fan-out primitive and its users."""

import pytest

from repro.analysis.keys import minimal_keys
from repro.generators import workloads
from repro.inference import NonEmptySpec
from repro.parallel import (
    PARALLEL_THRESHOLD,
    process_map,
    spec_from_payload,
    spec_payload,
)
from repro.paths import parse_path


# worker functions must be module-level so the pool can pickle them
def _setup(payload):
    return payload * 10


def _probe(context, item):
    return context + item


class TestProcessMap:
    def test_serial_matches_expected(self):
        result = process_map(_setup, 1, _probe, [1, 2, 3], jobs=1)
        assert result == [11, 12, 13]

    def test_parallel_preserves_order(self):
        items = list(range(20))
        serial = process_map(_setup, 5, _probe, items, jobs=1)
        parallel = process_map(_setup, 5, _probe, items, jobs=3)
        assert parallel == serial == [50 + i for i in items]

    def test_small_workloads_stay_serial(self, monkeypatch):
        import repro.parallel as parallel_module

        def _explode(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("a pool was spawned")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor",
                            _explode)
        items = list(range(PARALLEL_THRESHOLD - 1))
        assert process_map(_setup, 0, _probe, items, jobs=8) == items

    def test_jobs_one_stays_serial(self, monkeypatch):
        import repro.parallel as parallel_module

        def _explode(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("a pool was spawned")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor",
                            _explode)
        items = list(range(50))
        assert process_map(_setup, 0, _probe, items, jobs=1) == items


class TestSpecPayload:
    def test_none_round_trip(self):
        assert spec_from_payload(spec_payload(None)) is None

    def test_all_nonempty_round_trip(self):
        spec = spec_from_payload(spec_payload(NonEmptySpec.all_nonempty()))
        assert spec.declares_everything

    def test_partial_round_trip(self):
        spec = NonEmptySpec({parse_path("Course"),
                             parse_path("Course:students")})
        restored = spec_from_payload(spec_payload(spec))
        assert not restored.declares_everything
        assert set(restored.declared) == set(spec.declared)
        assert spec_payload(restored) == spec_payload(spec)


class TestParallelKeys:
    def test_parallel_sweep_matches_serial(self):
        schema = workloads.course_schema()
        sigma = workloads.course_sigma()
        serial = minimal_keys(schema, sigma, "Course")
        assert minimal_keys(schema, sigma, "Course", jobs=4) == serial

    def test_parallel_sweep_matches_serial_gated(self):
        schema = workloads.course_schema()
        sigma = workloads.course_sigma()
        spec = NonEmptySpec({parse_path("Course")})
        serial = minimal_keys(schema, sigma, "Course", nonempty=spec)
        parallel = minimal_keys(schema, sigma, "Course", nonempty=spec,
                                jobs=4)
        assert parallel == serial
        assert parallel != minimal_keys(schema, sigma, "Course")


def _failing_probe(context, item):
    if item == 3:
        raise RuntimeError(f"probe exploded on item {item}")
    return item


class TestWorkerTracebacks:
    def test_worker_failure_chains_remote_traceback(self):
        from repro.parallel import RemoteTraceback

        with pytest.raises(RuntimeError,
                           match="probe exploded on item 3") as info:
            process_map(_setup, 0, _failing_probe, list(range(8)),
                        jobs=2)
        cause = info.value.__cause__
        assert isinstance(cause, RemoteTraceback)
        remote = str(cause)
        assert "remote worker traceback" in remote
        assert "_failing_probe" in remote  # the worker's own frames
        assert "probe exploded on item 3" in remote

    def test_serial_failure_keeps_plain_traceback(self):
        with pytest.raises(RuntimeError) as info:
            process_map(_setup, 0, _failing_probe, list(range(8)),
                        jobs=1)
        assert info.value.__cause__ is None
