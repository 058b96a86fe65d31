"""Tests for the process-parallel fan-out primitive."""

import pytest

from repro.parallel import PARALLEL_THRESHOLD, process_map


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
