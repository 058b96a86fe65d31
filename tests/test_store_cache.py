"""Unit tests for the persistent SQLite cache layer.

Covers the :class:`~repro.store.CacheStore` lifecycle (schema
versioning, corruption fallback), writers killed inside a checkpoint
transaction, spill/temp placement under the cache directory, and the
process fan-out's error chaining.
"""

import os
import warnings

import pytest

from repro.generators import workloads
from repro.inference import ImplicationSession
from repro.io import dump_bundle
from repro.io.stream import iter_set_elements
from repro.nfd import ResourceBudget, ValidatorEngine, stream_validate
from repro.parallel import process_map
from repro.paths import parse_path
from repro.store import (
    CacheStore,
    CacheWarning,
    DB_FILENAME,
    default_spill_root,
    open_store,
    resolve_cache_dir,
)


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


@pytest.fixture
def schema():
    return workloads.course_schema()


@pytest.fixture
def sigma():
    return workloads.course_sigma()


def _checkpoint(store, source_id="a", state=0):
    """Write one stream checkpoint — a watermark, one group row and the
    witness element it references — and return whether it committed."""
    return store.put_stream_source(
        source_id, fingerprint="fp", relation="R", line_count=1,
        content_hash=f"h{state}", mtime=0.0, state={"seq": state},
        groups=[("0:R:[a -> b]",
                 [(b"k", 0, ["agg", state], [(1, {"a": state})])])])


def _checkpoint_rows(store, source_id="a"):
    """The stored form of one checkpoint (None when it is absent)."""
    entry = store.get_stream_source(source_id)
    if entry is None:
        return None
    return (entry["content_hash"], entry["state"],
            list(store.iter_stream_groups(source_id, plan=0,
                                          keys=[b"k"])),
            store.get_stream_elements(source_id, [1]))


class TestStoreLifecycle:
    def test_fresh_store_is_writable_and_empty(self, cache_dir):
        with CacheStore(cache_dir) as store:
            assert store.available
            summary = store.summary()
            assert summary["stream_sources"] == 0
            assert summary["stream_groups"] == 0
            assert summary["stream_elements"] == 0
            # a brand-new database is not "stale data"
            assert store.stats.stale == 0

    def test_open_store_none_means_caching_off(self):
        assert open_store(None) is None

    def test_resolve_cache_dir_precedence(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache_dir(None) is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache_dir(None) == str(tmp_path / "env")
        # an explicit directory always beats the environment
        assert resolve_cache_dir("explicit") == "explicit"

    def test_version_mismatch_drops_all_entries(self, cache_dir):
        with CacheStore(cache_dir) as store:
            assert _checkpoint(store)
            store._conn.execute(
                "UPDATE meta SET value = 'not-a-version' "
                "WHERE key = 'codec_version'")
            store._conn.commit()
        with CacheStore(cache_dir) as store:
            assert store.stats.stale == 1
            summary = store.summary()
            assert summary["stream_sources"] == 0
            assert summary["stream_groups"] == 0
            assert summary["stream_elements"] == 0

    def test_reopening_a_current_store_writes_nothing(self, cache_dir,
                                                      monkeypatch):
        """Only a new or outdated database is (re)initialized: opening
        a current one runs no CREATE, INSERT or BEGIN, so it takes no
        write lock."""
        import sqlite3

        connect = sqlite3.connect
        statements = []

        def traced_connect(*args, **kwargs):
            conn = connect(*args, **kwargs)
            conn.set_trace_callback(statements.append)
            return conn

        monkeypatch.setattr(sqlite3, "connect", traced_connect)
        CacheStore(cache_dir).close()
        first = list(statements)
        assert any(s.lstrip().upper().startswith("INSERT")
                   for s in first)
        statements.clear()
        with CacheStore(cache_dir) as store:
            assert store.available
            assert store.stats.stale == 0
        words = {s.split(None, 1)[0].upper() for s in statements}
        assert not words & {"CREATE", "INSERT", "BEGIN"}, statements

    def test_corrupt_db_degrades_with_a_warning(self, cache_dir):
        os.makedirs(cache_dir)
        with open(os.path.join(cache_dir, DB_FILENAME), "wb") as fh:
            fh.write(b"this is not a sqlite database at all\n" * 64)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store = CacheStore(cache_dir)
            # every API degrades to a miss / no-op, never an exception
            assert store.get_stream_source("a") is None
            assert not _checkpoint(store)
            assert list(store.iter_stream_groups("a")) == []
            assert store.get_stream_elements("a", [1]) == {}
            assert not store.clear()
            store.close()
        assert any(issubclass(w.category, CacheWarning) for w in caught)
        assert store.stats.errors >= 1

    def test_clear_and_vacuum(self, cache_dir):
        with CacheStore(cache_dir) as store:
            assert _checkpoint(store)
            assert store.summary()["stream_sources"] == 1
            assert store.clear()
            summary = store.summary()
            assert summary["stream_sources"] == 0
            assert summary["stream_groups"] == 0
            assert summary["stream_elements"] == 0
            assert store.vacuum()
            assert store.integrity_check()


class TestCheckpointWriteFaults:
    """A writer killed inside one source's checkpoint transaction
    leaves a store that opens cleanly: every other source's checkpoint
    reads back verbatim, the killed one is absent, and the next writer
    commits."""

    @pytest.mark.parametrize("kill_at", ["BEGIN", "INSERT", "COMMIT"],
                             ids=["begin", "insert", "commit"])
    def test_sigkill_inside_checkpoint_transaction(self, cache_dir,
                                                   kill_at):
        import signal
        import subprocess
        import sys
        from pathlib import Path

        with CacheStore(cache_dir) as store:
            assert _checkpoint(store, "a", state=1)
            committed = _checkpoint_rows(store, "a")
        # source b's write never completes the first statement that
        # starts with kill_at (BEGIN IMMEDIATE, an INSERT, COMMIT)
        script = (
            "import os, signal, sys\n"
            "sys.path.insert(0, sys.argv[3])\n"
            "from test_store_cache import _checkpoint\n"
            "from repro.store import CacheStore\n"
            "kill_at = sys.argv[2]\n"
            "store = CacheStore(sys.argv[1])\n"
            "def trace(sql):\n"
            "    if sql.lstrip().upper().startswith(kill_at):\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "store._conn.set_trace_callback(trace)\n"
            "_checkpoint(store, 'b', state=2)\n")
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script, cache_dir, kill_at,
             str(tests)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with CacheStore(cache_dir) as store:
                assert store.integrity_check()
                assert _checkpoint_rows(store, "a") == committed
                assert store.get_stream_source("b") is None
                assert _checkpoint(store, "b", state=3)
                assert _checkpoint_rows(store, "b")[1] == {"seq": 3}
                assert store.summary()["stream_sources"] == 2
        assert not [w for w in caught
                    if issubclass(w.category, CacheWarning)]


class TestPlanTable:
    """Compiled plans are not persisted; what remains is the
    validator's own counter, which reads 1 per engine build."""

    def test_plan_compilations_render_in_stats(self, schema, sigma):
        engine = ValidatorEngine(schema, sigma)
        assert "plan compilations: 1" in engine.stats.to_text()
        assert engine.stats.as_dict()["plan_compilations"] == 1


class TestSpillPlacement:
    def _spilling_run(self, schema, sigma, spill_root):
        instance = workloads.course_instance()
        sources = {name: iter_set_elements(value)
                   for name, value in instance.relations()}
        return stream_validate(
            schema, sigma, sources,
            budget=ResourceBudget(max_resident_rows=1),
            spill_root=spill_root)

    def test_spill_dirs_land_under_the_configured_root(
            self, tmp_path, schema, sigma):
        root = str(tmp_path / "spill-root")
        result = self._spilling_run(schema, sigma, root)
        assert result.stats.spills > 0
        assert os.path.isdir(root)
        # ... and are cleaned up afterwards: placement must not leak
        assert os.listdir(root) == []

    def test_default_spill_root_derives_from_cache_dir(self, cache_dir):
        root = default_spill_root(cache_dir)
        assert root == os.path.join(cache_dir, "tmp")
        assert os.path.isdir(root)

    def test_env_cache_dir_places_spills(self, monkeypatch, tmp_path,
                                         schema, sigma):
        cache_dir = str(tmp_path / "envcache")
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        result = self._spilling_run(schema, sigma, None)
        assert result.stats.spills > 0
        root = os.path.join(cache_dir, "tmp")
        assert os.path.isdir(root)
        assert os.listdir(root) == []


# Worker functions for the warm-worker traceback regression:
# module-level so the pool can pickle them.
def _warm_setup(bundle_text):
    from repro.io import load_bundle
    schema, sigma, _ = load_bundle(bundle_text)
    return ImplicationSession(schema, sigma)


def _warm_probe(session, item):
    if item == 5:
        raise RuntimeError(f"warm probe exploded on item {item}")
    return session.closure(parse_path("Course"),
                           {parse_path("cnum")}) is not None


class TestWarmWorkerTracebacks:
    def test_failure_in_warm_worker_chains_remote_traceback(
            self, schema, sigma):
        """Regression: the ``from RemoteTraceback`` chaining must
        survive workers whose setup builds a session."""
        from repro.parallel import RemoteTraceback

        payload = dump_bundle(schema, sigma, None)
        with pytest.raises(RuntimeError,
                           match="warm probe exploded on item 5") \
                as info:
            process_map(_warm_setup, payload, _warm_probe,
                        list(range(8)), jobs=2)
        cause = info.value.__cause__
        assert isinstance(cause, RemoteTraceback)
        assert "_warm_probe" in str(cause)
