"""Unit tests for the persistent SQLite cache layer.

Covers the :class:`~repro.store.CacheStore` lifecycle (schema
versioning, corruption fallback, read-only opens), the closure memo
and the dense tables through their real consumer
(:class:`~repro.inference.ImplicationSession`), spill/temp placement
under the cache directory, and the worker warm-up path's error
chaining.
"""

import os
import warnings

import pytest

from repro.generators import workloads
from repro.inference import ImplicationSession
from repro.inference.session import sigma_fingerprint
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


def _warm_entries(schema, sigma, store):
    """Fill the closure memo and the dense tables through a session."""
    ImplicationSession(schema, sigma, store=store).closure(
        parse_path("Course"), {parse_path("cnum")})
    summary = store.summary()
    assert summary["closure_memo"] == 1
    assert summary["dense_tables"] >= 1


class TestStoreLifecycle:
    def test_fresh_store_is_writable_and_empty(self, cache_dir):
        with CacheStore(cache_dir) as store:
            assert store.available and store.writable
            summary = store.summary()
            assert summary["closure_memo"] == 0
            assert summary["dense_tables"] == 0
            assert summary["stream_sources"] == 0
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

    def test_read_only_open_of_missing_db_creates_nothing(
            self, cache_dir):
        with CacheStore(cache_dir, read_only=True) as store:
            assert not store.writable
            assert store.get_dense("deadbeef", "Course") is None
        assert not os.path.exists(os.path.join(cache_dir, DB_FILENAME))

    def test_version_mismatch_drops_all_entries(self, cache_dir,
                                                schema, sigma):
        with CacheStore(cache_dir) as store:
            _warm_entries(schema, sigma, store)
            store._conn.execute(
                "UPDATE meta SET value = 'not-a-version' "
                "WHERE key = 'codec_version'")
            store._conn.commit()
        with CacheStore(cache_dir) as store:
            assert store.stats.stale == 1
            summary = store.summary()
            assert summary["closure_memo"] == 0
            assert summary["dense_tables"] == 0

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
            assert store.available and store.writable
            assert store.stats.stale == 0
        words = {s.split(None, 1)[0].upper() for s in statements}
        assert not words & {"CREATE", "INSERT", "BEGIN"}, statements

    def test_corrupt_db_degrades_with_a_warning(self, cache_dir,
                                                schema, sigma):
        os.makedirs(cache_dir)
        with open(os.path.join(cache_dir, DB_FILENAME), "wb") as fh:
            fh.write(b"this is not a sqlite database at all\n" * 64)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store = CacheStore(cache_dir)
            # every API degrades to a miss / no-op, never an exception
            assert store.get_dense("deadbeef", "Course") is None
            fp = sigma_fingerprint(schema, tuple(sigma))
            store.put_dense(fp, "Course", ("payload",))
            assert store.get_closure(fp, "Course", frozenset()) is None
            session = ImplicationSession(schema, sigma, store=store)
            assert session.closure(parse_path("Course"),
                                   {parse_path("cnum")})
            assert session.engine.stats.attempts > 0
            store.close()
        assert any(issubclass(w.category, CacheWarning) for w in caught)
        assert store.stats.errors >= 1

    def test_clear_and_vacuum(self, cache_dir, schema, sigma):
        with CacheStore(cache_dir) as store:
            _warm_entries(schema, sigma, store)
            assert store.clear()
            summary = store.summary()
            assert summary["closure_memo"] == 0
            assert summary["dense_tables"] == 0
            assert store.vacuum()
            assert store.integrity_check()


class TestClosureMemoTable:
    def test_closure_memo_round_trip(self, cache_dir, schema, sigma):
        fp = sigma_fingerprint(schema, tuple(sigma))
        lhs = frozenset({parse_path("cnum")})
        closure = frozenset({parse_path("cnum"), parse_path("time")})
        with CacheStore(cache_dir) as store:
            assert store.get_closure(fp, "Course", lhs) is None
            store.put_closure(fp, "Course", lhs, closure)
            assert store.get_closure(fp, "Course", lhs) == closure
        # a second handle (fresh process in real life) sees the row
        with CacheStore(cache_dir) as store:
            assert store.get_closure(fp, "Course", lhs) == closure

    def test_warm_session_answers_without_saturating(self, cache_dir,
                                                     schema, sigma):
        base = parse_path("Course")
        lhs = {parse_path("cnum")}
        with CacheStore(cache_dir) as store:
            cold = ImplicationSession(schema, sigma, store=store)
            cold_closure = cold.closure(base, lhs)
            assert cold.engine.stats.attempts > 0
        with CacheStore(cache_dir) as store:
            warm = ImplicationSession(schema, sigma, store=store)
            assert warm.closure(base, lhs) == cold_closure
            # the whole point: zero saturation rule applications
            assert warm.engine.stats.attempts == 0
            assert warm.engine.stats.saturations == 0
            assert warm.stats.store_hits == 1

    def test_store_counters_render_in_session_stats(self, cache_dir,
                                                    schema, sigma):
        with CacheStore(cache_dir) as store:
            session = ImplicationSession(schema, sigma, store=store)
            session.closure(parse_path("Course"), {parse_path("cnum")})
            text = session.stats.to_text()
            assert "store hits" in text
            metrics = session.stats.as_dict()
            assert metrics["store_misses"] == 1


class TestClosureMemoFaults:
    """A writer killed inside closure-memo write-through leaves a store
    the next run reads or rebuilds: the answer is exact either way."""

    @pytest.mark.parametrize("kill_at", [1, 2, 3],
                             ids=["begin", "insert", "commit"])
    def test_sigkill_inside_closure_memo_write(self, cache_dir, schema,
                                               sigma, tmp_path, capsys,
                                               kill_at):
        import signal
        import subprocess
        import sys
        from pathlib import Path

        from repro.cli import main
        bundle = tmp_path / "bundle.json"
        bundle.write_text(dump_bundle(schema, sigma))
        argv = ["implies", str(bundle), "Course:[cnum -> time]"]
        code = main(argv)
        uncached = (code, capsys.readouterr().out)
        assert code == 0
        # the kill_at-th statement of put_closure's transaction
        # (BEGIN IMMEDIATE, the INSERT, COMMIT) never completes
        script = (
            "import os, signal, sys\n"
            "from repro.cli import main\n"
            "from repro.store import CacheStore\n"
            "kill_at = int(sys.argv[1])\n"
            "put = CacheStore.put_closure\n"
            "def dying_put(self, *args):\n"
            "    seen = []\n"
            "    def trace(sql):\n"
            "        seen.append(sql)\n"
            "        if len(seen) >= kill_at:\n"
            "            os.kill(os.getpid(), signal.SIGKILL)\n"
            "    self._conn.set_trace_callback(trace)\n"
            "    return put(self, *args)\n"
            "CacheStore.put_closure = dying_put\n"
            "sys.exit(main(sys.argv[2:]))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(kill_at), *argv,
             "--cache-dir", cache_dir],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--cache-dir", cache_dir])
        assert (code, capsys.readouterr().out) == uncached
        assert [w.category for w in caught
                if issubclass(w.category, CacheWarning)] in \
            ([], [CacheWarning])
        spill_root = os.path.join(cache_dir, "tmp")
        assert not os.path.exists(spill_root) \
            or os.listdir(spill_root) == []
        with CacheStore(cache_dir) as store:
            assert store.integrity_check()
            assert store.summary()["closure_memo"] >= 1


class TestPlanTable:
    """Compiled plans are not persisted; what remains is the
    validator's own counter, which reads 1 per engine build."""

    def test_plan_compilations_render_in_stats(self, schema, sigma):
        engine = ValidatorEngine(schema, sigma)
        assert "plan compilations: 1" in engine.stats.to_text()
        assert engine.stats.as_dict()["plan_compilations"] == 1


class TestDenseTablesTable:
    def test_round_trip(self, cache_dir, schema, sigma):
        from repro.inference.dense import compile_tables
        from repro.inference.closure import ClosureEngine

        fp = sigma_fingerprint(schema, tuple(sigma))
        engine = ClosureEngine(schema, sigma)
        tables = engine._pool.dense("Course")
        payload = (tuple(str(nfd) for nfd in sigma), tables)
        with CacheStore(cache_dir) as store:
            assert store.get_dense(fp, "Course") is None
            assert store.stats.dense_misses == 1
            store.put_dense(fp, "Course", payload)
            texts, restored = store.get_dense(fp, "Course")
            assert texts == payload[0]
            assert restored.paths == tables.paths
            assert restored.ids == tables.ids
            assert restored.member_rows == tables.member_rows
            summary = store.summary()
            assert summary["dense_tables"] == 1
            assert summary["dense_bytes"] > 0
            assert "dense tables" in store.stats.to_text()
        assert compile_tables is not None  # the pickle layer's source

    def test_dense_session_warm_starts_from_the_store(self, cache_dir,
                                                      schema, sigma):
        base = parse_path("Course")
        lhs = {parse_path("cnum")}
        with CacheStore(cache_dir) as store:
            cold = ImplicationSession(schema, sigma, store=store)
            cold_closure = cold.closure(base, lhs)
            assert store.summary()["dense_tables"] >= 1
        with CacheStore(cache_dir) as store:
            warm = ImplicationSession(schema, sigma, store=store)
            # the tables were adopted, not recompiled
            assert store.stats.dense_hits >= 1
            assert warm.engine._pool.has_dense("Course")
            assert warm.closure(base, lhs) == cold_closure

    def test_sigma_reorder_is_stale_not_wrong(self, cache_dir, schema,
                                              sigma):
        sigma = tuple(sigma)
        reordered = tuple(reversed(sigma))
        with CacheStore(cache_dir) as store:
            ImplicationSession(schema, sigma, store=store)
        with CacheStore(cache_dir) as store:
            # same fingerprint, but dense rows are indexed by Σ member
            # position — the payload must be recompiled, not adopted
            session = ImplicationSession(schema, reordered, store=store)
            assert store.stats.stale >= 1
            assert session.implies(sigma[0])


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


# Worker functions for the warm-up traceback regression: module-level
# so the pool can pickle them.
def _warm_setup(payload):
    bundle_text, cache_dir = payload
    from repro.io import load_bundle
    schema, sigma, _ = load_bundle(bundle_text)
    store = CacheStore(cache_dir, read_only=True)
    return ImplicationSession(schema, sigma, store=store)


def _warm_probe(session, item):
    if item == 5:
        raise RuntimeError(f"warm probe exploded on item {item}")
    return session.closure(parse_path("Course"),
                           {parse_path("cnum")}) is not None


class TestWarmWorkerTracebacks:
    def test_failure_in_warm_worker_chains_remote_traceback(
            self, cache_dir, schema, sigma):
        """Regression: the ``from RemoteTraceback`` chaining must
        survive workers whose setup opens a read-only store."""
        from repro.parallel import RemoteTraceback

        with CacheStore(cache_dir) as store:
            ImplicationSession(schema, sigma, store=store).closure(
                parse_path("Course"), {parse_path("cnum")})
        payload = (dump_bundle(schema, sigma, None), cache_dir)
        with pytest.raises(RuntimeError,
                           match="warm probe exploded on item 5") \
                as info:
            process_map(_warm_setup, payload, _warm_probe,
                        list(range(8)), jobs=2)
        cause = info.value.__cause__
        assert isinstance(cause, RemoteTraceback)
        assert "_warm_probe" in str(cause)

    def test_warm_workers_answer_from_the_store(self, cache_dir,
                                                schema, sigma):
        with CacheStore(cache_dir) as store:
            ImplicationSession(schema, sigma, store=store).closure(
                parse_path("Course"), {parse_path("cnum")})
        payload = (dump_bundle(schema, sigma, None), cache_dir)
        verdicts = process_map(_warm_setup, payload, _warm_probe,
                               [0, 1, 2, 3], jobs=2)
        assert verdicts == [True, True, True, True]
