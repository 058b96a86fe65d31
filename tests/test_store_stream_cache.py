"""Unit tests for incremental resumable streaming validation.

The contract under test (see :mod:`repro.store.stream_cache`): a
resumed run folds only appended lines, yet reports witnesses
byte-identical to a full cold re-stream; any prefix disturbance —
rewrite, truncation, Σ reorder — degrades to a cold run; and a
budget-exhausted run never poisons the checkpoint.
"""

import json
import os

import pytest

from repro.generators import workloads
from repro.io.stream import dump_jsonl, iter_jsonl_elements, \
    iter_set_elements
from repro.nfd import ResourceBudget, stream_validate
from repro.store import CacheStore, incremental_stream_validate, \
    stream_source_id
from repro.store.stream_cache import _scan_source
from repro.values import Atom, to_python


@pytest.fixture
def schema():
    return workloads.course_schema()


@pytest.fixture
def sigma():
    return tuple(workloads.course_sigma())


@pytest.fixture
def store(tmp_path):
    with CacheStore(str(tmp_path / "cache")) as handle:
        yield handle


@pytest.fixture
def jsonl(tmp_path):
    path = tmp_path / "course.jsonl"
    dump_jsonl(path, iter_set_elements(
        workloads.course_instance().relation("Course")))
    return str(path)


def _append(path, element):
    with open(path, "a") as handle:
        handle.write(json.dumps(to_python(element)) + "\n")


def _clashing_element():
    first = next(iter_set_elements(
        workloads.course_instance().relation("Course")))
    return first.replace("time", Atom(99))


def _nested_clash_row():
    return {"cnum": "cis700", "time": 9,
            "students": [{"sid": 1, "age": 20, "grade": "A"},
                         {"sid": 1, "age": 21, "grade": "B"}],
            "books": [{"isbn": 7, "title": "Nested FDs"}]}


def _cold_witnesses(schema, sigma, path):
    result = stream_validate(
        schema, sigma,
        {"Course": iter_jsonl_elements(path, schema, "Course")})
    return [v.describe() for v in result.violations]


def _witnesses(result):
    return [v.describe() for v in result.violations]


class TestScanSource:
    def test_counts_and_prefix_digest(self, tmp_path):
        path = tmp_path / "lines.jsonl"
        path.write_bytes(b"a\nb\nc\n")
        total, full_hash, prefix_hash = _scan_source(str(path), 2)
        assert total == 3
        short_total, short_full, _ = _scan_source(str(path), 0)
        assert short_total == 3 and short_full == full_hash
        # the prefix digest is the digest OF the two-line file
        two = tmp_path / "two.jsonl"
        two.write_bytes(b"a\nb\n")
        _, two_full, _ = _scan_source(str(two), 0)
        assert prefix_hash == two_full

    def test_prefix_beyond_eof_forces_cold(self, tmp_path):
        path = tmp_path / "lines.jsonl"
        path.write_bytes(b"a\n")
        _, _, prefix_hash = _scan_source(str(path), 5)
        assert prefix_hash == ""  # never matches a stored digest


class TestIncrementalHappyPath:
    def test_cold_run_persists_a_checkpoint(self, schema, sigma, store,
                                            jsonl):
        result, info = incremental_stream_validate(
            schema, sigma, "Course", jsonl, store=store)
        assert result.ok
        assert info["mode"] == "cold"
        assert info["persisted"]
        assert store.summary()["stream_sources"] == 1
        assert store.summary()["stream_groups"] > 0

    def test_unchanged_file_folds_nothing(self, schema, sigma, store,
                                          jsonl):
        incremental_stream_validate(schema, sigma, "Course", jsonl,
                                    store=store)
        result, info = incremental_stream_validate(
            schema, sigma, "Course", jsonl, store=store)
        assert info["mode"] == "resumed"
        assert info["elements_folded"] == 0
        assert result.ok

    def test_appended_clash_matches_cold_restream(self, schema, sigma,
                                                  store, jsonl):
        incremental_stream_validate(schema, sigma, "Course", jsonl,
                                    store=store)
        _append(jsonl, _clashing_element())
        result, info = incremental_stream_validate(
            schema, sigma, "Course", jsonl, store=store)
        assert info["mode"] == "resumed"
        assert info["elements_folded"] == 1
        assert not result.ok
        assert _witnesses(result) == _cold_witnesses(schema, sigma,
                                                     jsonl)

    def test_violations_survive_a_further_resume(self, schema, sigma,
                                                 store, jsonl):
        """A checkpoint taken of a violating run re-reports the same
        witnesses on the next resume — the clash aggregates persist."""
        incremental_stream_validate(schema, sigma, "Course", jsonl,
                                    store=store)
        _append(jsonl, _clashing_element())
        incremental_stream_validate(schema, sigma, "Course", jsonl,
                                    store=store)
        result, info = incremental_stream_validate(
            schema, sigma, "Course", jsonl, store=store)
        assert info["mode"] == "resumed"
        assert info["elements_folded"] == 0
        assert _witnesses(result) == _cold_witnesses(schema, sigma,
                                                     jsonl)

    def test_nested_violation_appended_after_checkpoint(
            self, schema, sigma, store, jsonl, tmp_path):
        incremental_stream_validate(schema, sigma, "Course", jsonl,
                                    store=store)
        with open(jsonl, "a") as handle:
            handle.write(json.dumps(_nested_clash_row()) + "\n")
        result, info = incremental_stream_validate(
            schema, sigma, "Course", jsonl, store=store)
        assert info["mode"] == "resumed"
        assert not result.ok
        assert _witnesses(result) == _cold_witnesses(schema, sigma,
                                                     jsonl)

    def test_nested_violation_before_checkpoint_is_restored(
            self, schema, sigma, store, tmp_path):
        path = str(tmp_path / "nested.jsonl")
        rows = [to_python(e) for e in iter_set_elements(
            workloads.course_instance().relation("Course"))]
        rows.append(_nested_clash_row())
        with open(path, "w") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        first, _ = incremental_stream_validate(
            schema, sigma, "Course", path, store=store)
        assert not first.ok
        _append(path, _clashing_element())
        result, info = incremental_stream_validate(
            schema, sigma, "Course", path, store=store)
        assert info["mode"] == "resumed"
        assert _witnesses(result) == _cold_witnesses(schema, sigma,
                                                     path)


class TestWatermarkInvalidation:
    def test_rewritten_prefix_forces_cold(self, schema, sigma, store,
                                          jsonl):
        incremental_stream_validate(schema, sigma, "Course", jsonl,
                                    store=store)
        lines = open(jsonl).readlines()
        with open(jsonl, "w") as handle:
            handle.writelines(reversed(lines))
        result, info = incremental_stream_validate(
            schema, sigma, "Course", jsonl, store=store)
        assert info["mode"] == "cold"
        assert store.stats.stale >= 1
        assert result.ok
        assert _witnesses(result) == _cold_witnesses(schema, sigma,
                                                     jsonl)

    def test_truncated_file_forces_cold(self, schema, sigma, store,
                                        jsonl):
        incremental_stream_validate(schema, sigma, "Course", jsonl,
                                    store=store)
        lines = open(jsonl).readlines()
        with open(jsonl, "w") as handle:
            handle.writelines(lines[:1])
        result, info = incremental_stream_validate(
            schema, sigma, "Course", jsonl, store=store)
        assert info["mode"] == "cold"
        assert info["elements_folded"] == 1

    def test_sigma_reorder_forces_cold_then_resumes(self, schema,
                                                    sigma, store,
                                                    jsonl):
        assert len(sigma) >= 2
        reordered = tuple(reversed(sigma))
        incremental_stream_validate(schema, sigma, "Course", jsonl,
                                    store=store)
        # same fingerprint, same source id — but plan indices differ
        assert stream_source_id(jsonl, "x", "Course") == \
            stream_source_id(jsonl, "x", "Course")
        result, info = incremental_stream_validate(
            schema, reordered, "Course", jsonl, store=store)
        assert info["mode"] == "cold"
        assert store.stats.stale >= 1
        _, again = incremental_stream_validate(
            schema, reordered, "Course", jsonl, store=store)
        assert again["mode"] == "resumed"

    def test_different_relations_checkpoint_independently(
            self, schema, sigma, store, jsonl, tmp_path):
        fp = "samefp"
        assert stream_source_id(jsonl, fp, "Course") != \
            stream_source_id(jsonl, fp, "Other")
        other = str(tmp_path / "other.jsonl")
        with open(other, "w") as handle:
            handle.write(open(jsonl).read())
        assert stream_source_id(jsonl, fp, "Course") != \
            stream_source_id(other, fp, "Course")


class TestBudgets:
    def test_exhausted_run_does_not_poison_the_checkpoint(
            self, schema, sigma, store, jsonl):
        incremental_stream_validate(schema, sigma, "Course", jsonl,
                                    store=store)
        _append(jsonl, _clashing_element())
        result, info = incremental_stream_validate(
            schema, sigma, "Course", jsonl, store=store,
            budget=ResourceBudget(max_elements=0))
        assert result.budget_exhausted == "max_elements"
        assert not info["persisted"]
        # the checkpoint still points at the last complete run, so a
        # full-budget retry folds the append and matches cold
        result, info = incremental_stream_validate(
            schema, sigma, "Course", jsonl, store=store)
        assert info["mode"] == "resumed"
        assert info["elements_folded"] == 1
        assert _witnesses(result) == _cold_witnesses(schema, sigma,
                                                     jsonl)

    def test_cold_exhausted_run_persists_nothing(self, schema, sigma,
                                                 store, jsonl):
        result, info = incremental_stream_validate(
            schema, sigma, "Course", jsonl, store=store,
            budget=ResourceBudget(max_elements=1))
        assert result.budget_exhausted == "max_elements"
        assert not info["persisted"]
        assert store.summary()["stream_sources"] == 0

    def test_resume_with_spilling_budget_matches_cold(
            self, schema, sigma, store, jsonl):
        incremental_stream_validate(
            schema, sigma, "Course", jsonl, store=store,
            budget=ResourceBudget(max_resident_rows=1))
        _append(jsonl, _clashing_element())
        result, info = incremental_stream_validate(
            schema, sigma, "Course", jsonl, store=store,
            budget=ResourceBudget(max_resident_rows=1))
        assert info["mode"] == "resumed"
        assert _witnesses(result) == _cold_witnesses(schema, sigma,
                                                     jsonl)


def _course_file(tmp_path, name, courses, seed=3):
    """A satisfying scaled Course JSONL file; returns (path, rows)."""
    import random
    instance = workloads.scaled_course_instance(
        random.Random(seed), courses=courses, students_per_course=3,
        books_per_course=2)
    rows = [to_python(e) for e in iter_set_elements(
        instance.relation("Course"))]
    path = str(tmp_path / name)
    with open(path, "w") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return path, rows


def _append_rows(path, rows):
    with open(path, "a") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def _clash_rows(rows, count):
    """*count* fresh-key rows plus one root clash with ``rows[0]``."""
    fresh = [dict(row, cnum=f"new{index}", time=10_000 + index)
             for index, row in enumerate(rows[1:count + 1])]
    return fresh + [dict(rows[0], time=-1)]


class TestDeltaCheckpoint:
    """A resume reads and writes only the groups its lines touch."""

    def _count_writes(self, store, monkeypatch):
        written = []
        put = store.put_stream_source

        def counting(source_id, *, groups, **kwargs):
            groups = list(groups)
            written.append(sum(len(rows) for _, rows in groups))
            return put(source_id, groups=groups, **kwargs)
        monkeypatch.setattr(store, "put_stream_source", counting)
        return written

    def test_resume_writes_only_changed_groups(self, schema, sigma, store,
                                               tmp_path, monkeypatch):
        path, rows = _course_file(tmp_path, "base.jsonl", 200)
        written = self._count_writes(store, monkeypatch)
        incremental_stream_validate(schema, sigma, "Course", path,
                                    store=store)
        cold_rows = store.summary()["stream_groups"]
        assert written == [cold_rows]
        appended = _clash_rows(rows, 4)
        _append_rows(path, appended)
        result, info = incremental_stream_validate(
            schema, sigma, "Course", path, store=store)
        assert info["mode"] == "resumed" and info["persisted"]
        assert info["elements_folded"] == len(appended)
        # every appended element binds at most one key per root plan
        assert 0 < written[1] <= len(appended) * len(sigma)
        assert store.summary()["stream_groups"] > cold_rows
        assert _witnesses(result) == _cold_witnesses(schema, sigma, path)

    def test_delta_over_a_moved_checkpoint_is_refused(
            self, schema, sigma, store, tmp_path, monkeypatch):
        """Two resumes from one checkpoint: the one that commits second
        finds the watermark moved, writes nothing and answers cold."""
        import warnings
        path, rows = _course_file(tmp_path, "base.jsonl", 60)
        incremental_stream_validate(schema, sigma, "Course", path,
                                    store=store)
        appended = _clash_rows(rows, 3)
        _append_rows(path, appended)
        put = store.put_stream_source

        def racing_put(source_id, **kwargs):
            with CacheStore(store.cache_dir) as other:
                _, info = incremental_stream_validate(
                    schema, sigma, "Course", path, store=other)
            assert info["mode"] == "resumed" and info["persisted"]
            return put(source_id, **kwargs)
        monkeypatch.setattr(store, "put_stream_source", racing_put)
        stale = store.stats.stale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, info = incremental_stream_validate(
                schema, sigma, "Course", path, store=store)
        assert info["mode"] == "cold" and not info["persisted"]
        assert store.stats.stale == stale + 1
        assert store.stats.errors == 0
        assert _witnesses(result) == _cold_witnesses(schema, sigma, path)

        monkeypatch.setattr(store, "put_stream_source", put)
        _append_rows(path, [dict(rows[1], time=-2)])
        result, info = incremental_stream_validate(
            schema, sigma, "Course", path, store=store)
        assert info["mode"] == "resumed"
        assert info["start_line"] == len(rows) + len(appended)
        assert _witnesses(result) == _cold_witnesses(schema, sigma, path)

    def test_witness_elements_are_stored_once(self, schema, sigma, store,
                                              tmp_path):
        path, rows = _course_file(tmp_path, "base.jsonl", 120)
        incremental_stream_validate(schema, sigma, "Course", path,
                                    store=store)
        summary = store.summary()
        # each element backs about two groups, but is written once
        assert summary["stream_elements"] <= len(rows)
        assert summary["stream_groups"] > summary["stream_elements"]

    def test_spilling_checkpoint_keeps_the_residency_cap(
            self, schema, sigma, store, tmp_path):
        path, rows = _course_file(tmp_path, "spill.jsonl", 300)
        spill_root = str(tmp_path / "spill")
        cold, info = incremental_stream_validate(
            schema, sigma, "Course", path, store=store,
            budget=ResourceBudget(max_resident_rows=20),
            spill_root=spill_root)
        assert info["mode"] == "cold" and info["persisted"]
        assert cold.stats.spills > 0
        assert cold.stats.peak_resident_rows <= 20
        assert _witnesses(cold) == _cold_witnesses(schema, sigma, path)
        _append_rows(path, _clash_rows(rows, 40))
        resumed, info = incremental_stream_validate(
            schema, sigma, "Course", path, store=store,
            budget=ResourceBudget(max_resident_rows=20),
            spill_root=spill_root)
        assert info["mode"] == "resumed" and info["persisted"]
        assert resumed.stats.spills > 0
        assert resumed.stats.peak_resident_rows <= 20
        assert not resumed.ok
        assert _witnesses(resumed) == _cold_witnesses(schema, sigma, path)
        assert os.listdir(spill_root) == []


# -------------------------------------------------------------- faults
# The CLI entry point, so stdout and the stderr line are what a user
# sees; cold stdout is a plain ``check --stream`` of the same file.


def _cli(argv, capsys):
    from repro.cli import main
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def stream_case(tmp_path, schema, sigma):
    """(bundle, path, cache dir, rows): a checkpointed 60-line file."""
    from repro.io import dump_bundle
    bundle = tmp_path / "bundle.json"
    bundle.write_text(dump_bundle(schema, sigma))
    path, rows = _course_file(tmp_path, "course.jsonl", 60)
    return str(bundle), path, str(tmp_path / "cache"), rows


def _incremental(case):
    bundle, path, cache, _ = case
    return ["check", bundle, "--stream", path, "--incremental",
            "--cache-dir", cache]


class TestCheckpointFaults:
    """A checkpoint write that dies partway leaves the previous
    checkpoint in force and the answer exact."""

    def test_write_error_mid_transaction_keeps_previous_checkpoint(
            self, stream_case, monkeypatch, capsys, tmp_path):
        import warnings
        from repro.store import CacheWarning
        bundle, path, cache, rows = stream_case
        assert _cli(_incremental(stream_case), capsys)[0] == 0
        appended = _clash_rows(rows, 3)
        _append_rows(path, appended)
        cold = _cli(["check", bundle, "--stream", path], capsys)

        put = CacheStore.put_stream_source
        aborted = []

        def failing_put(self, source_id, **kwargs):
            executed = []
            self._conn.set_trace_callback(executed.append)

            def abort():
                # interrupt the statement after the first group row:
                # sqlite3 raises OperationalError inside the write
                hit = any("INTO stream_groups" in sql for sql in executed)
                if hit:
                    aborted.append(True)
                return hit
            self._conn.set_progress_handler(abort, 1)
            return put(self, source_id, **kwargs)
        monkeypatch.setattr(CacheStore, "put_stream_source", failing_put)
        metrics = tmp_path / "metrics.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            failed = _cli(_incremental(stream_case)
                          + ["--metrics-json", str(metrics)], capsys)
        assert aborted
        assert failed[:2] == cold[:2]
        assert [w.category for w in caught] == [CacheWarning]
        cache_stats = json.loads(metrics.read_text())["sections"]["cache"]
        assert cache_stats["errors"] == 1
        assert os.listdir(os.path.join(cache, "tmp")) == []

        monkeypatch.setattr(CacheStore, "put_stream_source", put)
        code, out, err = _cli(_incremental(stream_case), capsys)
        assert (code, out) == cold[:2]
        assert err == (f"incremental: resumed at line {len(rows)}/"
                       f"{len(rows) + len(appended)}, {len(appended)} "
                       "element(s) folded\n")
        assert os.listdir(os.path.join(cache, "tmp")) == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sigkill_inside_checkpoint_write(self, stream_case, capsys,
                                             seed):
        import random
        import signal
        import subprocess
        import sys
        from pathlib import Path
        bundle, path, cache, rows = stream_case
        assert _cli(_incremental(stream_case), capsys)[0] == 0
        appended = _clash_rows(rows, 3)
        _append_rows(path, appended)
        cold = _cli(["check", bundle, "--stream", path], capsys)
        script = (
            "import os, signal, sys\n"
            "from repro.cli import main\n"
            "from repro.store import CacheStore\n"
            "kill_at = int(sys.argv[1])\n"
            "put = CacheStore.put_stream_source\n"
            "def dying_put(self, source_id, **kwargs):\n"
            "    seen = []\n"
            "    def trace(sql):\n"
            "        if 'INTO stream_' in sql:\n"
            "            seen.append(sql)\n"
            "            if len(seen) >= kill_at:\n"
            "                os.kill(os.getpid(), signal.SIGKILL)\n"
            "    self._conn.set_trace_callback(trace)\n"
            "    return put(self, source_id, **kwargs)\n"
            "CacheStore.put_stream_source = dying_put\n"
            "sys.exit(main(sys.argv[2:]))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        kill_at = random.Random(seed).randint(1, 6)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(kill_at)]
            + _incremental(stream_case),
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        code, out, err = _cli(_incremental(stream_case), capsys)
        assert (code, out) == cold[:2]
        assert err == (f"incremental: resumed at line {len(rows)}/"
                       f"{len(rows) + len(appended)}, {len(appended)} "
                       "element(s) folded\n")
        assert os.listdir(os.path.join(cache, "tmp")) == []
        with CacheStore(cache) as store:
            assert store.integrity_check()


class TestHashSeeds:
    @pytest.mark.parametrize("budget", [(), ("--max-rows", "7")],
                             ids=["resident", "spilling"])
    def test_checkpoint_resumes_under_another_hash_seed(
            self, stream_case, capsys, budget):
        """A checkpoint written by a process under one hash seed resumes
        in a process under another with stdout equal to a cold run:
        nothing the store keeps depends on ``hash()``."""
        import subprocess
        import sys
        from pathlib import Path
        bundle, path, cache, rows = stream_case
        src = Path(__file__).resolve().parents[1] / "src"
        argv = _incremental(stream_case) + list(budget)

        def run(seed):
            env = dict(os.environ, PYTHONPATH=str(src),
                       PYTHONHASHSEED=str(seed))
            return subprocess.run([sys.executable, "-m", "repro", *argv],
                                  capture_output=True, text=True, env=env,
                                  timeout=120)

        first = run(1)
        assert first.returncode == 0, first.stderr
        appended = _clash_rows(rows, 3)
        _append_rows(path, appended)
        resumed = run(2)
        cold = _cli(["check", bundle, "--stream", path], capsys)
        assert resumed.stderr == (
            f"incremental: resumed at line {len(rows)}/"
            f"{len(rows) + len(appended)}, {len(appended)} "
            "element(s) folded\n")
        assert (resumed.returncode, resumed.stdout) == cold[:2]
        assert cold[0] == 1


#: The table layout of store schema version 3, which also kept
#: compiled validator plans and froze checkpoint values.
_SCHEMA_3_TABLES = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE closure_memo (fingerprint TEXT NOT NULL,
    relation TEXT NOT NULL, lhs TEXT NOT NULL, closure TEXT NOT NULL,
    PRIMARY KEY (fingerprint, relation, lhs));
CREATE TABLE plans (fingerprint TEXT PRIMARY KEY, payload BLOB NOT NULL);
CREATE TABLE dense_tables (fingerprint TEXT NOT NULL,
    relation TEXT NOT NULL, payload BLOB NOT NULL,
    PRIMARY KEY (fingerprint, relation));
CREATE TABLE stream_sources (source_id TEXT PRIMARY KEY,
    fingerprint TEXT NOT NULL, relation TEXT NOT NULL,
    line_count INTEGER NOT NULL, content_hash TEXT NOT NULL,
    mtime REAL NOT NULL, state BLOB NOT NULL);
CREATE TABLE stream_groups (source_id TEXT NOT NULL,
    plan INTEGER NOT NULL, key BLOB NOT NULL, violating INTEGER NOT NULL,
    agg BLOB NOT NULL, PRIMARY KEY (source_id, plan, key)) WITHOUT ROWID;
CREATE INDEX stream_groups_violating
    ON stream_groups (source_id, plan) WHERE violating = 1;
CREATE TABLE stream_elements (source_id TEXT NOT NULL,
    id INTEGER NOT NULL, element BLOB NOT NULL,
    PRIMARY KEY (source_id, id)) WITHOUT ROWID;
"""


def _legacy_db(cache, version, tables, schema, sigma, path, line_count):
    """Start a database in an older layout: *tables*, the meta rows of
    schema *version*, and a ``stream_sources`` row whose watermark
    covers the first *line_count* lines of *path* — one a current
    store would resume from.  Returns the open connection and the
    source id."""
    import hashlib
    import pickle
    import sqlite3
    from repro.inference.session import sigma_fingerprint
    from repro.store import DB_FILENAME
    from repro.values.canonical import CODEC_VERSION
    os.makedirs(cache)
    with open(path, "rb") as handle:
        prefix = b"".join(handle.readlines()[:line_count])
    fingerprint = sigma_fingerprint(schema, sigma)
    source_id = stream_source_id(path, fingerprint, "Course")
    state = {"seq": 0, "nested": [], "anchor_counts": {},
             "sigma": [str(nfd) for nfd in sigma]}
    conn = sqlite3.connect(os.path.join(cache, DB_FILENAME))
    conn.executescript(tables)
    conn.executemany("INSERT INTO meta VALUES (?, ?)",
                     [("schema_version", str(version)),
                      ("codec_version", CODEC_VERSION)])
    conn.execute(
        "INSERT INTO stream_sources VALUES (?, ?, ?, ?, ?, ?, ?)",
        (source_id, fingerprint, "Course", line_count,
         hashlib.sha256(prefix).hexdigest(), 0.0, pickle.dumps(state)))
    return conn, source_id


def _freeze(data):
    """The form schema-3 checkpoints stored values in: a scalar as
    itself, a record as ``("R", ((label, frozen), ...))``, a set as
    ``("S", (frozen, ...))`` in ``repr`` order."""
    from repro.values import to_python, value_of_json
    if type(data) is dict:
        return ("R", tuple((label, _freeze(sub))
                           for label, sub in data.items()))
    if type(data) is list:
        return ("S", tuple(_freeze(item) for item in to_python(
            value_of_json(data))))
    return data


def _to_schema_3(cache):
    """Rewrite a current checkpoint database in place into the schema-3
    layout: frozen group rows and elements, a ``plans`` table with a
    row, and schema version 3 in ``meta``.  Returns how many rows the
    freezing changed."""
    import pickle
    import sqlite3
    from repro.store import DB_FILENAME
    conn = sqlite3.connect(os.path.join(cache, DB_FILENAME))
    try:
        changed = 0
        for source_id, plan, key, blob in conn.execute(
                "SELECT source_id, plan, key, agg FROM stream_groups"
        ).fetchall():
            row = pickle.loads(blob)
            old = [tuple(_freeze(part) for part in row[0]), row[1],
                   _freeze(row[2]), row[3], row[4], _freeze(row[5]),
                   row[6]]
            changed += old != row
            conn.execute(
                "UPDATE stream_groups SET agg = ? WHERE source_id = ?"
                " AND plan = ? AND key = ?",
                (pickle.dumps(old), source_id, plan, key))
        for source_id, elem_id, blob in conn.execute(
                "SELECT source_id, id, element FROM stream_elements"
        ).fetchall():
            element = pickle.loads(blob)
            old = _freeze(element)
            changed += old != element
            conn.execute(
                "UPDATE stream_elements SET element = ? WHERE "
                "source_id = ? AND id = ?",
                (pickle.dumps(old), source_id, elem_id))
        conn.execute("CREATE TABLE plans (fingerprint TEXT PRIMARY KEY,"
                     " payload BLOB NOT NULL)")
        conn.execute("INSERT INTO plans VALUES (?, ?)",
                     ("f" * 64, pickle.dumps(((), {}, 0))))
        conn.execute("UPDATE meta SET value = '3' "
                     "WHERE key = 'schema_version'")
        conn.commit()
    finally:
        conn.close()
    return changed


def _to_schema_4(cache):
    """Rewrite a current checkpoint database in place into the schema-4
    form: every emission sequence of a group row tagged ``(0, n)``, as
    the single-shard engine wrote them, and schema version 4 in
    ``meta``.  Returns how many rows it rewrote."""
    import pickle
    import sqlite3
    from repro.store import DB_FILENAME
    conn = sqlite3.connect(os.path.join(cache, DB_FILENAME))
    try:
        rows = conn.execute(
            "SELECT source_id, plan, key, agg FROM stream_groups"
        ).fetchall()
        for source_id, plan, key, blob in rows:
            row = pickle.loads(blob)
            row[1] = (0, row[1])
            if row[4] is not None:
                row[4] = (0, row[4])
            conn.execute(
                "UPDATE stream_groups SET agg = ? WHERE source_id = ?"
                " AND plan = ? AND key = ?",
                (pickle.dumps(row), source_id, plan, key))
        conn.execute("UPDATE meta SET value = '4' "
                     "WHERE key = 'schema_version'")
        conn.commit()
    finally:
        conn.close()
    return len(rows)


def _layout(cache):
    """``(schema_version, table names)`` of the database in *cache*."""
    import sqlite3
    from repro.store import DB_FILENAME
    conn = sqlite3.connect(os.path.join(cache, DB_FILENAME))
    try:
        version = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()[0]
        tables = {name for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
    finally:
        conn.close()
    return version, tables


class TestOldLayout:
    def test_version_2_cache_takes_the_cold_path(self, stream_case,
                                                 schema, sigma, capsys):
        """A cache left by the per-plan-blob layout (schema version 2),
        with a watermark that would otherwise resume, is dropped: the
        run is cold, exact, and leaves a current store behind."""
        import pickle
        import sqlite3
        from repro.store import DB_FILENAME, SCHEMA_VERSION
        bundle, path, cache, rows = stream_case
        conn, source_id = _legacy_db(
            cache, 2,
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
            "CREATE TABLE stream_sources (source_id TEXT PRIMARY KEY,"
            " fingerprint TEXT NOT NULL, relation TEXT NOT NULL,"
            " line_count INTEGER NOT NULL, content_hash TEXT NOT NULL,"
            " mtime REAL NOT NULL, state BLOB NOT NULL);"
            "CREATE TABLE stream_groups (source_id TEXT NOT NULL,"
            " nfd TEXT NOT NULL, groups INTEGER NOT NULL,"
            " rows BLOB NOT NULL, PRIMARY KEY (source_id, nfd));",
            schema, sigma, path, len(rows))
        conn.execute(
            "INSERT INTO stream_groups VALUES (?, ?, ?, ?)",
            (source_id, f"0:{sigma[0]}", 1,
             pickle.dumps([(b"k", [("x",), (0, 1), 1, None, None, None,
                                   None])])))
        conn.commit()
        conn.close()

        _append_rows(path, _clash_rows(rows, 2))
        total = len(rows) + 3
        cold = _cli(["check", bundle, "--stream", path], capsys)
        code, out, err = _cli(_incremental(stream_case), capsys)
        assert (code, out) == cold[:2]
        assert err == (f"incremental: cold at line 0/{total}, {total} "
                       "element(s) folded\n")
        conn = sqlite3.connect(os.path.join(cache, DB_FILENAME))
        try:
            columns = [row[1] for row in conn.execute(
                "PRAGMA table_info(stream_groups)")]
        finally:
            conn.close()
        assert _layout(cache)[0] == str(SCHEMA_VERSION) == "6"
        assert columns == ["source_id", "plan", "key", "violating", "agg"]
        with CacheStore(cache) as store:
            _, info = incremental_stream_validate(
                schema, sigma, "Course", path, store=store)
        assert info["mode"] == "resumed"

    def test_version_4_cache_with_tagged_sequences_takes_the_cold_path(
            self, stream_case, capsys, tmp_path):
        """A schema-4 checkpoint, whose group rows carry ``(0, n)``
        emission sequences where the engine now keeps ints, is dropped
        on open and counted stale: the run is cold, exact, and leaves a
        current store that the next append resumes."""
        bundle, path, cache, rows = stream_case
        assert _cli(_incremental(stream_case), capsys)[0] == 0
        assert _to_schema_4(cache) > 0
        appended = _clash_rows(rows, 2)
        _append_rows(path, appended)
        total = len(rows) + len(appended)
        cold = _cli(["check", bundle, "--stream", path], capsys)
        metrics = tmp_path / "metrics.json"
        code, out, err = _cli(_incremental(stream_case)
                              + ["--metrics-json", str(metrics)], capsys)
        assert (code, out) == cold[:2] and code == 1
        assert err == (f"incremental: cold at line 0/{total}, {total} "
                       "element(s) folded\n")
        assert json.loads(metrics.read_text())["sections"]["cache"][
            "stale"] == 1
        assert _layout(cache)[0] == "6"
        _append_rows(path, _clash_rows(rows, 1)[:1])
        cold = _cli(["check", bundle, "--stream", path], capsys)
        code, out, err = _cli(_incremental(stream_case), capsys)
        assert (code, out) == cold[:2]
        assert err.startswith(f"incremental: resumed at line {total}/")

    def test_version_5_cache_drops_its_implication_tables(
            self, stream_case, capsys, tmp_path):
        """A schema-5 store — a current checkpoint beside the retired
        ``closure_memo`` and ``dense_tables`` rows — is dropped whole
        on open and counted stale: the run is cold and exact, the store
        it leaves has neither table, and the next append resumes from
        its schema-6 checkpoint."""
        import sqlite3
        from repro.store import DB_FILENAME
        bundle, path, cache, rows = stream_case
        assert _cli(_incremental(stream_case), capsys)[0] == 0
        conn = sqlite3.connect(os.path.join(cache, DB_FILENAME))
        try:
            conn.executescript(
                "CREATE TABLE closure_memo (fingerprint TEXT NOT NULL,"
                " relation TEXT NOT NULL, lhs TEXT NOT NULL,"
                " closure TEXT NOT NULL,"
                " PRIMARY KEY (fingerprint, relation, lhs));"
                "CREATE TABLE dense_tables (fingerprint TEXT NOT NULL,"
                " relation TEXT NOT NULL, payload BLOB NOT NULL,"
                " PRIMARY KEY (fingerprint, relation));"
                "INSERT INTO closure_memo VALUES ('f', 'Course', 'cnum',"
                " 'cnum');"
                "INSERT INTO dense_tables VALUES ('f', 'Course', x'00');"
                "UPDATE meta SET value = '5'"
                " WHERE key = 'schema_version';")
        finally:
            conn.close()
        appended = _clash_rows(rows, 2)
        _append_rows(path, appended)
        total = len(rows) + len(appended)
        cold = _cli(["check", bundle, "--stream", path], capsys)
        metrics = tmp_path / "metrics.json"
        code, out, err = _cli(_incremental(stream_case)
                              + ["--metrics-json", str(metrics)], capsys)
        assert (code, out) == cold[:2] and code == 1
        assert err == (f"incremental: cold at line 0/{total}, {total} "
                       "element(s) folded\n")
        assert json.loads(metrics.read_text())["sections"]["cache"][
            "stale"] == 1
        assert _layout(cache) == ("6", {
            "meta", "stream_sources", "stream_groups", "stream_elements"})
        _append_rows(path, _clash_rows(rows, 1)[:1])
        cold = _cli(["check", bundle, "--stream", path], capsys)
        code, out, err = _cli(_incremental(stream_case), capsys)
        assert (code, out) == cold[:2]
        assert err.startswith(f"incremental: resumed at line {total}/")

    def test_version_3_cache_drops_its_plan_table(self, stream_case,
                                                  schema, sigma, capsys):
        """A schema-3 cache — a ``plans`` row and a checkpoint whose
        watermark would resume — is dropped whole on open: the run is
        cold and exact, and the current store it leaves has no
        ``plans`` table."""
        import pickle
        bundle, path, cache, rows = stream_case
        conn, source_id = _legacy_db(cache, 3, _SCHEMA_3_TABLES, schema,
                                     sigma, path, len(rows))
        conn.execute("INSERT INTO plans VALUES (?, ?)",
                     ("f" * 64, pickle.dumps(((), {}, 0))))
        conn.execute(
            "INSERT INTO stream_groups VALUES (?, ?, ?, ?, ?)",
            (source_id, 0, b"k", 0,
             pickle.dumps([("x",), (0, 1), "t", 1, None, None, None])))
        conn.commit()
        conn.close()
        assert "plans" in _layout(cache)[1]

        _append_rows(path, _clash_rows(rows, 2))
        total = len(rows) + 3
        cold = _cli(["check", bundle, "--stream", path], capsys)
        code, out, err = _cli(_incremental(stream_case), capsys)
        assert (code, out) == cold[:2] and code == 1
        assert err == (f"incremental: cold at line 0/{total}, {total} "
                       "element(s) folded\n")
        version, tables = _layout(cache)
        assert version == "6"
        assert "plans" not in tables

    @pytest.mark.parametrize("budget", [(), ("--max-rows", "7")],
                             ids=["resident", "spilling"])
    def test_freeze_value_checkpoint_resumes_exactly(self, stream_case,
                                                     capsys, budget):
        """A checkpoint in the schema-3 form — keys, RHS values and
        elements frozen, sets in ``repr`` order, a ``plans`` table
        beside it — is not resumed after the bump to schema 4 (nor
        after later ones): the run is cold, with stdout equal to a cold
        run."""
        bundle, path, cache, rows = stream_case

        def permuted(students):
            return [{"grade": s["grade"], "sid": s["sid"], "age": s["age"]}
                    for s in reversed(students)]

        rows[3] = dict(rows[3], students=permuted(rows[3]["students"]))
        prefix = rows + [dict(rows[1], time=-5),
                         dict(rows[2], students=rows[2]["students"][:1])]
        with open(path, "w") as handle:
            handle.write("".join(json.dumps(row) + "\n" for row in prefix))
        argv = _incremental(stream_case) + list(budget)
        assert _cli(argv, capsys)[0] == 1
        assert _to_schema_3(cache) >= 2  # the rewrite is not the identity

        _append_rows(path, [
            dict(rows[3], students=list(reversed(rows[3]["students"]))),
            dict(rows[3], time=-7),
            dict(rows[4], students=permuted(rows[4]["students"])),
            dict(rows[5], students=rows[5]["students"][1:])])
        total = len(prefix) + 4
        cold = _cli(["check", bundle, "--stream", path], capsys)
        code, out, err = _cli(argv, capsys)
        assert err == (f"incremental: cold at line 0/{total}, {total} "
                       "element(s) folded\n")
        assert (code, out) == cold[:2] and code == 1
        assert _layout(cache) == ("6", {
            "meta", "stream_sources", "stream_groups", "stream_elements"})
