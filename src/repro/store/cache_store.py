"""A WAL-mode SQLite persistence layer for streaming checkpoints.

``check --stream --incremental`` folds only the lines appended to a
JSONL source since its last run, and the group-table aggregates it
folds them into must survive the process.  :class:`CacheStore` is that
disk layer: one SQLite file per cache directory, in WAL journal mode so
concurrent readers never block the single writer, holding the
``stream_sources`` / ``stream_groups`` / ``stream_elements`` tables —
per-source watermarks, one aggregate row per ``(source, plan,
canonical key bytes)`` group, and the witness elements those rows point
to by id, all in the streaming engine's plain-JSON form (see
:mod:`repro.store.stream_cache`).  A resume reads only the rows its
appended lines touch plus the violating rows (a partial index), and
upserts only the rows whose aggregate changed.  The cache directory's
``tmp/`` is also where streaming spills land
(:func:`default_spill_root`).

Implications are not stored: a closure query is one saturation of the
dense kernel, cheaper than reading a stored answer back.

Safety model
------------

The store is an *accelerator*, never an authority: every read can miss
and every failure degrades to the cold path.

* the DB carries a schema version and the canonical codec version
  (:data:`repro.values.canonical.CODEC_VERSION`) in its ``meta`` table;
  a mismatch drops every table and reinitializes the store;
* a corrupt or unreadable DB marks the store *broken*: one
  ``CacheWarning`` on stderr, then every read misses and every write is
  dropped — callers never see an exception out of cache plumbing;
* writes use ``INSERT OR REPLACE`` inside immediate transactions with a
  busy timeout, so two processes racing on the same row resolve to
  last-writer-wins with no corruption (WAL guarantees readers see a
  consistent snapshot throughout).

:class:`CacheStats` counts hits / misses / stale entries / dropped
errors / writes and plugs into the :class:`~repro.obs.RunReport`
section protocol (section ``"cache"``).
"""

from __future__ import annotations

import os
import pickle
import sqlite3
import threading
import warnings
from typing import Any, Iterable, Iterator

from ..obs.report import Stats
from ..values.canonical import CODEC_VERSION

__all__ = ["CacheStore", "CacheStats", "CacheWarning",
           "resolve_cache_dir", "default_spill_root", "open_store",
           "DB_FILENAME", "SCHEMA_VERSION"]

#: Bump when the SQLite table layout, or the form of a stored row,
#: changes incompatibly (6: the closure memo and dense tables are gone).
SCHEMA_VERSION = 6

#: The database file created inside a cache directory.
DB_FILENAME = "repro-cache.sqlite"

#: Environment variable naming the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Milliseconds a writer waits on a locked database before giving up.
BUSY_TIMEOUT_MS = 30_000

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS stream_sources (
    source_id    TEXT PRIMARY KEY,
    fingerprint  TEXT NOT NULL,
    relation     TEXT NOT NULL,
    line_count   INTEGER NOT NULL,
    content_hash TEXT NOT NULL,
    mtime        REAL NOT NULL,
    state        BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS stream_groups (
    source_id TEXT NOT NULL,
    plan      INTEGER NOT NULL,
    key       BLOB NOT NULL,
    violating INTEGER NOT NULL,
    agg       BLOB NOT NULL,
    PRIMARY KEY (source_id, plan, key)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS stream_groups_violating
    ON stream_groups (source_id, plan) WHERE violating = 1;
CREATE TABLE IF NOT EXISTS stream_elements (
    source_id TEXT NOT NULL,
    id        INTEGER NOT NULL,
    element   BLOB NOT NULL,
    PRIMARY KEY (source_id, id)
) WITHOUT ROWID;
"""

#: Keys per point-read statement (well under SQLite's variable limit).
_POINT_BATCH = 500

#: The tables a version mismatch drops and ``clear`` empties.
_DATA_TABLES = ("stream_sources", "stream_groups", "stream_elements")

#: Tables earlier schema versions had and this one does not; a version
#: mismatch drops them too, so an upgraded database keeps none.
_LEGACY_TABLES = ("plans", "closure_memo", "dense_tables")


class CacheWarning(UserWarning):
    """A cache store degraded to the cold path (never an error)."""


class _CheckpointMoved(Exception):
    """A delta checkpoint's base watermark is no longer the stored one."""


def resolve_cache_dir(explicit: str | None = None) -> str | None:
    """The effective cache directory: an explicit ``--cache-dir`` wins,
    then the ``REPRO_CACHE_DIR`` environment variable; ``None`` means
    caching is off entirely (no store is opened, nothing is written)."""
    if explicit:
        return explicit
    return os.environ.get(CACHE_DIR_ENV) or None


def default_spill_root(cache_dir: str | None = None) -> str | None:
    """The directory streaming spill files should land in: ``tmp/``
    under the effective cache directory, created on demand — or
    ``None`` (the system temp default) when no cache directory is
    configured.  Large spills thereby land on the operator-chosen
    volume instead of whatever backs ``/tmp``."""
    root = resolve_cache_dir(cache_dir)
    if root is None:
        return None
    path = os.path.join(root, "tmp")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError:
        return None
    return path


def open_store(cache_dir: str | None) -> "CacheStore | None":
    """Open the store under *cache_dir*, or ``None`` when caching is
    off.  Never raises: an unusable directory or database yields a
    broken (all-miss) store plus one warning."""
    resolved = resolve_cache_dir(cache_dir)
    if resolved is None:
        return None
    return CacheStore(resolved)


class CacheStats(Stats):
    """Hit / miss / stale / error counters of one store handle.

    ``stale`` counts entries that existed but were unusable (a stream
    watermark that no longer matches its file, a database of another
    schema version); ``errors`` counts operations dropped because the
    database was broken or raised.  All counters are cumulative.
    """

    __slots__ = ("stream_hits", "stream_misses", "stale", "errors",
                 "writes")
    TEXT = ("cache stats (persistent store):",
            "  stream: {stream_hits} hit(s)  {stream_misses} miss(es)",
            "  stale: {stale}  errors: {errors}  writes: {writes}")


class CacheStore:
    """One handle on the persistent cache database (see module doc).

    Example::

        store = CacheStore("/var/cache/repro")
        store.put_stream_source(source_id, fingerprint=fp, ...)
        store.get_stream_source(source_id)      # across processes
        store.stats.to_text()
        store.close()

    One handle may be shared across threads: every connection touch is
    serialized behind a lock.
    """

    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir
        self.path = os.path.join(cache_dir, DB_FILENAME)
        self.stats = CacheStats()
        self._conn: sqlite3.Connection | None = None
        self._lock = threading.RLock()
        self._broken = False
        self._warned = False
        try:
            self._open()
        except sqlite3.Error as exc:
            self._mark_broken(f"cannot open cache db {self.path!r}: {exc}")
        except OSError as exc:
            self._mark_broken(
                f"cannot use cache dir {cache_dir!r}: {exc}")

    # -- lifecycle ---------------------------------------------------------

    def _open(self) -> None:
        os.makedirs(self.cache_dir, exist_ok=True)
        conn = sqlite3.connect(self.path,
                               timeout=BUSY_TIMEOUT_MS / 1000.0,
                               check_same_thread=False)
        conn.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")
        conn.execute("PRAGMA journal_mode = WAL")
        conn.execute("PRAGMA synchronous = NORMAL")
        initialized = conn.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' "
            "AND name = 'meta'").fetchone() is not None
        if initialized and self._versions_ok(conn):
            # already current: no write transaction, no write lock
            self._conn = conn
            return
        if initialized:
            # schema or codec moved on: every entry is unreadable under
            # the new encoding, so drop the lot and start clean
            self.stats.stale += 1
            for table in _DATA_TABLES + _LEGACY_TABLES + ("meta",):
                conn.execute(f"DROP TABLE IF EXISTS {table}")
        conn.executescript(_TABLES)
        conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            ("schema_version", str(SCHEMA_VERSION)))
        conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            ("codec_version", CODEC_VERSION))
        conn.commit()
        self._conn = conn

    def _versions_ok(self, conn: sqlite3.Connection) -> bool:
        try:
            rows = dict(conn.execute(
                "SELECT key, value FROM meta WHERE key IN "
                "('schema_version', 'codec_version')"))
        except sqlite3.Error:
            return False
        return (rows.get("schema_version") == str(SCHEMA_VERSION)
                and rows.get("codec_version") == CODEC_VERSION)

    def _mark_broken(self, message: str) -> None:
        self._broken = True
        self.stats.errors += 1
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"{message}; continuing without the persistent cache",
                CacheWarning, stacklevel=3)

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None

    def __enter__(self) -> "CacheStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @property
    def available(self) -> bool:
        """Can this handle currently serve reads?"""
        return self._conn is not None and not self._broken

    def __repr__(self) -> str:
        state = "broken" if self._broken else (
            "open" if self._conn is not None else "closed")
        return f"CacheStore({self.path!r}, {state})"

    # -- guarded execution -------------------------------------------------

    def _read(self, sql: str, params: tuple = ()) -> list:
        with self._lock:
            if not self.available:
                return []
            try:
                return list(self._conn.execute(sql, params))
            except sqlite3.Error as exc:
                self._mark_broken(f"cache read failed: {exc}")
                return []

    def _write(self, statements: Iterable[tuple[str, Any]]) -> bool:
        """Run *statements* in one immediate transaction, committed or
        rolled back whole.  A ``list`` of parameter tuples runs the
        statement ``executemany``.  *statements* may be a lazy stream
        that reads the store between statements: the transaction holds
        the write lock from its start, so those reads see exactly the
        rows the writes replace.  A read that breaks the store aborts
        the write (the closed connection raises) without a second
        warning."""
        with self._lock:
            if not self.available:
                return False
            conn = self._conn
            try:
                with conn:
                    conn.execute("BEGIN IMMEDIATE")
                    for sql, params in statements:
                        if type(params) is list:
                            conn.executemany(sql, params)
                        else:
                            conn.execute(sql, params)
            except sqlite3.Error as exc:
                if not self._broken:
                    self._mark_broken(f"cache write failed: {exc}")
                return False
            self.stats.writes += 1
            return True

    # -- staleness -------------------------------------------------------

    def note_stale(self) -> None:
        """Record that a cached entry existed but was unusable."""
        self.stats.stale += 1

    # -- stream source state ----------------------------------------------

    def get_stream_source(self, source_id: str) -> dict | None:
        """The watermark and pickled state of one streaming source, plus
        ``elements`` — the highest witness-element id stored for it (new
        elements are numbered after it) — or ``None`` on a miss."""
        rows = self._read(
            "SELECT fingerprint, relation, line_count, content_hash, "
            "mtime, state, (SELECT COALESCE(MAX(id), 0) "
            "FROM stream_elements WHERE source_id = ?1) "
            "FROM stream_sources WHERE source_id = ?1", (source_id,))
        if not rows:
            self.stats.stream_misses += 1
            return None
        fingerprint, relation, line_count, content_hash, mtime, blob, \
            elements = rows[0]
        try:
            state = pickle.loads(blob)
        except Exception:
            self.stats.stale += 1
            self.stats.stream_misses += 1
            return None
        self.stats.stream_hits += 1
        return {
            "fingerprint": fingerprint,
            "relation": relation,
            "line_count": line_count,
            "content_hash": content_hash,
            "mtime": mtime,
            "state": state,
            "elements": elements,
        }

    def iter_stream_groups(self, source_id: str, *, plan: int | None = None,
                           keys: Iterable[bytes] | None = None) \
            -> Iterator[tuple[int, bytes, list]]:
        """Yield ``(plan, key_bytes, aggregate)`` group rows of one
        source, whose witness slots hold element ids (see
        :meth:`get_stream_elements`): the groups of *plan* whose keys
        are in *keys* — point reads on the primary key, ``_POINT_BATCH``
        keys per statement — or, without *keys*, every violating group
        of the source, through the partial index.

        An unreadable row breaks the store rather than being skipped: a
        resume that silently lost a group would report wrong witnesses,
        while a broken store sends the caller down the cold path."""
        if keys is None:
            batches = [("SELECT plan, key, agg FROM stream_groups "
                        "WHERE source_id = ? AND violating = 1",
                        (source_id,))]
        else:
            keys = list(keys)
            batches = [
                ("SELECT plan, key, agg FROM stream_groups "
                 "WHERE source_id = ? AND plan = ? AND key IN "
                 f"({', '.join('?' * len(chunk))})",
                 (source_id, plan, *chunk))
                for chunk in (keys[i:i + _POINT_BATCH]
                              for i in range(0, len(keys), _POINT_BATCH))]
        for sql, params in batches:
            for plan_index, key, blob in self._read(sql, params):
                try:
                    agg = pickle.loads(blob)
                except Exception as exc:
                    self._mark_broken(f"cache row unreadable: {exc}")
                    return
                yield plan_index, key, agg

    def get_stream_elements(self, source_id: str,
                            ids: Iterable[int]) -> dict[int, Any]:
        """The witness elements *ids* of one source, as plain JSON data
        (point reads; an id the store lacks is simply absent from the
        result)."""
        ids = sorted(set(ids))
        found: dict[int, Any] = {}
        for i in range(0, len(ids), _POINT_BATCH):
            chunk = ids[i:i + _POINT_BATCH]
            for elem_id, blob in self._read(
                    "SELECT id, element FROM stream_elements WHERE "
                    "source_id = ? AND id IN "
                    f"({', '.join('?' * len(chunk))})",
                    (source_id, *chunk)):
                try:
                    found[elem_id] = pickle.loads(blob)
                except Exception as exc:
                    self._mark_broken(f"cache row unreadable: {exc}")
                    return {}
        return found

    def put_stream_source(self, source_id: str, *, fingerprint: str,
                          relation: str, line_count: int,
                          content_hash: str, mtime: float, state: dict,
                          groups: Iterable[tuple[str, list]],
                          base: tuple[int, str] | None = None) -> bool:
        """Write one source's watermark, state and group rows in a
        single transaction (a reader never sees a half-written source).

        *groups* pairs a plan label (``"<plan index>:<nfd text>"``) with
        a list of ``(key_bytes, violating, aggregate, new_elements)``
        rows: the aggregate is stored as given (its witness slots hold
        element ids), *violating* feeds the partial index, and
        *new_elements* lists the ``(id, element)`` pairs this row is
        first to reference.  *groups* may be lazy — it is consumed
        inside the transaction, so rows stream straight from the merge,
        and reads it makes see the rows this write replaces.

        Without *base* the source's rows and elements are replaced
        whole.  With it — the ``(line_count, content_hash)`` watermark
        the rows were folded over — they are upserted over the stored
        ones, but only while that watermark is still the stored one: a
        checkpoint another writer moved meanwhile refuses the write
        (counted stale, returns False) instead of mixing two deltas."""
        try:
            state_blob = pickle.dumps(state, pickle.HIGHEST_PROTOCOL)
        except Exception:
            self.stats.errors += 1
            return False
        dumps = pickle.dumps
        protocol = pickle.HIGHEST_PROTOCOL

        def statements():
            if base is None:
                for table in ("stream_groups", "stream_elements"):
                    yield (f"DELETE FROM {table} WHERE source_id = ?",
                           (source_id,))
            elif self._read(
                    "SELECT line_count, content_hash FROM stream_sources "
                    "WHERE source_id = ?", (source_id,)) != [tuple(base)]:
                raise _CheckpointMoved
            for label, rows in groups:
                plan = int(label.split(":", 1)[0])
                elements = []
                group_rows = []
                for key, violating, agg, new_elements in rows:
                    for elem_id, element in new_elements:
                        elements.append((source_id, elem_id,
                                         dumps(element, protocol)))
                    group_rows.append((source_id, plan, key, violating,
                                       dumps(agg, protocol)))
                if elements:
                    yield ("INSERT OR REPLACE INTO stream_elements "
                           "(source_id, id, element) VALUES (?, ?, ?)",
                           elements)
                yield ("INSERT OR REPLACE INTO stream_groups (source_id, "
                       "plan, key, violating, agg) "
                       "VALUES (?, ?, ?, ?, ?)", group_rows)
            yield ("INSERT OR REPLACE INTO stream_sources (source_id, "
                   "fingerprint, relation, line_count, content_hash, "
                   "mtime, state) VALUES (?, ?, ?, ?, ?, ?, ?)",
                   (source_id, fingerprint, relation, line_count,
                    content_hash, mtime, state_blob))

        try:
            return self._write(statements())
        except _CheckpointMoved:
            self.stats.stale += 1
            return False

    # -- maintenance (the `repro cache` subcommand) ------------------------

    def summary(self) -> dict:
        """Row counts and file size for ``repro cache stats``.
        ``stream_groups`` counts persisted group aggregates (one row
        each) and ``stream_elements`` the witness elements they share."""
        counts = {}
        for table in _DATA_TABLES:
            rows = self._read(f"SELECT COUNT(*) FROM {table}")
            counts[table] = rows[0][0] if rows else 0
        size = 0
        try:
            size = os.path.getsize(self.path)
        except OSError:
            pass
        return {
            "path": self.path,
            "available": self.available,
            "schema_version": SCHEMA_VERSION,
            "codec_version": CODEC_VERSION,
            "size_bytes": size,
            **counts,
        }

    def clear(self) -> bool:
        """Delete every cached entry (the versioned meta rows stay)."""
        return self._write([(f"DELETE FROM {table}", ())
                            for table in _DATA_TABLES])

    def vacuum(self) -> bool:
        with self._lock:
            if not self.available:
                return False
            try:
                self._conn.execute("VACUUM")
            except sqlite3.Error as exc:
                self._mark_broken(f"cache vacuum failed: {exc}")
                return False
            return True

    def integrity_check(self) -> bool:
        """SQLite's own ``PRAGMA integrity_check`` (used in tests)."""
        rows = self._read("PRAGMA integrity_check")
        return bool(rows) and rows[0][0] == "ok"
