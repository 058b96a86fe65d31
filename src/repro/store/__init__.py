"""Persistent SQLite cache layer behind the in-memory engines.

One WAL-mode SQLite database (``repro-cache.sqlite`` under a
user-chosen cache directory) persists three kinds of derived state,
all keyed by the order-independent Σ fingerprint:

* **closure memo** — finished closure computations of
  :class:`~repro.inference.session.ImplicationSession`; a warm
  ``implies``/``closure``/``keys`` run answers from the store with
  *zero* saturation rule applications;
* **dense closure tables** — the interned bitset tables of
  :mod:`repro.inference.dense`, which a session with a store adopts
  instead of compiling;
* **stream checkpoints** — group-table aggregates and witness elements
  in the streaming engine's plain-JSON form, plus a source watermark,
  via :mod:`.stream_cache`; ``check --stream --incremental`` folds only
  appended lines.

The store is an *accelerator*, never an authority: every read path
tolerates a missing, corrupt, version-mismatched, or concurrently
rewritten database by degrading to the cold computation with identical
results and exit codes (a corrupt one with a :class:`CacheWarning` on
stderr; a version mismatch is dropped silently and counted stale).
Writers share one database safely under WAL (last writer wins per
row); parallel ``keys`` workers open it read-only, once per process.
"""

from .. import _lazy

__all__ = _lazy.exports(__name__, {
    "cache_store": (
        "CACHE_DIR_ENV CacheStats CacheStore CacheWarning "
        "DB_FILENAME SCHEMA_VERSION default_spill_root open_store "
        "resolve_cache_dir"
    ),
    "stream_cache": "incremental_stream_validate stream_source_id",
})
