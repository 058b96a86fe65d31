"""Persistent SQLite cache layer for incremental streaming.

One WAL-mode SQLite database (``repro-cache.sqlite`` under a
user-chosen cache directory) persists **stream checkpoints** —
group-table aggregates and witness elements in the streaming engine's
plain-JSON form, plus a source watermark, via :mod:`.stream_cache` —
so ``check --stream --incremental`` folds only appended lines.  The
directory's ``tmp/`` is the spill root of ``check --stream``.  Nothing
else is kept there: an implication or closure query is one saturation
of the dense kernel, cheaper to recompute than to read back.

The store is an *accelerator*, never an authority: every read path
tolerates a missing, corrupt, version-mismatched, or concurrently
rewritten database by degrading to the cold computation with identical
results and exit codes (a corrupt one with a :class:`CacheWarning` on
stderr; a version mismatch is dropped silently and counted stale).
Writers share one database safely under WAL (last writer wins per
row).
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
