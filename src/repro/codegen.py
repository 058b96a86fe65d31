"""Functions compiled from generated Python source.

The streaming hot path runs two generated functions per element: the
JSONL reader's type checker (:mod:`repro.io.stream`) and the engine's
fused binder (:mod:`repro.nfd.stream_validate`).  Each is generated
from its schema (and Σ) alone, so equal inputs give equal source text
in every process, whatever the hash seed.  Nothing is compiled at
import time: the code objects are compiled when a reader or an engine
is built, and memoized here by their source text, so rebuilding an
engine for the same (schema, Σ) — every resume of an incremental run,
every bundle ``check`` a daemon answers — compiles nothing.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["build_function"]


@lru_cache(maxsize=64)
def _code(source: str):
    return compile(source, "<generated>", "exec")


def build_function(source: str, name: str, namespace: dict):
    """The function *name* defined by *source*, with the constants the
    source names (*namespace*) as its globals."""
    scope = dict(namespace)
    exec(_code(source), scope)
    return scope[name]
