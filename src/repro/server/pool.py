"""The daemon's warm state: a bounded pool of closure engines.

Every query request names its constraint universe by shipping a bundle;
the pool maps the bundle's canonical
:func:`~repro.inference.session.sigma_fingerprint` to a
:class:`PoolEntry` holding the parsed model objects plus one
:class:`~repro.inference.closure.ClosureEngine` (the entry's
*session*), built lazily with the fingerprint handed in and kept warm:
its query state answers a repeated closure without saturating.  A
``check`` keeps nothing here: it runs :func:`repro.service.check`,
which builds its stream engine per request, and
:attr:`PoolStats.validator_builds` counts those builds.

The pool is a **bounded LRU** (:attr:`EnginePool.max_entries`): the
least-recently-used fingerprint is evicted when a new one would exceed
the bound, and its cumulative engine counters are folded into retired
totals first, so the aggregate counters the ``stats`` request reports
never go backwards.  Each entry is bounded too: after a request, an
engine holding more than :data:`MAX_ENGINE_QUERIES` queries (every
distinct closure a request asks stays resident, so an entry's engine
grows with the queries its clients send) is folded out the same way
and dropped, and the next request rebuilds it (:meth:`EnginePool.trim`).

An engine is built inline by the first request that needs it, and the
rest find it: the daemon runs every request to completion on its one
thread, so one Σ arriving on a hundred connections still builds
exactly once.  ``coalesced_builds`` stays in the counters for existing
readers and always reads 0.

An ``implies`` or ``closure`` request is one
:meth:`ClosureEngine.closure_batch` call
(:meth:`EnginePool.closure_batch`): ``batches`` counts those requests
and ``batched_queries`` the closures they asked.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

from ..inference.closure import ClosureEngine
from ..inference.session import sigma_fingerprint
from ..obs.report import Stats

__all__ = ["EnginePool", "MAX_ENGINE_QUERIES", "PoolEntry", "PoolStats"]

#: The most closure queries an entry's engine keeps between requests.
MAX_ENGINE_QUERIES = 1024


class PoolStats(Stats):
    """Counters of the pool's lifetime activity (cumulative).

    ``validator_builds`` counts the validation engines built for
    ``check`` requests, one per check; ``batches`` counts the
    ``implies``/``closure`` requests and ``batched_queries`` their
    closures."""

    __slots__ = ("hits", "misses", "evictions", "coalesced_builds",
                 "session_builds", "validator_builds", "batches",
                 "batched_queries")


def _fold_session(totals: dict, entry: "PoolEntry") -> None:
    """Add the work of *entry*'s engine, if it has one, to *totals*."""
    if entry.session is not None:
        stats = entry.session.stats
        totals["rule_attempts"] += stats.attempts
        totals["saturations"] += stats.saturations
        totals["closure_queries"] += stats.queries
        totals["memo_hits"] += stats.hits


class PoolEntry:
    """One fingerprint's warm state: model objects plus a lazy
    engine (``session``)."""

    __slots__ = ("key", "fingerprint", "schema", "sigma", "nonempty",
                 "session")

    def __init__(self, key: str, fingerprint: str, schema, sigma,
                 nonempty):
        self.key = key
        self.fingerprint = fingerprint
        self.schema = schema
        self.sigma = tuple(sigma)
        self.nonempty = nonempty
        self.session: ClosureEngine | None = None


class EnginePool:
    """Bounded LRU of warm engines keyed by fingerprint.

    The entry key is the Σ fingerprint extended with a hash of the
    member texts *in order*: closure answers are order-independent but
    the entry's ``sigma`` (and with it a check's witness ordering) is
    not, so two spellings of one logical Σ in different member order
    get separate entries.
    """

    def __init__(self, *, max_entries: int = 32, tracer=None):
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self.tracer = tracer
        self.stats = PoolStats()
        self._entries: "OrderedDict[str, PoolEntry]" = OrderedDict()
        # Engine counters folded out of evicted entries, so aggregates
        # are monotone across evictions.
        self._retired = {"rule_attempts": 0, "saturations": 0,
                         "closure_queries": 0, "memo_hits": 0}

    def __len__(self) -> int:
        return len(self._entries)

    # -- entry lookup ------------------------------------------------------

    def entry_for(self, schema, sigma, nonempty) -> PoolEntry:
        """The (possibly fresh) entry for one parsed bundle."""
        sigma = tuple(sigma)
        fingerprint = sigma_fingerprint(schema, sigma, nonempty)
        order = hashlib.sha256(
            "\n".join(str(nfd) for nfd in sigma).encode()).hexdigest()
        key = f"{fingerprint}:{order[:16]}"
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.stats.misses += 1
        entry = PoolEntry(key, fingerprint, schema, sigma, nonempty)
        self._entries[key] = entry
        while len(self._entries) > self.max_entries:
            _, evicted = self._entries.popitem(last=False)
            _fold_session(self._retired, evicted)
            self.stats.evictions += 1
        return entry

    # -- engines ---------------------------------------------------------

    def session_for(self, entry: PoolEntry) -> ClosureEngine:
        """The entry's warm engine, built on first use."""
        if entry.session is None:
            entry.session = ClosureEngine(
                entry.schema, entry.sigma, entry.nonempty,
                tracer=self.tracer, _fingerprint=entry.fingerprint)
            self.stats.session_builds += 1
        return entry.session

    def closure_batch(self, entry: PoolEntry, queries) -> list:
        """One request's ``(base, lhs)`` closures, answered as one batch
        on the entry's warm engine."""
        engine = self.session_for(entry)
        self.stats.batches += 1
        self.stats.batched_queries += len(queries)
        return engine.closure_batch(queries)

    def trim(self, entry: PoolEntry) -> None:
        """Bound the entry's memory after a request: an engine holding
        more than :data:`MAX_ENGINE_QUERIES` queries is folded into the
        retired totals and dropped."""
        engine = entry.session
        if engine is not None and engine.query_count > MAX_ENGINE_QUERIES:
            _fold_session(self._retired, entry)
            entry.session = None

    # -- aggregate counters ------------------------------------------------

    def engine_totals(self) -> dict:
        """Monotone aggregates over live and retired entries — the
        numbers the warm-start acceptance gate asserts on (a fully warm
        request window must move none of the cold-work counters).
        ``plan_compilations`` counts one per check engine built."""
        totals = dict(self._retired,
                      plan_compilations=self.stats.validator_builds)
        for entry in self._entries.values():
            _fold_session(totals, entry)
        return totals

    def as_metrics(self) -> dict:
        """The :class:`~repro.obs.RunReport` section protocol."""
        data = self.stats.as_dict()
        data["entries"] = len(self._entries)
        data["max_entries"] = self.max_entries
        data["engines"] = self.engine_totals()
        return data
