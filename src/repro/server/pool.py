"""The daemon's warm state: a bounded pool of implication sessions.

Every query request names its constraint universe by shipping a bundle;
the pool maps the bundle's canonical
:func:`~repro.inference.session.sigma_fingerprint` to a
:class:`PoolEntry` holding the parsed model objects plus one
:class:`~repro.inference.session.ImplicationSession` (memoized
closures), built lazily and kept warm.  A
``check`` keeps nothing here: it runs :func:`repro.service.check`,
which builds its stream engine per request, and
:attr:`PoolStats.validator_builds` counts those builds.

The pool is a **bounded LRU** (:attr:`EnginePool.max_entries`): the
least-recently-used fingerprint is evicted when a new one would exceed
the bound, and its cumulative engine counters are folded into retired
totals first, so the aggregate counters the ``stats`` request reports
never go backwards.

Concurrent requests for a fingerprint whose session is still being
built **coalesce**: the first request runs the build in the event
loop's default executor and every later request awaits the same
future, so one Σ arriving on a hundred connections builds exactly
once (``coalesced_builds`` counts the riders).

Queued closure queries against one entry **batch**: each
:class:`_ClosureBatcher` parks callers for one event-loop tick, drains
everything that accumulated, and serves the whole batch through
:meth:`ImplicationSession.closure_batch` — subset-ordered, seed-shared,
and one sweep of the dense kernel per batch instead of one per query.
"""

from __future__ import annotations

import asyncio
import hashlib
from collections import OrderedDict

from ..inference.session import ImplicationSession, sigma_fingerprint
from ..obs.report import Stats

__all__ = ["EnginePool", "PoolEntry", "PoolStats"]


class PoolStats(Stats):
    """Counters of the pool's lifetime activity (cumulative).

    ``validator_builds`` counts the validation engines built for
    ``check`` requests, one per check."""

    __slots__ = ("hits", "misses", "evictions", "coalesced_builds",
                 "session_builds", "validator_builds", "batches",
                 "batched_queries")


def _fold_session(totals: dict, entry: "PoolEntry") -> None:
    """Add the work of *entry*'s session, if it has one, to *totals*."""
    if entry.session is not None:
        stats = entry.session.stats
        totals["rule_attempts"] += stats.engine.attempts
        totals["saturations"] += stats.engine.saturations
        totals["closure_queries"] += stats.queries
        totals["memo_hits"] += stats.hits


class _ClosureBatcher:
    """Coalesce concurrent closure queries into ``closure_batch`` calls.

    Callers enqueue ``(base, lhs)`` and await a future; the first
    caller becomes the *drainer*: it yields once to the event loop (so
    every request already parked on other connections can enqueue),
    then serves the entire backlog in one
    :meth:`ImplicationSession.closure_batch` call and resolves the
    futures in order.  Batching changes only how many kernel sweeps
    run — answers are identical to per-query :meth:`closure` calls.
    """

    __slots__ = ("session", "stats", "_pending", "_draining")

    def __init__(self, session: ImplicationSession, stats: PoolStats):
        self.session = session
        self.stats = stats
        self._pending: list[tuple[object, object, asyncio.Future]] = []
        self._draining = False

    async def closure(self, base, lhs) -> frozenset:
        future = asyncio.get_running_loop().create_future()
        self._pending.append((base, lhs, future))
        if not self._draining:
            self._draining = True
            try:
                # one tick for concurrently-parked requests to enqueue
                await asyncio.sleep(0)
                while self._pending:
                    batch = self._pending
                    self._pending = []
                    self._drain(batch)
            finally:
                self._draining = False
        return await future

    def _drain(self, batch) -> None:
        self.stats.batches += 1
        self.stats.batched_queries += len(batch)
        try:
            results = self.session.closure_batch(
                [(base, lhs) for base, lhs, _ in batch])
        except BaseException as exc:
            for _, _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_, _, future), result in zip(batch, results):
            if not future.done():
                future.set_result(result)


class PoolEntry:
    """One fingerprint's warm state: model objects plus a lazy
    session and its batcher."""

    __slots__ = ("key", "fingerprint", "schema", "sigma", "nonempty",
                 "session", "batcher")

    def __init__(self, key: str, fingerprint: str, schema, sigma,
                 nonempty):
        self.key = key
        self.fingerprint = fingerprint
        self.schema = schema
        self.sigma = tuple(sigma)
        self.nonempty = nonempty
        self.session: ImplicationSession | None = None
        self.batcher: _ClosureBatcher | None = None


class EnginePool:
    """Bounded, coalescing LRU of warm engines keyed by fingerprint.

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
        self._building: dict[str, asyncio.Future] = {}
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

    # -- coalesced session builds ------------------------------------------

    async def _build(self, slot: str, factory):
        """Run *factory* in the default executor, coalescing callers.

        The first caller for *slot* (an entry key) owns the build;
        every concurrent caller awaits the same future and counts as a
        coalesced rider.  The slot is cleared afterwards so a failed
        build can retry.
        """
        pending = self._building.get(slot)
        if pending is not None:
            self.stats.coalesced_builds += 1
            return await pending
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._building[slot] = future
        try:
            result = await loop.run_in_executor(None, factory)
        except BaseException as exc:
            future.set_exception(exc)
            # mark the exception retrieved (riders re-raise on await
            # regardless; without this a rider-less failure would log
            # an "exception was never retrieved" warning at GC time)
            future.exception()
            raise
        else:
            future.set_result(result)
            return result
        finally:
            del self._building[slot]

    async def session_for(self, entry: PoolEntry) -> ImplicationSession:
        """The entry's warm session, built on first use."""
        if entry.session is not None:
            return entry.session
        def factory():
            return ImplicationSession(
                entry.schema, entry.sigma, entry.nonempty,
                tracer=self.tracer, _fingerprint=entry.fingerprint)
        session = await self._build(entry.key, factory)
        if entry.session is None:
            entry.session = session
            self.stats.session_builds += 1
        return entry.session

    async def batcher_for(self, entry: PoolEntry) -> _ClosureBatcher:
        """The entry's closure batcher."""
        if entry.batcher is None:
            session = await self.session_for(entry)
            if entry.batcher is None:
                entry.batcher = _ClosureBatcher(session, self.stats)
        return entry.batcher

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
