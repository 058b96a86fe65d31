"""Implication query sessions: serving many queries over one Sigma.

Every analysis in this library — candidate keys, minimal covers,
redundancy scans, Sigma diffs — is a *stream* of implication and
closure queries against one logical ``(schema, Sigma, nonempty)``
triple, and the streams are heavily self-similar: a key sweep asks
about every attribute combination (neighbouring combinations share most
of their members), LHS shrinking asks about one-path perturbations of
the same NFD, and a diff asks about each member twice.

:class:`ImplicationSession` is the serving layer for such streams, on
top of one :class:`~repro.inference.closure.ClosureEngine`:

* a canonical, order-independent **fingerprint** of the triple
  (:func:`sigma_fingerprint`) identifies the logical Sigma a cached
  answer belongs to — syntactic reorderings of Sigma members, LHS
  paths, record fields, or nonempty declarations all map to the same
  fingerprint, so memoized results can be associated or compared
  across sessions that spell the same Sigma differently;
* a bounded per-``(relation, frozenset(LHS))`` **closure memo** with
  LRU eviction answers repeated simple-closure queries without
  re-entering the engine, and evicted queries are also dropped from the
  engine (:meth:`ClosureEngine.forget_query`) so long sessions stay
  bounded;
* **seed reuse**: on a memo miss, the largest cached closure ``CL(X)``
  with ``X ⊂ Y`` seeds ``Y``'s saturation (monotonicity — ``X ⊆ Y``
  implies ``CL(X) ⊆ CL(Y)`` in both the plain and the gated systems,
  since enlarging the query key only loosens the Section 3.2 gates), so
  the incremental cost of a sweep step is proportional to the *new*
  derivations only;
* **copy-on-write probes**: :meth:`without` / :meth:`with_added` /
  :meth:`replaced` return sibling sessions whose engines share this
  engine's compiled Sigma pool (usables, dense tables, singleton
  candidates) — the probe compiles only the member it changes.

:class:`SessionStats` mirrors :class:`~repro.inference.closure.EngineStats`
with the memo counters (hits, misses, seed reuses, evictions) and the
fingerprint, and nests the engine snapshot.

Sessions answer queries only; ``explain``/``prove`` go through a
plain :class:`ClosureEngine`, which replays the naive reference
saturation to rebuild the derivation.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Iterable

from ..errors import InferenceError, NFDError
from ..nfd.nfd import NFD
from ..obs.report import Stats
from ..paths.path import Path
from ..types.base import BaseType, RecordType, SetType, Type
from ..types.schema import Schema
from .closure import ClosureEngine
from .empty_sets import NonEmptySpec

__all__ = ["ImplicationSession", "SessionStats", "sigma_fingerprint"]

#: Default bound on the number of memoized closure queries per session.
DEFAULT_MAX_MEMO = 1024


def _canonical_type(t: Type) -> str:
    """A canonical text for a type: record fields sorted by label, so
    field order (display-only, ignored by equality) cannot perturb the
    fingerprint."""
    if isinstance(t, BaseType):
        return t.name
    if isinstance(t, SetType):
        return "{" + _canonical_type(t.element) + "}"
    assert isinstance(t, RecordType)
    inner = ",".join(
        f"{label}:{_canonical_type(t.field(label))}"
        for label in sorted(t.labels)
    )
    return "<" + inner + ">"


def sigma_fingerprint(schema: Schema, sigma: Iterable[NFD],
                      nonempty: NonEmptySpec | None = None) -> str:
    """A canonical, order-independent fingerprint of the logical triple.

    Two calls agree exactly when the *logical* inputs agree: relations
    are sorted by name, record fields by label, Sigma members are
    rendered in their canonical text (LHS sorted, duplicates collapsed)
    and sorted, and the nonempty spec contributes ``"*"`` or its sorted
    declarations.  The result is a hex SHA-256 digest.
    """
    spec = nonempty if nonempty is not None else NonEmptySpec.all_nonempty()
    hasher = hashlib.sha256()
    for name in sorted(schema.relation_names):
        hasher.update(f"R {name}={_canonical_type(schema.relation_type(name))}\n"
                      .encode())
    for text in sorted({str(nfd) for nfd in sigma}):
        hasher.update(f"S {text}\n".encode())
    if spec.declares_everything:
        hasher.update(b"N *\n")
    else:
        for text in sorted(str(p) for p in spec.declared):
            hasher.update(f"N {text}\n".encode())
    return hasher.hexdigest()


class SessionStats(Stats):
    """A snapshot of a session's memo counters plus the engine's.

    * ``fingerprint`` — the canonical Sigma fingerprint;
    * ``queries`` — simple-closure queries served;
    * ``hits`` / ``misses`` — memo hits and misses among them;
    * ``seed_reuses`` — misses that were seeded from a cached subset
      closure instead of saturating from scratch;
    * ``evictions`` — memo entries dropped by the LRU bound;
    * ``memo_size`` / ``max_memo`` — current and maximum memo entries;
    * ``engine`` — the nested :class:`EngineStats` snapshot.
    """

    __slots__ = ("fingerprint", "queries", "hits", "misses",
                 "seed_reuses", "evictions", "memo_size", "max_memo",
                 "engine")
    IDENTITY = ("fingerprint",)
    STATE = ("memo_size", "max_memo")
    NESTED = ("engine",)
    EXPORT = ("fingerprint", "queries", "hits", "misses", "seed_reuses",
              "evictions", "memo_size", "max_memo", "hit_rate",
              "engine")
    TEXT = ("session stats (fingerprint {fingerprint:.12}):",
            "  closure queries: {queries}  hits: {hits}  "
            "misses: {misses}  hit rate: {hit_rate:.1%}",
            "  seed reuses: {seed_reuses}  evictions: {evictions}  "
            "memo: {memo_size}/{max_memo}")
    OWNER = "session"

    @property
    def hit_rate(self) -> float:
        """Memo hits over queries (0.0 when no query was served)."""
        return self.hits / self.queries if self.queries else 0.0

    def _extra_lines(self) -> list[str]:
        return [self.engine.to_text()]


class ImplicationSession:
    """A memoizing query-serving layer over one logical Sigma.

    Example::

        session = ImplicationSession(schema, sigma, nonempty)
        session.implies(nfd)                      # like the engine...
        session.closure(base, lhs)                # ...but memoized
        probe = session.without(2)                # COW delta probe
        session.stats.hit_rate

    The session exposes the engine's query API (``closure_simple``,
    ``closure``, ``implies``, ``implies_all``) with identical answers —
    see ``tests/properties/test_session_differential.py`` — plus the
    delta probes and :attr:`stats`.  It does not expose ``explain``;
    use :meth:`ClosureEngine.explain`.
    """

    def __init__(self, schema: Schema, sigma: Iterable[NFD],
                 nonempty: NonEmptySpec | None = None, *,
                 max_memo: int = DEFAULT_MAX_MEMO, tracer=None,
                 _engine: ClosureEngine | None = None,
                 _fingerprint: str | None = None):
        if _engine is not None:
            self.engine = _engine
        else:
            self.engine = ClosureEngine(schema, sigma, nonempty,
                                        tracer=tracer)
        if max_memo < 1:
            raise InferenceError("max_memo must be at least 1")
        self.max_memo = max_memo
        # computed on first read (or handed in by a caller that already
        # hashed the same triple): probes, cover and synthesis sessions
        # never read it, and hashing Σ is a large share of a small
        # session's build
        self._fingerprint = _fingerprint
        # (relation, key) -> closure, in LRU order (oldest first).
        self._memo: "OrderedDict[tuple[str, frozenset[Path]], frozenset[Path]]" \
            = OrderedDict()
        # relation -> {key: closure}; mirror of _memo for the seed scan.
        self._by_relation: dict[str, dict[frozenset[Path],
                                          frozenset[Path]]] = {}
        self._queries = 0
        self._hits = 0
        self._misses = 0
        self._seed_reuses = 0
        self._evictions = 0

    # -- introspection -----------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """The canonical Σ fingerprint (:func:`sigma_fingerprint`),
        computed on first read."""
        if self._fingerprint is None:
            self._fingerprint = sigma_fingerprint(
                self.engine.schema, self.engine.sigma,
                self.engine.nonempty)
        return self._fingerprint

    @property
    def schema(self) -> Schema:
        return self.engine.schema

    @property
    def sigma(self) -> tuple[NFD, ...]:
        return self.engine.sigma

    @property
    def nonempty(self) -> NonEmptySpec:
        return self.engine.nonempty

    @property
    def tracer(self):
        """The engine's :class:`~repro.obs.Tracer` (None = untraced)."""
        return self.engine.tracer

    def snapshot(self) -> "SessionStats":
        """An explicit alias of :attr:`stats`: counters are cumulative
        and never reset; measure windows via :meth:`SessionStats.diff`."""
        return self.stats

    @property
    def stats(self) -> SessionStats:
        """A point-in-time :class:`SessionStats` snapshot."""
        return SessionStats(
            fingerprint=self.fingerprint,
            queries=self._queries,
            hits=self._hits,
            misses=self._misses,
            seed_reuses=self._seed_reuses,
            evictions=self._evictions,
            memo_size=len(self._memo),
            max_memo=self.max_memo,
            engine=self.engine.stats,
        )

    # -- memoized queries --------------------------------------------------

    def closure_simple(self, relation: str, lhs: Iterable[Path]) \
            -> frozenset[Path]:
        """Memoized ``CL(lhs)`` at a relation-name base.

        A hit returns the cached closure; a miss saturates the engine,
        seeded from the largest cached closure of a strict subset of
        *lhs* when one exists (sound by monotonicity of ``CL``)."""
        key = frozenset(lhs)
        self._queries += 1
        slot = (relation, key)
        tracer = self.engine.tracer
        cached = self._memo.get(slot)
        if cached is not None:
            self._hits += 1
            self._memo.move_to_end(slot)
            if tracer is not None:
                # a hit is O(1): charge a counter to whichever span is
                # open (e.g. an analysis sweep) instead of a span of
                # its own
                tracer.count("session.hits")
            return cached
        self._misses += 1
        if tracer is None:
            seed = self._best_seed(relation, key)
            if seed is not None:
                self._seed_reuses += 1
                result = self.engine.closure_simple_seeded(
                    relation, key, seed)
            else:
                result = self.engine.closure_simple(relation, key)
            self._remember(relation, key, result)
            return result
        with tracer.span("session.miss", relation=relation,
                         lhs_size=len(key)) as span:
            seed = self._best_seed(relation, key)
            if seed is not None:
                self._seed_reuses += 1
                span.add("seeded")
                span.add("seed_size", len(seed))
                result = self.engine.closure_simple_seeded(
                    relation, key, seed)
            else:
                result = self.engine.closure_simple(relation, key)
            self._remember(relation, key, result)
            span.add("derived", len(result) - len(key))
        return result

    def _best_seed(self, relation: str,
                   key: frozenset[Path]) -> frozenset[Path] | None:
        """A cached-closure seed for ``CL(key)``: the union of every
        cached ``CL(key - {p})`` (each is a subset of ``CL(key)`` by
        monotonicity, so their union seeds soundly).  Combination
        sweeps — the heavy caller, via :meth:`closure_batch` — always
        hit these drop-one probes (a candidate's sub-combinations are
        visited first), making the probe O(|key|); only when every
        probe misses does the original full memo scan for the largest
        strict-subset closure run."""
        cached = self._by_relation.get(relation)
        if not cached:
            return None
        seed: frozenset[Path] | None = None
        for path in key:
            sub = cached.get(key - {path})
            if sub is not None:
                seed = sub if seed is None else seed | sub
        if seed is not None:
            return seed
        best: frozenset[Path] | None = None
        for other, closure in cached.items():
            if len(other) < len(key) and other < key:
                if best is None or len(closure) > len(best):
                    best = closure
        return best

    def _remember(self, relation: str, key: frozenset[Path],
                  result: frozenset[Path]) -> None:
        while len(self._memo) >= self.max_memo:
            (old_relation, old_key), _ = self._memo.popitem(last=False)
            del self._by_relation[old_relation][old_key]
            self.engine.forget_query(old_relation, old_key)
            self._evictions += 1
        self._memo[(relation, key)] = result
        self._by_relation.setdefault(relation, {})[key] = result

    def closure(self, base: Path, lhs: Iterable[Path]) \
            -> frozenset[Path]:
        """``(x0, X, Sigma)*`` through the memoized simple closure."""
        relation, ybar, lhs_set, simple_lhs = \
            self.engine._push_in(base, lhs)
        simple_closure = self.closure_simple(relation, simple_lhs)
        return self.engine._pull_out(base, relation, ybar, lhs_set,
                                     simple_closure)

    def closure_batch(self, queries) -> list[frozenset[Path]]:
        """Batch :meth:`closure`: one result per ``(base, lhs)`` pair.

        The session-level counterpart of
        :meth:`ClosureEngine.closure_many`: the batch is visited in
        subset order (ascending simple-LHS size, then canonical text)
        so each memo miss can seed from the closures the batch itself
        just computed — :meth:`closure_simple` finds them through
        ``_best_seed`` — and results come back in input order,
        identical to mapping :meth:`closure` over the batch."""
        prepared = []
        for base, lhs in queries:
            relation, ybar, lhs_set, simple_lhs = \
                self.engine._push_in(base, lhs)
            prepared.append((base, relation, ybar, lhs_set, simple_lhs))
        order = sorted(
            range(len(prepared)),
            key=lambda i: (len(prepared[i][4]),
                           tuple(sorted(str(p) for p in prepared[i][4])))
        )
        computed: dict[tuple, frozenset[Path]] = {}
        for i in order:
            _, relation, _, _, simple_lhs = prepared[i]
            slot = (relation, simple_lhs)
            if slot not in computed:
                computed[slot] = self.closure_simple(relation,
                                                     simple_lhs)
        return [
            self.engine._pull_out(base, relation, ybar, lhs_set,
                                  computed[(relation, simple_lhs)])
            for base, relation, ybar, lhs_set, simple_lhs in prepared
        ]

    def covers_batch(self, base: Path, candidates,
                     targets: Iterable[Path]) -> list[bool]:
        """Batch key-style verdicts: for each candidate, does
        ``closure(base, candidate)`` contain every path of *targets*?

        Answers equal ``[targets <= self.closure(base, c) for c in
        candidates]``.  At a relation-name base the session delegates
        to :meth:`ClosureEngine.covers_many` — verdicts come straight
        off the kernel's saturated masks, skipping both closure
        materialization and the memo (a sweep's candidates rarely
        repeat, so the memo only adds bookkeeping there).  At nested
        bases the batch routes through :meth:`closure_batch`.
        """
        if base.tail.is_empty:
            return self.engine.covers_many(base, candidates, targets)
        target_set = frozenset(targets)
        closures = self.closure_batch(
            [(base, candidate) for candidate in candidates])
        return [target_set <= closed for closed in closures]

    def implies(self, nfd: NFD) -> bool:
        """Decide ``Sigma |= nfd`` (identical to the engine's answer)."""
        try:
            nfd.check_well_formed(self.schema)
        except NFDError as exc:
            raise InferenceError(str(exc)) from exc
        return nfd.rhs in self.closure(nfd.base, nfd.lhs)

    def implies_all(self, nfds: Iterable[NFD]) -> bool:
        """True iff every NFD in *nfds* is implied.

        Runs the closures as one :meth:`closure_batch` (subset-ordered,
        seed-sharing), so a cover check over a whole Σ pays for each
        distinct simple LHS once."""
        candidates = list(nfds)
        for nfd in candidates:
            try:
                nfd.check_well_formed(self.schema)
            except NFDError as exc:
                raise InferenceError(str(exc)) from exc
        closures = self.closure_batch(
            [(nfd.base, nfd.lhs) for nfd in candidates])
        return all(nfd.rhs in closed
                   for nfd, closed in zip(candidates, closures))

    # -- copy-on-write delta probes ----------------------------------------

    def without(self, index: int) -> "ImplicationSession":
        """A probe session over Sigma minus member *index*.

        The probe's engine shares this engine's compiled pool (see
        :meth:`ClosureEngine.without`); its memo starts empty — cached
        closures belong to the old Sigma.
        """
        return ImplicationSession(
            self.schema, (), max_memo=self.max_memo,
            _engine=self.engine.without(index),
        )

    def with_added(self, nfd: NFD) -> "ImplicationSession":
        """A probe session over Sigma plus *nfd* (appended)."""
        return ImplicationSession(
            self.schema, (), max_memo=self.max_memo,
            _engine=self.engine.with_added(nfd),
        )

    def replaced(self, index: int, nfd: NFD) -> "ImplicationSession":
        """A probe session with member *index* replaced by *nfd*,
        preserving Sigma order."""
        return ImplicationSession(
            self.schema, (), max_memo=self.max_memo,
            _engine=self.engine.replace(index, nfd),
        )

    def __repr__(self) -> str:
        return (f"ImplicationSession(|sigma|={len(self.sigma)}, "
                f"fingerprint={self.fingerprint[:12]}, "
                f"memo={len(self._memo)}/{self.max_memo})")
