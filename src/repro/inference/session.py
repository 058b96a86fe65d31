"""Implication query sessions: serving many queries over one Sigma.

Every analysis in this library — candidate keys, minimal covers,
redundancy scans, Sigma diffs — is a *stream* of implication and
closure queries against one logical ``(schema, Sigma, nonempty)``
triple.  :class:`ImplicationSession` serves such a stream through one
:class:`~repro.inference.closure.ClosureEngine`, whose dense query
state is the one memo: a repeated key is read off it, and a new key is
seeded from the drop-one sub-queries the engine already holds.  On top
of the engine the session adds:

* a canonical, order-independent **fingerprint** of the triple
  (:func:`sigma_fingerprint`) — syntactic reorderings of Sigma members,
  LHS paths, record fields, or nonempty declarations all map to the
  same fingerprint (the daemon's pool keys its entries on it);
* **batch entry points** — :meth:`ImplicationSession.closure_batch` and
  :meth:`ImplicationSession.covers_batch` visit their keys in subset
  order, so a sweep pays for the new derivations only;
* **copy-on-write probes**: :meth:`~ImplicationSession.without` /
  :meth:`~ImplicationSession.with_added` /
  :meth:`~ImplicationSession.replaced` return sibling sessions whose
  engines share this engine's compiled Sigma pool (usables, dense
  tables, singleton candidates) — the probe compiles only the member it
  changes.

:class:`SessionStats` counts the closure queries served and how many of
them the engine already held saturated, and nests the engine snapshot.

Sessions answer queries only; ``explain``/``prove`` go through a
plain :class:`ClosureEngine`, which replays the naive reference
saturation to rebuild the derivation.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from ..nfd.nfd import NFD
from ..obs.report import Stats
from ..paths.path import Path
from ..types.base import BaseType, RecordType, SetType, Type
from ..types.schema import Schema
from .closure import ClosureEngine
from .empty_sets import NonEmptySpec

__all__ = ["ImplicationSession", "SessionStats", "sigma_fingerprint"]

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
    """A snapshot of a session's query counters plus the engine's.

    * ``fingerprint`` — the canonical Sigma fingerprint;
    * ``queries`` — simple-closure queries served (batch verdicts read
      off the kernel's masks are not closure queries);
    * ``hits`` — queries whose key the engine already held saturated;
    * ``engine`` — the nested :class:`EngineStats` snapshot.
    """

    __slots__ = ("fingerprint", "queries", "hits", "engine")
    IDENTITY = ("fingerprint",)
    NESTED = ("engine",)
    EXPORT = ("fingerprint", "queries", "hits", "hit_rate", "engine")
    TEXT = ("session stats (fingerprint {fingerprint:.12}):",
            "  closure queries: {queries}  hits: {hits}  "
            "hit rate: {hit_rate:.1%}")
    OWNER = "session"

    @property
    def hit_rate(self) -> float:
        """Hits over queries (0.0 when no query was served)."""
        return self.hits / self.queries if self.queries else 0.0

    def _extra_lines(self) -> list[str]:
        return [self.engine.to_text()]


class ImplicationSession:
    """A query-serving layer over one logical Sigma.

    Example::

        session = ImplicationSession(schema, sigma, nonempty)
        session.implies(nfd)                      # the engine's answer
        session.closure_batch(queries)            # subset-ordered batch
        probe = session.without(2)                # COW delta probe
        session.stats.hit_rate

    The session exposes the engine's query API (``closure_simple``,
    ``closure``, ``implies``, ``implies_all``) with identical answers —
    see ``tests/properties/test_session_differential.py`` — plus the
    batch entry points, the delta probes and :attr:`stats`.  It does
    not expose ``explain``; use :meth:`ClosureEngine.explain`.
    """

    def __init__(self, schema: Schema, sigma: Iterable[NFD],
                 nonempty: NonEmptySpec | None = None, *, tracer=None,
                 _engine: ClosureEngine | None = None,
                 _fingerprint: str | None = None):
        if _engine is not None:
            self.engine = _engine
        else:
            self.engine = ClosureEngine(schema, sigma, nonempty,
                                        tracer=tracer)
        # computed on first read (or handed in by a caller that already
        # hashed the same triple): probes, cover and synthesis sessions
        # never read it, and hashing Σ is a large share of a small
        # session's build
        self._fingerprint = _fingerprint

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
        engine = self.engine
        return SessionStats(fingerprint=self.fingerprint,
                            queries=engine._served, hits=engine._held,
                            engine=engine.stats)

    # -- queries -----------------------------------------------------------

    def closure_simple(self, relation: str, lhs: Iterable[Path]) \
            -> frozenset[Path]:
        """``CL(lhs)`` at a relation-name base
        (:meth:`ClosureEngine.closure_simple`)."""
        return self.engine.closure_simple(relation, lhs)

    def closure(self, base: Path, lhs: Iterable[Path]) \
            -> frozenset[Path]:
        """``(x0, X, Sigma)*`` (:meth:`ClosureEngine.closure`)."""
        return self.engine.closure(base, lhs)

    def closure_batch(self, queries) -> list[frozenset[Path]]:
        """Batch :meth:`closure`: one result per ``(base, lhs)`` pair,
        in input order (:meth:`ClosureEngine.closure_many`, which
        visits the keys in subset order)."""
        return self.engine.closure_many(queries)

    def covers_batch(self, base: Path, candidates,
                     targets: Iterable[Path]) -> list[bool]:
        """Batch key-style verdicts: for each candidate, does
        ``closure(base, candidate)`` contain every path of *targets*?

        Answers equal ``[targets <= self.closure(base, c) for c in
        candidates]`` (:meth:`ClosureEngine.covers_many`: at a
        relation-name base the verdicts come straight off the kernel's
        saturated masks)."""
        return self.engine.covers_many(base, candidates, targets)

    def implies(self, nfd: NFD) -> bool:
        """Decide ``Sigma |= nfd`` (:meth:`ClosureEngine.implies`)."""
        return self.engine.implies(nfd)

    def implies_all(self, nfds: Iterable[NFD]) -> bool:
        """True iff every NFD in *nfds* is implied, as one closure batch
        (:meth:`ClosureEngine.implies_all`)."""
        return self.engine.implies_all(nfds)

    # -- copy-on-write delta probes ----------------------------------------

    def without(self, index: int) -> "ImplicationSession":
        """A probe session over Sigma minus member *index*.

        The probe's engine shares this engine's compiled pool (see
        :meth:`ClosureEngine.without`); its query state starts empty —
        saturated closures belong to the old Sigma.
        """
        return ImplicationSession(self.schema, (),
                                  _engine=self.engine.without(index))

    def with_added(self, nfd: NFD) -> "ImplicationSession":
        """A probe session over Sigma plus *nfd* (appended)."""
        return ImplicationSession(self.schema, (),
                                  _engine=self.engine.with_added(nfd))

    def replaced(self, index: int, nfd: NFD) -> "ImplicationSession":
        """A probe session with member *index* replaced by *nfd*,
        preserving Sigma order."""
        return ImplicationSession(self.schema, (),
                                  _engine=self.engine.replace(index, nfd))

    def __repr__(self) -> str:
        return (f"ImplicationSession(|sigma|={len(self.sigma)}, "
                f"fingerprint={self.fingerprint[:12]})")
