"""The closure engine: computing ``(x0, X, Sigma)*`` (Theorem 3.1).

The engine decides logical implication of NFDs by computing closures of
path sets, generalizing the classical Armstrong closure to the nested
setting.  It works internally on *simple* NFDs (base = relation name):
``x0:[X -> q]`` is derivable iff its canonical simple form is
(push-in/pull-out, Section 2.3), so every query is first translated via
:func:`repro.nfd.simple_form.to_simple`'s prefix expansion.

For one relation the engine saturates a family of closure queries
``CL(L) = {q : R:[L -> q] derivable}``:

* **reflexivity** seeds ``CL(L)`` with ``L``;
* **transitivity + prefix** — for every *usable* NFD ``[M -> r]``, add
  ``r`` when every ``p in M`` is *covered*: ``p in CL(L)``, or some
  non-empty proper prefix ``p' in CL(L)`` with ``p'`` not a prefix of
  ``r`` (iterated applications of the prefix rule collapse to this single
  test because a prefix of a prefix of ``r`` would itself prefix ``r``);
* **full-locality** — every usable NFD whose RHS extends a set path ``x``
  contributes a localized variant ``[{x} u (M under x) -> r]``, sound
  without empty sets because an NFD with RHS under ``x`` already forces
  within-``x`` agreement via the diagonal pair of Definition 2.4 (see the
  discussion of Example 3.1; localized variants subsume the paper's
  locality rule and, combined with coverage, its full-locality);
* **singleton** — for every set path ``s`` of element type
  ``{<A1..An>}`` and every split ``s = ybar:x``, the NFD
  ``[prefixes(ybar), s:A1..s:An -> s]`` becomes usable once every
  ``s:Ai`` lies in ``CL(prefixes(ybar) u {s})`` — the simple-form image
  of the paper's singleton premises at base ``R:ybar``.

All queries of a relation share the usable-NFD pool and are saturated to
a global fixpoint; monotonicity over the finite path set guarantees
termination.

There is one production saturation: the interned-bitmask kernel of
:mod:`repro.inference.dense`.  Each usable compiles to a row of masks,
each query is one accumulator int, and the fixpoint is ``acc & mask``
tests; singleton candidates activate when their premise accumulator
covers the target mask, appending precompiled rows that every query then
picks up.  The object-level *naive* fixpoint — rescan every candidate,
re-attempt every usable against every query until stable — is kept
beside it as the reference saturation.  It computes the least fixpoint
of the same monotone step operator, so the two agree; the tests use it
as their oracle (:meth:`ClosureEngine.reference_closure`), and
``explain``/``prove`` replay it (:meth:`ClosureEngine.replay`) because
it records, per derived path, the usable that fired and the covering
path of each LHS member.

The usables compiled from Sigma — each member's simple form and its
admissible localized variants — depend only on ``(schema, member,
nonempty)``, never on the rest of Sigma.  They are therefore compiled
once into a :class:`_SigmaPool` tagged by member index and *shared* by
the copy-on-write probe engines :meth:`ClosureEngine.without`,
:meth:`ClosureEngine.with_added`, and :meth:`ClosureEngine.replace`: a
probe masks members in or out of the shared pool and compiles only the
members the pool has never seen, instead of rebuilding the whole pool
per probe.  Saturation state (closure queries, activated singleton
candidates) is per-engine — changing Sigma invalidates derived
closures.

That state is the one memo of implication answers.  Every query an
engine has saturated stays in its relation's state, with the closure
materialized on first read: a repeated key is read off without entering
the saturation loop, and a new key is seeded from its drop-one
sub-queries (:meth:`ClosureEngine._register`), which batches visit in
subset order.  The state grows with the distinct keys asked; a
long-lived holder bounds it by dropping the engine (the daemon's pool
does, :mod:`repro.server.pool`).

The engine is the one implication object: single queries, batches in
subset order (:meth:`ClosureEngine.closure_batch`,
:meth:`ClosureEngine.covers_batch`), the probes above, the Σ
fingerprint and the query counters of :class:`EngineStats`.

Passing a :class:`~repro.inference.empty_sets.NonEmptySpec` switches the
engine to the Section 3.2 rules: prefix shortening requires the shortened
positions to be declared non-empty, and intermediates of a transitivity
step (and paths dropped by localization) must follow the conclusion's RHS
or traverse only declared-non-empty sets.  The coverage check considers
*every* admissible covering path (the member itself or any gated prefix
shortening) and fires when any of them also passes the intermediate
gate — each choice corresponds to a valid gated derivation, and
admitting all of them keeps the step rule monotone in the closure set.
With ``NonEmptySpec.all_nonempty()`` (the default) the gates all pass
and the engine implements the plain Section 3.1 system, which
Theorem 3.1 proves sound and complete.
"""

from __future__ import annotations

import time
from typing import Iterable

from ..errors import InferenceError, NFDError, PathError
from ..nfd.nfd import NFD
from ..nfd.simple_form import to_simple
from ..obs.report import Stats
from ..paths.path import Path
from ..paths.typing import (
    relation_paths,
    resolve_base_path,
    set_paths,
    type_at,
)
from ..types.base import SetType
from ..types.schema import Schema
from .dense import DenseTables, bit_indices, compile_row, compile_tables
from .empty_sets import NonEmptySpec
from .session import sigma_fingerprint

__all__ = ["ClosureEngine", "EngineStats", "ImplicationSession",
           "engine_counters", "pool_build_count"]

# Process-global work counters, accumulated across every engine ever
# constructed.  Benchmarks and tests snapshot/diff these to assert
# construction bounds ("minimal_cover compiles exactly one pool") and
# total saturation work independent of which engine instance did it.
_COUNTERS = {"pool_builds": 0, "attempts": 0, "saturations": 0}


def engine_counters() -> dict[str, int]:
    """A snapshot of the process-global engine work counters.

    ``pool_builds`` — full Sigma-pool compilations (copy-on-write probes
    share their parent's pool and do not count); ``attempts`` /
    ``saturations`` — kernel row scans and saturation calls summed over
    every engine in the process.
    """
    return dict(_COUNTERS)


def pool_build_count() -> int:
    """How many full Sigma pools this process has compiled."""
    return _COUNTERS["pool_builds"]


class EngineStats(Stats):
    """A snapshot of the engine's query and saturation counters.

    Totals are accumulated across every query the engine has answered
    and are **never reset in place**: to measure a window (one query,
    one analysis pass) take a snapshot before and after and
    :meth:`~repro.obs.Stats.diff` them.  Per-relation maps reflect the
    state at snapshot time.

    * ``fingerprint`` — the canonical Σ fingerprint; only snapshots of
      engines over one logical Σ diff;
    * ``queries`` — closure queries answered (batch verdicts read off
      the kernel's masks are not closure queries);
    * ``hits`` — queries whose key the engine already held saturated;
    * ``saturations`` — calls to the saturation loop;
    * ``rounds`` — kernel passes over a query's pending rows;
    * ``attempts`` / ``successes`` — row scans and the paths they
      derived;
    * ``wall_time`` — seconds spent inside saturation;
    * ``usables`` / ``candidates`` / ``activated`` — active rule rows,
      singleton-candidate count, and activated candidates per relation;
    * ``held`` / ``derived`` — closure queries held and the total
      number of non-seed paths they derived, per relation;
    * ``mask_tests`` — row scans plus batch verdict tests (each is at
      least one bitmask test);
    * ``dense_seeds`` — queries seeded from a drop-one sub-query;
    * ``interned`` — interned universe size per relation.
    """

    __slots__ = ("fingerprint", "queries", "hits", "saturations",
                 "rounds", "attempts", "successes", "wall_time",
                 "usables", "candidates", "activated", "held", "derived",
                 "mask_tests", "dense_seeds", "interned")
    IDENTITY = ("fingerprint",)
    STATE = ("usables", "candidates", "activated", "held", "derived",
             "interned")
    EXPORT = ("fingerprint", "queries", "hits", "hit_rate") + __slots__[3:]
    TEXT = ("engine stats:",
            "  saturations: {saturations}  rounds: {rounds}",
            "  apply attempts: {attempts}  successes: {successes}",
            "  saturation wall time: {wall_time:.6f}s")

    @property
    def hit_rate(self) -> float:
        """Hits over queries (0.0 when no query was answered)."""
        return self.hits / self.queries if self.queries else 0.0

    def query_text(self) -> str:
        """The ``--cache-stats`` text: the query counters, then
        :meth:`to_text`."""
        return (f"session stats (fingerprint {self.fingerprint:.12}):\n"
                f"  closure queries: {self.queries}  hits: {self.hits}  "
                f"hit rate: {self.hit_rate:.1%}\n{self.to_text()}")

    def _extra_lines(self) -> list[str]:
        interned = ", ".join(
            f"{relation}={self.interned[relation]}"
            for relation in sorted(self.interned)
        ) or "-"
        lines = [
            f"  mask tests: {self.mask_tests}  "
            f"dense seeds: {self.dense_seeds}  "
            f"interned ids: {interned}",
        ]
        for relation in sorted(self.usables):
            lines.append(
                f"  {relation}: {self.usables[relation]} usable(s), "
                f"{self.activated[relation]}/"
                f"{self.candidates[relation]} candidate(s) active, "
                f"{self.held[relation]} query(ies), "
                f"{self.derived[relation]} derived path(s)"
            )
        return lines


class _Usable:
    """A simple NFD ``[lhs -> rhs]`` in the engine's working pool.

    ``origin`` is one of ``"sigma"``, ``"localized"``, ``"singleton"``;
    ``detail`` carries the provenance: the originating Sigma member (the
    NFD itself — pool usables are shared between engines whose Sigma
    indexes differ, so positional references would not transfer), a
    ``(source usable, localization prefix)`` pair, or the singleton
    candidate, respectively.  Provenance feeds ``ClosureEngine.explain``.
    """

    __slots__ = ("lhs", "rhs", "origin", "detail")

    def __init__(self, lhs: frozenset[Path], rhs: Path, origin: str,
                 detail=None):
        self.lhs = lhs
        self.rhs = rhs
        self.origin = origin
        self.detail = detail

    def key(self) -> tuple[frozenset[Path], Path]:
        return (self.lhs, self.rhs)

    def describe(self, sigma) -> str:
        inner = ", ".join(str(p) for p in sorted(self.lhs)) or "∅"
        body = f"[{inner} -> {self.rhs}]"
        if self.origin == "sigma":
            return f"{body} (Sigma member {self.detail})"
        if self.origin == "localized":
            source, prefix = self.detail
            return (f"{body} (full-locality at {prefix} of "
                    f"{source.describe(sigma)})")
        if self.origin == "singleton":
            return f"{body} (singleton rule on {self.rhs})"
        return body  # pragma: no cover - no other origins exist

    def __repr__(self) -> str:
        inner = ", ".join(str(p) for p in sorted(self.lhs)) or "∅"
        return f"_Usable([{inner} -> {self.rhs}] from {self.origin})"


class _SingletonCandidate:
    """A gated singleton NFD for set path ``s`` at split base ``ybar``."""

    __slots__ = ("set_path", "split", "premise_lhs", "targets", "usable")

    def __init__(self, set_path: Path, split: Path,
                 premise_lhs: frozenset[Path],
                 targets: frozenset[Path], usable: _Usable):
        self.set_path = set_path
        self.split = split
        self.premise_lhs = premise_lhs
        self.targets = targets
        self.usable = usable

    def key(self) -> tuple[Path, Path]:
        return (self.set_path, self.split)


def _localizations(relation: str, usable: _Usable,
                   nonempty: NonEmptySpec) -> list[_Usable]:
    """Localized variants ``[{x} u (lhs under x) -> rhs]``.

    One variant per non-empty proper prefix ``x`` of the RHS.  In
    non-empty-gated mode a variant is admitted only when every dropped
    LHS path follows the RHS or is always defined.
    """
    variants: list[_Usable] = []
    rhs = usable.rhs
    for length in range(1, len(rhs)):
        x = rhs[:length]
        kept = {p for p in usable.lhs if x.is_proper_prefix_of(p)}
        dropped = usable.lhs - kept - {x}
        if not nonempty.declares_everything:
            admissible = all(
                p.follows(rhs) or
                nonempty.always_defined(relation, p)
                for p in dropped
            )
            if not admissible:
                continue
        variants.append(_Usable(frozenset(kept) | {x}, rhs,
                                "localized", (usable, x)))
    return variants


def _compile_member(nfd: NFD, nonempty: NonEmptySpec) \
        -> tuple[str, list[_Usable]]:
    """One Sigma member's usables: its simple form plus the admissible
    localized variants, deduplicated within the member."""
    simple = to_simple(nfd)
    relation = simple.relation
    main = _Usable(simple.lhs, simple.rhs, "sigma", nfd)
    usables = [main]
    seen = {main.key()}
    for variant in _localizations(relation, main, nonempty):
        if variant.key() not in seen:
            seen.add(variant.key())
            usables.append(variant)
    return relation, usables


class _SigmaPool:
    """The compiled, shareable part of an engine for one root Sigma.

    Everything here is derived member-by-member from ``(schema, Sigma,
    nonempty)`` and never mutated after construction, so copy-on-write
    probe engines (:meth:`ClosureEngine.without` / ``with_added`` /
    ``replace``) share one pool and mask members in or out instead of
    recompiling usables and dense tables per probe.  Entries are tagged
    with the member index they came from; an engine filters them
    against its active-member set.
    """

    __slots__ = ("schema", "nonempty", "paths", "candidates",
                 "candidate_index", "member_usables", "by_relation",
                 "_dense")

    def __init__(self, schema: Schema, sigma: tuple[NFD, ...],
                 nonempty: NonEmptySpec):
        _COUNTERS["pool_builds"] += 1
        self.schema = schema
        self.nonempty = nonempty
        names = schema.relation_names
        self.paths: dict[str, frozenset[Path]] = {
            n: frozenset(relation_paths(schema, n)) for n in names
        }
        self.candidates: dict[str, list[_SingletonCandidate]] = {
            n: [] for n in names
        }
        self.candidate_index: dict[
            str, dict[frozenset[Path], list[_SingletonCandidate]]
        ] = {n: {} for n in names}
        self._build_singleton_candidates(schema)

        # member-tagged usable structures
        self.member_usables: list[list[_Usable]] = []
        self.by_relation: dict[str, list] = {n: [] for n in names}
        for index, nfd in enumerate(sigma):
            relation, usables = _compile_member(nfd, nonempty)
            self.member_usables.append(usables)
            for usable in usables:
                self.by_relation[relation].append((index, usable))

        # Lazily compiled dense tables, per relation.  A pure cache:
        # the tables depend only on (schema, Sigma members, nonempty),
        # so sharing them between copy-on-write siblings is safe.
        self._dense: dict[str, DenseTables] = {}

    def dense(self, relation: str) -> DenseTables:
        """The relation's dense tables, compiled on first use."""
        tables = self._dense.get(relation)
        if tables is None:
            tables = compile_tables(self, relation)
            self._dense[relation] = tables
        return tables

    def _build_singleton_candidates(self, schema: Schema) -> None:
        for relation in schema.relation_names:
            element = schema.element_type(relation)
            for s in set_paths(schema, relation):
                s_type = type_at(element, s)
                assert isinstance(s_type, SetType)
                attributes = s_type.element.labels
                attribute_paths = frozenset(
                    s.child(label) for label in attributes
                )
                for split_length in range(len(s)):
                    ybar = s[:split_length]
                    prefix_paths = frozenset(
                        ybar[:k] for k in range(1, len(ybar) + 1)
                    )
                    candidate = _SingletonCandidate(
                        s, ybar,
                        premise_lhs=prefix_paths | {s},
                        targets=attribute_paths,
                        usable=None,
                    )
                    candidate.usable = _Usable(
                        prefix_paths | attribute_paths, s, "singleton",
                        candidate,
                    )
                    self.candidates[relation].append(candidate)
                    self.candidate_index[relation].setdefault(
                        candidate.premise_lhs, []).append(candidate)


class _DenseState:
    """One relation's dense saturation state for one engine.

    ``rows`` is the append-only active rule list: the shared tables'
    rows for this engine's active members, the overlay members compiled
    at state creation, then rows appended as singleton candidates
    activate (``pending`` lists the candidates not yet activated).  Each
    query carries its own *specialized* list of the rows that have not
    fired for it yet (``qrows``): members already covered by the query
    key are dropped and ``keyonly`` masks are resolved against the key
    up front, so the hot loop tests nothing but ``acc & mask``.
    ``qmark`` is the per-query watermark into ``rows`` (rows appended
    later are specialized on the query's next fixpoint).
    """

    __slots__ = ("tables", "rows", "acc", "keymask", "bymask", "qrows",
                 "qmark", "cache", "pending", "unsaturated")

    def __init__(self, tables: DenseTables, rows: list):
        self.tables = tables
        self.rows = rows
        self.pending = list(range(len(tables.candidates)))
        self.acc: dict[frozenset[Path], int] = {}
        self.keymask: dict[frozenset[Path], int] = {}
        # keymask -> key, the inverse of keymask (ids are injective):
        # sweeps find a key's drop-one sub-queries as keymask ^ bit
        self.bymask: dict[int, frozenset[Path]] = {}
        self.qrows: dict[frozenset[Path], list] = {}
        self.qmark: dict[frozenset[Path], int] = {}
        # query -> (mask at materialization, frozenset) — rebuilt only
        # when the mask has since grown
        self.cache: dict[frozenset[Path], tuple[int, frozenset[Path]]] \
            = {}
        self.unsaturated: list[frozenset[Path]] = []
        # the singleton premise queries drive candidate activation
        for premise_key, _, _, _ in tables.candidates:
            if premise_key not in self.acc:
                keymask = self.mask(premise_key)
                self.add(premise_key, keymask, keymask)

    def mask(self, paths) -> int:
        """The bitmask of *paths*, rejecting paths outside the universe."""
        ids = self.tables.ids
        mask = 0
        for path in paths:
            bit = ids.get(path)
            if bit is None:
                raise InferenceError(
                    f"path {path} is not well-typed in relation "
                    f"{self.tables.relation!r}")
            mask |= 1 << bit
        return mask

    def add(self, key: frozenset[Path], keymask: int,
            accmask: int) -> None:
        """Register an unsaturated query starting from *accmask*."""
        self.acc[key] = accmask
        self.keymask[key] = keymask
        self.bymask[keymask] = key
        self.qrows[key] = []
        self.qmark[key] = 0
        self.unsaturated.append(key)


class _ReferenceState:
    """One relation's naive reference saturation state for one engine:
    closure sets per query key, activated singleton candidates, the
    active usables, the provenance of every derived path, and per query
    the usable count it was last left saturated under."""

    __slots__ = ("queries", "activated", "usables", "keys", "provenance",
                 "stable")

    def __init__(self, usables: list[_Usable]):
        self.queries: dict[frozenset[Path], set[Path]] = {}
        self.activated: set = set()
        self.usables = usables
        self.keys = {usable.key() for usable in usables}
        # query key -> derived path -> (usable, ((member, used), ...))
        self.provenance: dict[frozenset[Path], dict] = {}
        self.stable: dict[frozenset[Path], int] = {}


class ClosureEngine:
    """Closure computation and implication for a schema and NFD set.

    Example::

        engine = ClosureEngine(schema, nfds)
        engine.implies(NFD.parse("R:A:[B -> E]"))       # True/False
        engine.closure(parse_path("R:A"), {parse_path("B")})
        engine.closure_batch(queries)                   # subset order
        probe = engine.without(2)                       # COW probe
        engine.stats.hit_rate

    The engine keeps its saturation state, so a repeated query is read
    off it and a new one seeds from the queries it already holds.
    Queries run on the dense kernel; :meth:`reference_closure` answers
    the same questions with the naive object-level reference
    saturation, and :meth:`explain` replays it to justify an answer.

    Probing nearby Sigmas is copy-on-write: :meth:`without`,
    :meth:`with_added`, and :meth:`replace` return sibling engines that
    share this engine's compiled pool (usables, dense tables, typed path
    sets, singleton candidates) and compile only members the pool has
    never seen.
    """

    def __init__(self, schema: Schema, sigma: Iterable[NFD],
                 nonempty: NonEmptySpec | None = None, *,
                 tracer=None, _cow=None, _fingerprint: str | None = None):
        self.schema = schema
        self.nonempty = nonempty if nonempty is not None \
            else NonEmptySpec.all_nonempty()
        self.sigma = tuple(sigma)
        # Observability: a repro.obs.Tracer, or None (the default) for
        # the untraced fast path.
        self.tracer = tracer
        # hashed on first read (or handed in by the daemon's pool):
        # most engines never read it, and it costs a small one's build
        self._fingerprint = _fingerprint

        if _cow is None:
            for nfd in self.sigma:
                nfd.check_well_formed(schema)
            if tracer is None:
                self._pool = _SigmaPool(schema, self.sigma,
                                        self.nonempty)
            else:
                with tracer.span("closure.compile_pool",
                                 members=len(self.sigma)):
                    self._pool = _SigmaPool(schema, self.sigma,
                                            self.nonempty)
            # own Sigma index -> pool member index (None = overlay)
            self._member_map: tuple = tuple(range(len(self.sigma)))
        else:
            self._pool, self._member_map = _cow
        self._active = frozenset(
            index for index in self._member_map if index is not None
        )

        # Overlay: usables of members added or replaced after the pool
        # was compiled.  They never touch the shared pool, so sibling
        # engines are unaffected.
        self._overlay_usables: dict[str, list[_Usable]] = {
            n: [] for n in schema.relation_names
        }
        for own_index, pool_index in enumerate(self._member_map):
            if pool_index is not None:
                continue
            nfd = self.sigma[own_index]
            nfd.check_well_formed(schema)
            relation, usables = _compile_member(nfd, self.nonempty)
            self._overlay_usables[relation].extend(usables)

        # per-relation saturation state, built on first use
        self._dense_states: dict[str, _DenseState] = {}
        self._references: dict[str, _ReferenceState] = {}

        # counters behind the `stats` snapshot
        self._saturations = 0
        self._rounds = 0
        self._attempts = 0
        self._successes = 0
        self._wall_time = 0.0
        self._mask_tests = 0
        self._dense_seeds = 0
        # closure queries answered, and those the state already held
        # saturated
        self._queries = 0
        self._hits = 0

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self.sigma):
            raise InferenceError(
                f"no Sigma member at index {index}; Sigma has "
                f"{len(self.sigma)} member(s)"
            )

    def _sibling(self, sigma: tuple, member_map: tuple) \
            -> "ClosureEngine":
        return ClosureEngine(self.schema, sigma, self.nonempty,
                             tracer=self.tracer,
                             _cow=(self._pool, member_map))

    def without(self, index: int) -> "ClosureEngine":
        """A sibling engine over Sigma minus member *index*.

        Copy-on-write: shares this engine's compiled pool (usables,
        dense tables, typed path sets, singleton candidates) and masks
        the member out, so redundancy and cover computations that probe
        each member against the rest avoid recompiling anything.
        Saturation state is *not* shared — removing a member
        invalidates derived closures.
        """
        self._check_index(index)
        return self._sibling(
            self.sigma[:index] + self.sigma[index + 1:],
            self._member_map[:index] + self._member_map[index + 1:])

    def with_added(self, nfd: NFD) -> "ClosureEngine":
        """A sibling engine over Sigma plus *nfd* (appended).

        Copy-on-write like :meth:`without`: only the new member is
        compiled; everything else is shared with this engine.
        """
        return self._sibling(self.sigma + (nfd,),
                             self._member_map + (None,))

    def replace(self, index: int, nfd: NFD) -> "ClosureEngine":
        """A sibling engine with member *index* replaced by *nfd*.

        Keeps Sigma order (unlike ``without(i).with_added(nfd)``), so
        positional bookkeeping in callers survives the swap.  Only the
        replacement member is compiled.
        """
        self._check_index(index)
        return self._sibling(
            self.sigma[:index] + (nfd,) + self.sigma[index + 1:],
            self._member_map[:index] + (None,) +
            self._member_map[index + 1:])

    # -- observability -----------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """The canonical Σ fingerprint (:func:`sigma_fingerprint`),
        computed on first read."""
        if self._fingerprint is None:
            self._fingerprint = sigma_fingerprint(
                self.schema, self.sigma, self.nonempty)
        return self._fingerprint

    @property
    def engine(self) -> "ClosureEngine":
        """The engine itself.  Kept, with the :data:`ImplicationSession`
        alias, for existing readers of the former session's
        ``session.engine``; both go with the next benchmark change."""
        return self

    def snapshot(self) -> EngineStats:
        """An explicit alias of :attr:`stats`: counters are cumulative
        and never reset in place; measure windows with
        ``engine.snapshot()`` before / after and
        :meth:`EngineStats.diff`."""
        return self.stats

    @property
    def stats(self) -> EngineStats:
        """A point-in-time :class:`EngineStats` snapshot."""
        usables: dict[str, int] = {}
        activated: dict[str, int] = {}
        held: dict[str, int] = {}
        derived: dict[str, int] = {}
        interned: dict[str, int] = {}
        for relation in self.schema.relation_names:
            state = self._dense_states.get(relation)
            if state is None:
                usables[relation] = sum(
                    1 for _ in self._all_usables(relation))
                activated[relation] = held[relation] = 0
                derived[relation] = interned[relation] = 0
                continue
            usables[relation] = len(state.rows)
            activated[relation] = \
                len(state.tables.candidates) - len(state.pending)
            held[relation] = len(state.acc)
            derived[relation] = sum(
                mask.bit_count() - len(key)
                for key, mask in state.acc.items()
            )
            interned[relation] = len(state.tables.paths)
        return EngineStats(
            fingerprint=self.fingerprint,
            queries=self._queries,
            hits=self._hits,
            saturations=self._saturations,
            rounds=self._rounds,
            attempts=self._attempts,
            successes=self._successes,
            wall_time=self._wall_time,
            usables=usables,
            candidates={r: len(c)
                        for r, c in self._pool.candidates.items()},
            activated=activated,
            held=held,
            derived=derived,
            mask_tests=self._mask_tests,
            dense_seeds=self._dense_seeds,
            interned=interned,
        )

    @property
    def query_count(self) -> int:
        """Closure queries the engine holds, over every relation."""
        return sum(len(state.acc) for state in self._dense_states.values())

    def _all_usables(self, relation: str):
        """Every usable active for this engine: the shared pool masked
        by the active-member set, then the overlay."""
        for member, usable in self._pool.by_relation.get(relation, ()):
            if member in self._active:
                yield usable
        yield from self._overlay_usables[relation]

    # -- dense saturation ----------------------------------------------------

    def _dense_state(self, relation: str) -> _DenseState:
        state = self._dense_states.get(relation)
        if state is None:
            tables = self._pool.dense(relation)
            rows: list = []
            for index in sorted(self._active):
                rows.extend(tables.member_rows[index])
            for usable in self._overlay_usables[relation]:
                rows.append(compile_row(tables.ids, relation,
                                        usable.lhs, usable.rhs,
                                        self.nonempty))
            state = _DenseState(tables, rows)
            self._dense_states[relation] = state
        return state

    def _saturate(self, relation: str) -> None:
        """Run the kernel to a fixpoint, counting the work.

        When a span is already open (an analysis sweep, say) the
        saturation is its inner step, so the deltas
        are charged to that span instead of opening one span per
        saturation, which would roughly double the trace for no
        information.  Only a *root* saturation (no enclosing span) opens
        its own ``closure.saturate`` span."""
        tracer = self.tracer
        if tracer is None:
            self._run_saturation(relation)
        elif tracer.current is not None:
            self._saturate_counted(relation, tracer.current)
        else:
            with tracer.span("closure.saturate",
                             relation=relation) as span:
                self._saturate_counted(relation, span)

    def _saturate_counted(self, relation: str, span) -> None:
        """Run one saturation, adding counter deltas to *span*."""
        before_attempts = self._attempts
        before_successes = self._successes
        before_rounds = self._rounds
        self._run_saturation(relation)
        add = span.add
        add("saturations")
        add("attempts", self._attempts - before_attempts)
        add("successes", self._successes - before_successes)
        add("rounds", self._rounds - before_rounds)

    def _run_saturation(self, relation: str) -> None:
        """Saturate via the interned-bitmask kernel.

        New queries run their own mask fixpoint; singleton candidates
        activate when their premise query's accumulator covers the
        target mask, appending precompiled rows to the active list and
        re-running every query's fixpoint (per-query watermarks pick up
        exactly the appended rows).  The alternation repeats until no
        activation fires and no query grows — the same least fixpoint
        the reference saturation reaches, because both saturate the
        same monotone step operator over the same rule pool.
        """
        started = time.perf_counter()
        self._saturations += 1
        _COUNTERS["saturations"] += 1
        state = self._dense_state(relation)
        acc = state.acc
        while True:
            progress = False
            while state.unsaturated:
                key = state.unsaturated.pop()
                if self._dense_fixpoint(state, key):
                    progress = True
            if state.pending:
                still: list[int] = []
                for index in state.pending:
                    premise_key, target_mask, rows, _ = \
                        state.tables.candidates[index]
                    if acc[premise_key] & target_mask == target_mask:
                        state.rows.extend(rows)
                    else:
                        still.append(index)
                if len(still) < len(state.pending):
                    state.pending = still
                    # new rows may fire anywhere: revisit every query
                    state.unsaturated.extend(acc)
                    progress = True
            if not progress:
                break
        self._wall_time += time.perf_counter() - started

    def _dense_fixpoint(self, state: _DenseState,
                        key: frozenset[Path]) -> bool:
        """Run one query's mask fixpoint; True if the closure grew."""
        active = state.rows
        qrows = state.qrows[key]
        mark = state.qmark[key]
        if mark < len(active):
            # specialize rows appended since the last visit: members
            # covered by the key drop out, keyonly masks resolve now;
            # rows the key doesn't touch reuse the shared default list
            keymask = state.keymask[key]
            for rhs_bit, members, union, default in active[mark:]:
                if not keymask & union:
                    if default is not None:
                        qrows.append((rhs_bit, default))
                    continue
                masks = []
                dead = False
                for uncond, keyonly in members:
                    if (uncond & keymask) or (keyonly & keymask):
                        continue  # covered from the seed on
                    if not uncond:
                        dead = True  # key-gated options can never open
                        break
                    masks.append(uncond)
                if not dead:
                    qrows.append((rhs_bit, masks))
            state.qmark[key] = len(active)
        acc = state.acc[key]
        start = acc
        passes = 0
        scans = 0
        # work on the rows not yet fired for this query; each pass
        # drops the rows that fired, so late passes scan only the tail
        pending = [row for row in qrows if not acc & row[0]]
        progress = True
        while progress and pending:
            progress = False
            passes += 1
            scans += len(pending)
            remaining = []
            for row in pending:
                if acc & row[0]:
                    continue  # a sibling row already derived this rhs
                for mask in row[1]:
                    if not acc & mask:
                        remaining.append(row)
                        break
                else:
                    acc |= row[0]
                    progress = True
            pending = remaining
        # keep only the rows that can still fire: a fired row (or one
        # whose rhs a sibling derived) is dead weight for this query
        state.qrows[key] = pending
        self._rounds += passes
        self._attempts += scans
        self._mask_tests += scans
        _COUNTERS["attempts"] += scans
        if acc == start:
            return False
        state.acc[key] = acc
        self._successes += (acc ^ start).bit_count()
        return True

    def _dense_result(self, state: _DenseState,
                      key: frozenset[Path]) -> frozenset[Path]:
        """Materialize a saturated dense query back into paths."""
        mask = state.acc[key]
        cached = state.cache.get(key)
        if cached is not None and cached[0] == mask:
            return cached[1]
        paths = state.tables.paths
        result = frozenset(paths[i] for i in bit_indices(mask))
        state.cache[key] = (mask, result)
        return result

    def _register(self, state: _DenseState, key: frozenset[Path],
                  keymask: int) -> None:
        """Register a new query for *key*, seeded from its drop-one
        sub-queries.

        Every query the state holds under ``keymask ^ bit`` (found in
        the ``keymask -> key`` index, no path set built) asks about a
        subset of *key*, so its accumulator lies in ``CL(key)`` by
        monotonicity — ``X ⊆ Y`` implies ``CL(X) ⊆ CL(Y)`` in both the
        plain and the gated systems, because enlarging the query key
        only loosens the Section 3.2 gates — and so does the union of
        them all.  Batches visit keys in subset order, so a sweep finds
        every sub-combination already saturated and pays for the new
        derivations only."""
        acc = state.acc
        bymask = state.bymask
        accmask = keymask
        seeded = False
        rest = keymask
        while rest:
            bit = rest & -rest
            rest ^= bit
            sub = bymask.get(keymask ^ bit)
            if sub is not None:
                accmask |= acc[sub]
                seeded = True
        if seeded:
            self._dense_seeds += 1
        state.add(key, keymask, accmask)

    def _closure_key(self, relation: str,
                     key: frozenset[Path]) -> frozenset[Path]:
        """``CL(key)`` at a relation-name base: read off the state when
        the engine already holds *key* saturated (no saturation loop),
        otherwise registered, seeded and saturated."""
        state = self._dense_state(relation)
        self._queries += 1
        if key in state.acc and not state.unsaturated:
            self._hits += 1
        else:
            if key not in state.acc:
                self._register(state, key, state.mask(key))
            self._saturate(relation)
        return self._dense_result(state, key)

    # -- public API -----------------------------------------------------------

    def closure_simple(self, relation: str, lhs: Iterable[Path]) \
            -> frozenset[Path]:
        """``CL(L)`` at a relation-name base: all derivable RHS paths.

        The result contains the seed paths themselves (reflexivity) and
        is restricted to well-typed paths of the relation.
        """
        if relation not in self.schema:
            raise InferenceError(f"unknown relation {relation!r}")
        return self._closure_key(relation, frozenset(lhs))

    def _push_in(self, base: Path, lhs: Iterable[Path]):
        """The simple-form translation of a closure query at *base*:
        ``(relation, ybar, lhs_set, simple_lhs)``."""
        try:
            resolve_base_path(self.schema, base)
        except PathError as exc:
            raise InferenceError(f"bad closure base: {exc}") from exc
        relation = base.first
        ybar = base.tail
        lhs_set = frozenset(lhs)
        prefix_paths = {ybar[:k] for k in range(1, len(ybar) + 1)}
        simple_lhs = prefix_paths | {ybar.concat(x) for x in lhs_set}
        return relation, ybar, lhs_set, frozenset(simple_lhs)

    def _pull_out(self, base: Path, relation: str, ybar: Path,
                  lhs_set: frozenset[Path],
                  simple_closure: frozenset[Path]) -> frozenset[Path]:
        """The local reading of a saturated simple closure, applying the
        gated pull-out rules of Section 3.2 when needed."""
        if ybar.is_empty:
            # relation-name base: stripping an empty prefix is the
            # identity and the closure never contains the empty path,
            # so the simple closure IS the local reading (the gated
            # branch below also returns `result` unchanged here)
            return simple_closure
        result = frozenset(
            p.strip_prefix(ybar) for p in simple_closure
            if ybar.is_proper_prefix_of(p)
        )
        if self.nonempty.declares_everything or ybar.is_empty:
            return result
        # Base-chain gate: a set at depth >= 2 of the chain can be empty
        # in one branch while a sibling branch carries a live local
        # constraint, so those positions must be declared non-empty.
        # The first level is exempt: one branch point per tuple means
        # emptiness there kills the tuple's local constraints entirely,
        # which the simple form's excusal matches exactly.
        chain_defined = all(
            self.nonempty.is_declared(relation, ybar[:k])
            for k in range(2, len(ybar) + 1)
        )
        lhs_defined = chain_defined and all(
            self.nonempty.always_defined(relation, p, base_tail=ybar)
            for p in lhs_set
        )
        gated: set[Path] = set()
        for q in result:
            if q in lhs_set:
                gated.add(q)  # reflexivity needs no gate
            elif lhs_defined and self.nonempty.always_defined(
                    relation, q, base_tail=ybar):
                gated.add(q)
            elif self._stated_at_base(base, lhs_set, q):
                gated.add(q)
        return frozenset(gated)

    def closure(self, base: Path, lhs: Iterable[Path]) \
            -> frozenset[Path]:
        """``(x0, X, Sigma)*`` relative to the base path *x0*.

        Returns the relative paths ``q`` such that ``x0:[X -> q]`` is
        derivable, computed through the simple-form translation::

            x0:[X -> q]  <=>  R:[prefixes(ybar), ybar:X -> ybar:q]

        :raises InferenceError: when *base* is empty, does not start
            with a relation name of the schema, or does not reach a
            set-valued position.

        In gated (Section 3.2) mode the backward direction of that
        equivalence — pull-out — needs its own definedness gate: with
        empty sets, Definition 2.4's trivially-true clause can excuse a
        *simple-form* pair because of an undefined branch in one element
        of the base set while the *local* form still constrains a
        sibling element.  A simple-form derivation therefore only
        transfers to the local reading when every LHS path and the
        conclusion traverse only sets declared non-empty (inside the
        base's elements); NFDs stated at this exact base in Sigma are
        additionally honoured directly (augmentation is sound under
        empty sets).
        """
        relation, ybar, lhs_set, simple_lhs = self._push_in(base, lhs)
        simple_closure = self.closure_simple(relation, simple_lhs)
        return self._pull_out(base, relation, ybar, lhs_set,
                              simple_closure)

    def closure_batch(self, queries) -> list[frozenset[Path]]:
        """Batch :meth:`closure`: one result per ``(base, lhs)`` pair.

        Answers are identical to mapping :meth:`closure` over the
        batch, but the engine visits the distinct simple-form keys in
        subset order (ascending size, then canonical text), so each new
        key finds its drop-one sub-queries already saturated and seeds
        from them.  Results come back in input order.
        """
        prepared = []
        for base, lhs in queries:
            relation, ybar, lhs_set, simple_lhs = \
                self._push_in(base, lhs)
            prepared.append((base, relation, ybar, lhs_set, simple_lhs))
        order = sorted(
            range(len(prepared)),
            key=lambda i: (len(prepared[i][4]),
                           tuple(sorted(str(p) for p in prepared[i][4])))
        )
        computed: dict[tuple[str, frozenset[Path]], frozenset[Path]] = {}
        for i in order:
            _, relation, _, _, simple_lhs = prepared[i]
            slot = (relation, simple_lhs)
            if slot not in computed:
                computed[slot] = self._closure_key(relation, simple_lhs)
        return [
            self._pull_out(base, relation, ybar, lhs_set,
                           computed[(relation, simple_lhs)])
            for base, relation, ybar, lhs_set, simple_lhs in prepared
        ]

    def covers_batch(self, queries_base: Path, candidates,
                    targets: Iterable[Path]) -> list[bool]:
        """Batch verdicts: does ``closure(base, candidate)`` contain
        every path of *targets*, for each candidate?

        Answers equal ``[targets <= closure(base, c) for c in
        candidates]``.  At a relation-name base each verdict is read
        straight off the saturated accumulator mask — no closure is ever
        materialized back into path objects, which is the dominant
        non-kernel cost of a key sweep.  Nested bases, whose pull-out
        gating needs the path-level reading, route through
        :meth:`closure_batch`.
        """
        target_set = frozenset(targets)
        prepared = [frozenset(candidate) for candidate in candidates]
        if queries_base.tail.is_empty and queries_base.first in self.schema:
            return self._covers_batch_dense(queries_base.first, prepared,
                                           target_set)
        closures = self.closure_batch(
            [(queries_base, candidate) for candidate in prepared])
        return [target_set <= closed for closed in closures]

    def _covers_batch_dense(self, relation: str,
                           keys: list[frozenset[Path]],
                           targets: frozenset[Path]) -> list[bool]:
        """Mask-only sweep: saturate each new candidate in subset order,
        seeded by :meth:`_register`, then answer every verdict with one
        ``acc & target == target`` test.

        The subset-order sort reads one ``path -> text`` table instead
        of rendering every member of every key, and each path's bit is
        looked up once per call."""
        state = self._dense_state(relation)
        target_mask = state.mask(targets)
        text = {path: str(path) for path in frozenset().union(*keys)}
        order = sorted(
            range(len(keys)),
            key=lambda i: (len(keys[i]),
                           tuple(sorted([text[p] for p in keys[i]])))
        )
        acc = state.acc
        bits: dict[Path, int] = {}
        for i in order:
            key = keys[i]
            if key in acc:
                continue
            keymask = 0
            for path in key:
                bit = bits.get(path)
                if bit is None:
                    bit = bits[path] = state.mask((path,))
                keymask |= bit
            self._register(state, key, keymask)
            self._saturate(relation)
        if state.unsaturated:
            # a key that coincides with a singleton premise query made
            # with a fresh state exists before its first saturation
            self._saturate(relation)
        self._mask_tests += len(keys)
        return [acc[key] & target_mask == target_mask for key in keys]

    def _stated_at_base(self, base: Path, lhs_set: frozenset[Path],
                        q: Path) -> bool:
        """Is ``base:[lhs -> q]`` a (possibly augmented) Sigma member?"""
        return any(
            nfd.base == base and nfd.rhs == q and nfd.lhs <= lhs_set
            for nfd in self.sigma
        )

    def implies(self, nfd: NFD) -> bool:
        """Decide ``Sigma |= nfd`` (Definition 3.1) via the closure."""
        try:
            nfd.check_well_formed(self.schema)
        except NFDError as exc:
            raise InferenceError(str(exc)) from exc
        return nfd.rhs in self.closure(nfd.base, nfd.lhs)

    def implies_all(self, nfds: Iterable[NFD]) -> bool:
        """True iff every NFD in *nfds* is implied.

        Runs the closures as one :meth:`closure_batch` batch, so a cover
        check over a whole Σ pays for each distinct simple LHS once."""
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

    # -- the naive reference ----------------------------------------------

    def reference_closure(self, base: Path, lhs: Iterable[Path]) \
            -> frozenset[Path]:
        """:meth:`closure` computed by the naive reference saturation.

        The same answer as :meth:`closure`, reached by the object-level
        global fixpoint instead of the dense kernel — the oracle the
        kernel is tested against.
        """
        relation, ybar, lhs_set, simple_lhs = self._push_in(base, lhs)
        self.replay(relation, simple_lhs)
        simple_closure = frozenset(
            self._references[relation].queries[simple_lhs])
        return self._pull_out(base, relation, ybar, lhs_set,
                              simple_closure)

    def replay(self, relation: str, key: frozenset[Path]) -> dict:
        """Saturate ``CL(key)`` with the naive reference and return the
        relation's provenance: query key -> derived path -> ``(usable,
        ((member, covering path), ...))``.

        Each path is recorded when it is first derived, from paths
        derived before it, and a singleton candidate activates only once
        its premise closure holds every target, so following the
        records from any derived path always terminates.
        """
        state = self._references.get(relation)
        if state is None:
            state = _ReferenceState(list(self._all_usables(relation)))
            for candidate in self._pool.candidates[relation]:
                state.queries.setdefault(candidate.premise_lhs,
                                         set(candidate.premise_lhs))
            self._references[relation] = state
        state.queries.setdefault(key, set(key))
        self._saturate_naive(relation, state)
        return state.provenance

    def _saturate_naive(self, relation: str,
                        state: _ReferenceState) -> None:
        """The reference global fixpoint: rescan every candidate and
        re-attempt every usable against every query until stable.

        A query left saturated by an earlier replay is skipped until an
        activation appends usables (a rescan reads only its own closure
        and the usables, so it would fire nothing): one more query costs
        its own scans, and each round derives what a full rescan would."""
        while True:
            changed = False
            for candidate in self._pool.candidates[relation]:
                if candidate.key() in state.activated:
                    continue
                if candidate.targets <= \
                        state.queries[candidate.premise_lhs]:
                    state.activated.add(candidate.key())
                    usable = candidate.usable
                    for new in [usable] + _localizations(
                            relation, usable, self.nonempty):
                        if new.key() not in state.keys:
                            state.keys.add(new.key())
                            state.usables.append(new)
                    changed = True
            count = len(state.usables)
            for key, closure_set in state.queries.items():
                if state.stable.get(key) == count:
                    continue
                for usable in state.usables:
                    if self._apply_usable(relation, state, key,
                                          closure_set, usable):
                        changed = True
            if not changed:
                state.stable = dict.fromkeys(state.queries, count)
                return

    def _apply_usable(self, relation: str, state: _ReferenceState,
                      key: frozenset[Path], closure_set: set[Path],
                      usable: _Usable) -> bool:
        """Try one transitivity step; returns True if the closure grew."""
        if usable.rhs in closure_set:
            return False
        member_pairs: list[tuple[Path, Path]] = []
        for member in usable.lhs:
            found = self._coverage(relation, member, key, closure_set,
                                   usable.rhs)
            if found is None:
                return False
            member_pairs.append((member, found))
        closure_set.add(usable.rhs)
        state.provenance.setdefault(key, {})[usable.rhs] = \
            (usable, tuple(member_pairs))
        return True

    def _coverage(self, relation: str, member: Path,
                  key: frozenset[Path], closure_set: set[Path],
                  rhs: Path) -> Path | None:
        """The covering path to use for one LHS member, or None.

        A covering path is *member* itself, or — through the prefix
        rule — a non-empty proper prefix ``member[:k]`` that is in the
        closure and not a prefix of *rhs*; in gated mode shortening to
        ``member[:k]`` additionally requires every shortening result
        ``member[:j]``, ``k <= j < len(member)``, declared non-empty,
        and any covering path must pass the Section 3.2 transitivity
        gate (be part of the query key, follow *rhs*, or be always
        defined).  All admissible options are considered — each
        corresponds to a valid derivation — preferring *member* itself,
        then the longest admissible prefix.
        """
        gated = not self.nonempty.declares_everything
        if member in closure_set and (
                not gated or
                self._intermediate_ok(relation, member, key, rhs)):
            return member
        for k in range(len(member) - 1, 0, -1):
            shortened = member[:k]
            if gated and not self.nonempty.is_declared(relation,
                                                       shortened):
                # shortening past this position is gated off, and every
                # shorter prefix would have to shorten through it
                return None
            if shortened in closure_set and \
                    not shortened.is_prefix_of(rhs) and (
                        not gated or
                        self._intermediate_ok(relation, shortened, key,
                                              rhs)):
                return shortened
        return None

    def _intermediate_ok(self, relation: str, used: Path,
                         key: frozenset[Path], rhs: Path) -> bool:
        """Section 3.2 transitivity gate for one intermediate path."""
        return used in key or used.follows(rhs) or \
            self.nonempty.always_defined(relation, used)

    # -- explanations ------------------------------------------------------------

    def explain(self, nfd: NFD) -> "Explanation":
        """A human-readable justification of why *nfd* is implied.

        Replays the naive reference saturation for the NFD's simple
        form (:meth:`replay`) and reads the steps off its provenance:
        each derived path points at the usable NFD that produced it
        (a Sigma member, a full-locality variant, or a gated singleton
        NFD) and, recursively, at the justifications of the paths its
        LHS needed.  Raises :class:`InferenceError` when the NFD is not
        implied.
        """
        if not self.implies(nfd):
            raise InferenceError(
                f"{nfd} is not implied; ask find_countermodel for a "
                "separating instance instead"
            )
        relation = nfd.relation
        simple = to_simple(nfd)
        key = frozenset(simple.lhs)
        return Explanation(self, nfd, relation, key, simple.rhs,
                           self.replay(relation, key))


#: The engine's former serving-layer name, kept for existing readers
#: with :attr:`ClosureEngine.engine`; both go with the next benchmark
#: change.
ImplicationSession = ClosureEngine


class Explanation:
    """A lazy justification tree over the reference provenance."""

    def __init__(self, engine: ClosureEngine, nfd: NFD, relation: str,
                 key: frozenset[Path], target: Path, provenance: dict):
        self.engine = engine
        self.provenance = provenance
        self.nfd = nfd
        self.relation = relation
        self.key = key
        self.target = target

    def to_text(self) -> str:
        lines = [f"{self.nfd} holds:"]
        if len(self.nfd.base) > 1:
            simple = to_simple(self.nfd)
            lines.append(
                f"  in simple form (push-in): {simple}"
            )
        seen: set[tuple] = set()
        self._justify(self.target, self.key, 1, lines, seen)
        return "\n".join(lines)

    def _justify(self, path: Path, key: frozenset[Path], depth: int,
                 lines: list[str], seen: set[tuple]) -> None:
        pad = "  " * depth
        slot = (key, path)
        if path in key:
            lines.append(f"{pad}{path} is given (reflexivity)")
            return
        if slot in seen:
            lines.append(f"{pad}{path}: shown above")
            return
        seen.add(slot)
        record = self.provenance.get(key, {}).get(path)
        if record is None:  # pragma: no cover - defensive
            lines.append(f"{pad}{path}: (no recorded step)")
            return
        usable, member_pairs = record
        lines.append(
            f"{pad}{path} by transitivity with "
            f"{usable.describe(self.engine.sigma)}"
        )
        if usable.origin == "singleton":
            candidate = usable.detail
            lines.append(
                f"{pad}  singleton premises: every attribute of "
                f"{candidate.set_path} is determined by the set "
                f"(closure of {sorted(map(str, candidate.premise_lhs))})"
            )
        for member, used in member_pairs:
            if used != member:
                lines.append(
                    f"{pad}  {member} covered via its prefix {used} "
                    "(prefix rule)"
                )
            self._justify(used, key, depth + 1, lines, seen)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Explanation(of={self.nfd})"
