"""Out-of-core streaming validation with spill-to-disk group tables.

:class:`~repro.nfd.batch_validate.ValidatorEngine` answers Definition
2.4 in one walk, but it walks a live in-memory instance — the whole
nested relation must fit in RAM before the first element is checked.
This module is the out-of-core counterpart: the same compiled path-trie
plans, fed one top-level element at a time from a chunked source (a
JSONL dump via :func:`repro.io.stream.iter_jsonl_elements`, or an
in-memory set via :func:`repro.io.stream.iter_set_elements`), with
memory bounded by a :class:`ResourceBudget` instead of by the instance.

How the two NFD shapes stream
-----------------------------

*Root-anchored* NFDs (base path = the bare relation name) relate
arbitrary pairs of top-level elements, so their group state is
inherently cross-element.  Each element's ``(antecedent key, RHS)``
bindings are folded into a per-NFD **aggregate** per key::

    [key, first_seq, first_rhs, first_elem,
          clash_seq, clash_rhs, clash_elem]

``first`` is the earliest binding for the key (by emission sequence),
``clash`` the earliest binding whose RHS differs from ``first_rhs`` —
exactly the witness the in-memory exhaustive walk reports for the key.
The aggregate is a constant-size exact summary, and merging two
aggregates of disjoint binding sets is again exact (the earliest
differing binding of the union is always among the four retained
bindings), so aggregates can be spilled, re-read, and merged in any
grouping without changing the final witnesses.

*Nested-anchored* NFDs only ever relate bindings inside a single
top-level element, so they need no cross-element state at all: each
element is walked with the batch engine's own scope-tree walk, masked
to the nested plans, and witnesses fall out immediately.

Spill format
------------

When the budget's ``max_resident_rows`` would be exceeded, every group
table is frozen into a sorted **run**: aggregates ordered by the
injective :func:`~repro.values.canonical.canonical_bytes` encoding of
their keys (``repr`` would not do — record equality ignores field
order), written as a stream of pickled *chunks* — lists of
``(key_bytes, aggregate)`` pairs (``_SPILL_CHUNK`` pairs per pickle
frame, so the pickler's memo deduplicates values shared across a chunk
and the per-item call overhead amortizes).  Aggregates are frozen to
scalar/tuple trees (:func:`~repro.values.value.freeze_value`) before
pickling and thawed on read, which skips the per-node ``__reduce__``
dispatch and validating-constructor re-walk of pickled Value objects;
witness elements go to a sidecar (:class:`_ElementStore`) and are read
back only for groups that violate.  A run's pair count is kept beside
its path and checked on read.  The final merge is a k-way
:func:`heapq.merge` over the runs plus the resident table, folding
equal-key aggregates with :func:`_merge_agg` — hash-grouping below
budget and external sort-merge above it produce byte-identical
witnesses.

The hot path
------------

There is one consume loop and no switches.  Group tables are plain
dicts keyed by canonical key bytes.  Binding emission is batched per
relation: each element's branch rows are materialized once, and every
NFD sharing the base path folds its whole binding list in one pre-bound
loop.  Keys are encoded through an always-on
:class:`~repro.values.canonical.InternPool`, which caches the canonical
encoding of every value seen and assembles keys in one reused scratch
buffer; its hit/miss counters land in :class:`StreamStats`.

Sharding
--------

:func:`shard_validate` runs one streaming engine per input shard via
:func:`repro.parallel.process_map`, then folds the per-shard group
summaries into a driver engine **in task order** (the `_absorb`
discipline of the batch fan-out).  Emission sequences are
``(shard, local)`` pairs, lexicographically ordered like the
concatenated stream, so cross-shard conflicts — where no single shard
holds both clashing elements — surface with the same witnesses a
serial scan would report.

Cleanup
-------

A spill file that cannot be written (a full disk) or read back whole
(a torn run, a truncated sidecar) raises
:class:`~repro.errors.StreamError`, never a wrong verdict.  Every
spilled run and summary file is removed by :meth:`cleanup`, which all
abnormal exits route through: :func:`stream_validate` and
:func:`shard_validate` call it in ``finally``, shard workers call it
when their stream raises mid-shard, and :class:`StreamValidator` is a
context manager (``with StreamValidator(...) as sv``) for direct use.
"""

from __future__ import annotations

import heapq
import os
import pickle
import shutil
import tempfile
import time
from itertools import chain, islice
from typing import Any, Iterable, Iterator, Mapping

from ..errors import InstanceError, StreamError, ValueError_
from ..types.schema import Schema
from ..values.canonical import InternPool, canonical_key_bytes
from ..values.value import freeze_value, thaw_value
from .batch_validate import ValidatorEngine, _Run
from .nfd import NFD
from .violations import Violation

__all__ = [
    "ResourceBudget",
    "StreamStats",
    "StreamResult",
    "StreamValidator",
    "stream_validate",
    "shard_validate",
]


#: ``(key_bytes, aggregate)`` pairs per pickle frame of a spill run.
_SPILL_CHUNK = 64

#: Entries of the per-engine canonical-encoding intern pool.
_POOL_ENTRIES = 1 << 16


class ResourceBudget:
    """Resource limits for one streaming validation.

    * ``max_resident_rows`` — cap on group-table aggregates resident in
      memory per engine; reaching it spills every table to a sorted
      on-disk run.  Peak residency never exceeds the cap.
    * ``deadline`` — wall-clock seconds per engine (per shard, in a
      sharded run); when it passes, the engine stops consuming and
      reports a partial result instead of raising.  ``deadline=0``
      means *already exhausted*: the engine stops before consuming its
      first element (it is not "no deadline" — that is ``None``).
    * ``max_elements`` — cap on elements consumed per engine (per
      shard).

    ``None`` for any field means unlimited.  Exhaustion is cooperative:
    checks happen between elements, the element being processed always
    completes, and everything consumed so far is still merged and
    reported.
    """

    def __init__(self, max_resident_rows: int | None = None,
                 deadline: float | None = None,
                 max_elements: int | None = None):
        if max_resident_rows is not None and max_resident_rows < 1:
            raise ValueError_(
                f"max_resident_rows must be >= 1, got {max_resident_rows}")
        if deadline is not None and deadline < 0:
            raise ValueError_(f"deadline must be >= 0, got {deadline}")
        if max_elements is not None and max_elements < 0:
            raise ValueError_(
                f"max_elements must be >= 0, got {max_elements}")
        self.max_resident_rows = max_resident_rows
        self.deadline = deadline
        self.max_elements = max_elements

    def __repr__(self) -> str:
        return (f"ResourceBudget(max_resident_rows="
                f"{self.max_resident_rows}, deadline={self.deadline}, "
                f"max_elements={self.max_elements})")


class StreamStats:
    """Counters of one streaming validation (engine or merged run).

    * ``elements_seen`` — top-level elements consumed;
    * ``rows_emitted`` — ``(key, rhs)`` bindings folded into root group
      tables;
    * ``peak_resident_rows`` — high-water mark of resident group-table
      aggregates (``<= max_resident_rows`` whenever a budget is set);
    * ``spills`` — budget-triggered spill events;
    * ``rows_spilled`` / ``runs_written`` / ``bytes_spilled`` — run-file
      volume;
    * ``runs_merged`` — run files fed into merge passes;
    * ``groups_merged`` — distinct antecedent keys produced by merges;
    * ``intern_hits`` / ``intern_misses`` — canonical-encoding pool
      probes;
    * ``wall_time`` — seconds spent consuming and merging.
    """

    __slots__ = ("elements_seen", "rows_emitted", "peak_resident_rows",
                 "spills", "rows_spilled", "runs_written",
                 "bytes_spilled", "runs_merged", "groups_merged",
                 "intern_hits", "intern_misses", "wall_time")

    def __init__(self, elements_seen: int = 0, rows_emitted: int = 0,
                 peak_resident_rows: int = 0, spills: int = 0,
                 rows_spilled: int = 0, runs_written: int = 0,
                 bytes_spilled: int = 0, runs_merged: int = 0,
                 groups_merged: int = 0, intern_hits: int = 0,
                 intern_misses: int = 0, wall_time: float = 0.0):
        self.elements_seen = elements_seen
        self.rows_emitted = rows_emitted
        self.peak_resident_rows = peak_resident_rows
        self.spills = spills
        self.rows_spilled = rows_spilled
        self.runs_written = runs_written
        self.bytes_spilled = bytes_spilled
        self.runs_merged = runs_merged
        self.groups_merged = groups_merged
        self.intern_hits = intern_hits
        self.intern_misses = intern_misses
        self.wall_time = wall_time

    def as_dict(self) -> dict:
        """The snapshot as a plain (JSON-friendly) dictionary."""
        return {name: getattr(self, name) for name in self.__slots__}

    def as_metrics(self) -> dict:
        """The :class:`~repro.obs.RunReport` section protocol."""
        return self.as_dict()

    def absorb(self, delta: Mapping[str, Any]) -> None:
        """Fold another engine's stats dict into this one.

        Additive for every counter except ``peak_resident_rows``, which
        takes the maximum: the budget bounds each engine separately, so
        the merged high-water mark is the worst engine's, not the sum.
        """
        for name in self.__slots__:
            if name == "peak_resident_rows":
                self.peak_resident_rows = max(self.peak_resident_rows,
                                              delta[name])
            else:
                setattr(self, name, getattr(self, name) + delta[name])

    def to_text(self) -> str:
        return "\n".join([
            "stream stats (out-of-core validation):",
            f"  elements seen: {self.elements_seen}  "
            f"rows emitted: {self.rows_emitted}",
            f"  peak resident rows: {self.peak_resident_rows}  "
            f"spills: {self.spills}",
            f"  rows spilled: {self.rows_spilled}  "
            f"runs written: {self.runs_written}  "
            f"bytes spilled: {self.bytes_spilled}",
            f"  runs merged: {self.runs_merged}  "
            f"groups merged: {self.groups_merged}",
            f"  intern hits: {self.intern_hits}  "
            f"intern misses: {self.intern_misses}",
            f"  stream wall time: {self.wall_time:.6f}s",
        ])

    def __repr__(self) -> str:
        return (f"StreamStats(elements_seen={self.elements_seen}, "
                f"rows_emitted={self.rows_emitted}, "
                f"peak_resident_rows={self.peak_resident_rows}, "
                f"spills={self.spills})")


class StreamResult:
    """The outcome of a streaming validation — possibly partial.

    ``ok`` is True only for a *complete*, violation-free run: a run cut
    short by its budget reports ``budget_exhausted`` (``"deadline"``,
    ``"max_elements"``) and is not ``ok`` even when no violation was
    found among the consumed prefix.  ``violations`` is ordered exactly
    as :meth:`ValidatorEngine.validate` orders the same witnesses.
    """

    __slots__ = ("violations", "stats", "elements_seen",
                 "completed_shards", "budget_exhausted")

    def __init__(self, violations: tuple[Violation, ...],
                 stats: StreamStats, elements_seen: int,
                 completed_shards: tuple[int, ...],
                 budget_exhausted: str | None):
        self.violations = violations
        self.stats = stats
        self.elements_seen = elements_seen
        self.completed_shards = completed_shards
        self.budget_exhausted = budget_exhausted

    @property
    def ok(self) -> bool:
        return not self.violations and self.budget_exhausted is None

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return (f"StreamResult(ok={self.ok}, "
                f"violations={len(self.violations)}, "
                f"elements_seen={self.elements_seen}, "
                f"budget_exhausted={self.budget_exhausted!r})")


# ------------------------------------------------------------ aggregates


def _merge_agg(a: list, b: list) -> list:
    """Exactly merge two aggregates of *disjoint* binding sets.

    Sequence numbers are globally unique, so ``first_seq`` orders the
    two fragments.  With ``a`` the earlier one, the merged clash — the
    earliest binding whose RHS differs from ``a``'s first — is either
    ``a``'s own clash, or ``b``'s first binding (when its RHS already
    differs), or ``b``'s clash (when ``b``'s first RHS coincides with
    ``a``'s, every ``b`` binding before ``b``'s clash shares it too).
    No discarded binding can beat these three, which is what makes the
    summary exact under any merge tree.
    """
    if b[1] < a[1]:
        a, b = b, a
    candidates = []
    if a[4] is not None:
        candidates.append((a[4], a[5], a[6]))
    if b[2] != a[2]:
        candidates.append((b[1], b[2], b[3]))
    elif b[4] is not None:
        candidates.append((b[4], b[5], b[6]))
    if candidates:
        clash = min(candidates, key=lambda c: c[0])
        return [a[0], a[1], a[2], a[3], clash[0], clash[1], clash[2]]
    return [a[0], a[1], a[2], a[3], None, None, None]


def _fold_prior(index: int, chunk: list, prior) -> list:
    """The rows of one export chunk a checkpoint must (re)write: every
    row without *prior*; with it, rows whose key is new plus rows whose
    stored aggregate the fold changes (see
    :meth:`StreamValidator.export_tables`)."""
    if prior is None or not chunk:
        return chunk
    stored = prior(index, [key_bytes for key_bytes, _ in chunk])
    rows = []
    for key_bytes, agg in chunk:
        old = stored.get(key_bytes)
        if old is None:
            rows.append((key_bytes, agg))
            continue
        merged = _merge_agg(old, agg)
        if merged[1] != old[1] or merged[4] != old[4]:
            rows.append((key_bytes, merged))
    return rows


class _GroupTable:
    """One root-anchored NFD's group state: resident aggregates keyed by
    canonical key bytes, plus the sorted runs spilled so far (path ->
    pair count)."""

    __slots__ = ("plan", "table", "runs")

    def __init__(self, plan):
        self.plan = plan
        self.table: dict[bytes, list] = {}
        self.runs: dict[str, int] = {}


class _ElementStore:
    """Append-only sidecar of frozen witness elements with lazy point
    reads.

    Witness elements are by far the heaviest payload of a spilled
    aggregate (a whole top-level record tree against a handful of key
    atoms), yet they are only ever *read back* for the rare groups that
    actually violate.  A spill therefore writes each
    element once into this store — deduplicated by object identity
    within a spill event, since one element is often the first-seen
    witness of several tables' aggregates — and spills a tiny
    ``("@", store_path, offset)`` ref in its place.  Refs survive
    merges, summary files, and the driver's absorb untouched;
    :meth:`StreamValidator._load_element` seeks and thaws an element
    only when a violation needs it.
    """

    __slots__ = ("path", "_handle", "_memo")

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "ab")
        self._memo: dict[int, int] = {}

    def put(self, element) -> tuple[str, str, int]:
        # The id() memo is only valid while the aggregates being
        # written keep their elements alive — end_event() clears it
        # before the tables are, so a recycled id can never alias.
        offset = self._memo.get(id(element))
        if offset is None:
            offset = self._handle.tell()
            pickle.dump(freeze_value(element), self._handle,
                        pickle.HIGHEST_PROTOCOL)
            self._memo[id(element)] = offset
        return ("@", self.path, offset)

    def end_event(self) -> None:
        self._memo.clear()
        self._handle.flush()

    def close(self) -> None:
        self._memo.clear()
        self._handle.close()


def _freeze_elem(elem, store: _ElementStore | None):
    if elem is None or type(elem) is tuple:  # absent, or already a ref
        return elem
    if store is not None:
        return store.put(elem)
    return freeze_value(elem)


def _thaw_elem(data):
    """A witness slot's in-memory form: an inline frozen element thaws;
    an absent slot, a sidecar ref and a checkpoint element id (an int,
    see :mod:`repro.store.stream_cache`) pass through."""
    if type(data) is tuple and data[0] != "@":
        return thaw_value(data)
    return data


def _freeze_agg(agg: list, store: _ElementStore | None) -> list:
    """The plain-data form of one aggregate: key/RHS values become
    scalar/tuple trees that pickle natively, without a ``__reduce__``
    round-trip per node, and witness elements become sidecar refs when
    a *store* is given (run and summary files) or inline frozen trees
    otherwise (in-memory shard summaries and checkpoints)."""
    return [tuple(freeze_value(part) for part in agg[0]), agg[1],
            freeze_value(agg[2]), _freeze_elem(agg[3], store), agg[4],
            freeze_value(agg[5]), _freeze_elem(agg[6], store)]


def _thaw_agg(agg: list) -> list:
    return [tuple(thaw_value(part) for part in agg[0]), agg[1],
            thaw_value(agg[2]), _thaw_elem(agg[3]), agg[4],
            thaw_value(agg[5]), _thaw_elem(agg[6])]


def _iter_run_file(path: str, count: int) -> Iterator[tuple[bytes, list]]:
    """Stream the thawed ``(key_bytes, aggregate)`` pairs of one run
    file (a sequence of pickled chunks — lists of frozen pairs) that
    was written with *count* pairs.  A run torn at a chunk boundary
    still unpickles cleanly; the count (one compare per chunk) is what
    makes it a :class:`StreamError` instead of a shorter valid run."""
    seen = 0
    try:
        with open(path, "rb") as handle:
            while seen < count:
                chunk = pickle.load(handle)
                seen += len(chunk)
                for key_bytes, agg in chunk:
                    yield key_bytes, _thaw_agg(agg)
    except (OSError, EOFError, pickle.UnpicklingError) as exc:
        raise StreamError(f"spill run {path!r} is unreadable after "
                          f"{seen} of {count} pair(s): {exc!r}") from exc
    if seen != count:
        raise StreamError(f"spill run {path!r} holds {seen} pair(s), "
                          f"{count} were written")


def _unlink_all(paths) -> None:
    """Remove spill files, ignoring ones already gone; empties *paths*
    (a list, or a run dict keyed by path)."""
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass
    paths.clear()


def _spill_parent(spill_root: str | None) -> str | None:
    """The directory spill dirs are created under: an explicit
    *spill_root*, else the cache-derived default (``REPRO_CACHE_DIR``'s
    ``tmp/``), else ``None`` — the system temp default."""
    if spill_root is not None:
        os.makedirs(spill_root, exist_ok=True)
        return spill_root
    # lazy: repro.store pulls in the inference layer, which this
    # module must not require at import time
    from ..store.cache_store import default_spill_root
    return default_spill_root()


# ---------------------------------------------------------------- engine


class StreamValidator:
    """One streaming Definition-2.4 engine over chunked element sources.

    Compiles the same plans as :class:`ValidatorEngine` (it embeds one)
    and consumes top-level elements incrementally::

        with StreamValidator(schema, sigma, budget=budget) as sv:
            sv.consume("orders", reader)    # False if budget ran out
            result = sv.finalize()

    The context manager guarantees :meth:`cleanup` — spilled runs and
    the engine-owned spill directory are removed — on both normal and
    abnormal exits; direct callers may also invoke it explicitly.

    In a sharded run each worker holds one of these (``shard_index``
    tags its emission sequences), ships :meth:`summarize` output back,
    and the driver folds the summaries with :meth:`absorb_summary`.
    """

    def __init__(self, schema: Schema, sigma: Iterable[NFD], *,
                 budget: ResourceBudget | None = None,
                 spill_dir: str | None = None,
                 spill_root: str | None = None, tracer=None,
                 shard_index: int = 0, store=None):
        self.schema = schema
        if store is not None:
            # restore compiled plans from the persistent cache when a
            # payload for this Σ exists (identical structure, so the
            # stream's witnesses are unchanged); shard workers open the
            # store read-only, making plan compilation once-per-fleet
            # instead of once-per-process
            from ..store.warm import cached_validator
            self.engine = cached_validator(schema, sigma, store=store,
                                           tracer=tracer)
        else:
            self.engine = ValidatorEngine(schema, sigma, tracer=tracer)
        self.tracer = tracer
        self.budget = budget
        self._shard_index = shard_index
        self._max_rows = budget.max_resident_rows if budget else None
        self._max_elements = budget.max_elements if budget else None
        self._deadline_at = None
        if budget is not None and budget.deadline is not None:
            self._deadline_at = time.monotonic() + budget.deadline
        self._spill_dir = spill_dir
        self._spill_root = spill_root
        self._own_spill_dir = False
        self._pool = InternPool(_POOL_ENTRIES)
        self._scratch = bytearray()
        self._synced_hits = 0
        self._synced_misses = 0
        self._elem_store: _ElementStore | None = None
        self._read_handles: dict[str, Any] = {}
        self._foreign_stores: list[str] = []
        # Per-relation group tables for the root anchor's plans, and a
        # persistent masked run for every nested-anchored plan.
        self._root_tables: dict[str, list[_GroupTable]] = {}
        self._has_nested: dict[str, bool] = {}
        nested_indices: set[int] = set()
        self._plan_anchor_base: dict[int, str] = {}
        for relation, root in self.engine._relations.items():
            if root.anchor is not None:
                self._root_tables[relation] = [
                    _GroupTable(plan) for plan in root.anchor.plans]
            covered = root.anchor.plans if root.anchor is not None else ()
            root_set = {plan.index for plan in covered}
            nested_here = root.plan_indices - root_set
            nested_indices.update(nested_here)
            self._has_nested[relation] = bool(nested_here)
            for node in _iter_scopes(root):
                if node.anchor is None or node is root:
                    continue
                base = str(node.anchor.base)
                for plan in node.anchor.plans:
                    self._plan_anchor_base[plan.index] = base
        self._nested_run = _Run(len(self.engine.sigma), first_only=False,
                                mask=frozenset(nested_indices))
        self._seq = 0
        self._resident = 0
        self._elements_seen = 0
        self._exhausted: str | None = None
        self.stats = StreamStats()

    # -- context-manager protocol -----------------------------------------

    def __enter__(self) -> "StreamValidator":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.cleanup()
        return False

    # -- consuming --------------------------------------------------------

    def consume(self, relation: str, elements: Iterable) -> bool:
        """Feed top-level elements of *relation*; False when the budget
        stopped consumption (the current result is a valid partial).

        Per-relation dispatch state is bound once, each element's
        branch rows are materialized once, and every root plan folds
        its whole binding list in one pass."""
        start = time.perf_counter()
        try:
            return self._consume(relation, elements)
        finally:
            self.stats.wall_time += time.perf_counter() - start

    def _consume(self, relation: str, elements: Iterable) -> bool:
        engine = self.engine
        stats = self.stats
        root = engine._relations.get(relation)
        anchor = root.anchor if root is not None else None
        has_nested = root is not None and self._has_nested[relation]
        plan_info: list = []
        if anchor is not None:
            plan_info = [(table, table.plan, table.plan.paths)
                         for table in self._root_tables[relation]]
        element_rows = engine._element_rows
        bindings_list = engine._plan_bindings_list
        walk = engine._walk_scope
        nested_run = self._nested_run
        pool = self._pool
        scratch = self._scratch
        shard = self._shard_index
        max_elements = self._max_elements
        deadline_at = self._deadline_at
        monotonic = time.monotonic
        for element in elements:
            if self._exhausted is not None:
                return False
            if (max_elements is not None
                    and self._elements_seen >= max_elements):
                self._exhausted = "max_elements"
                return False
            if deadline_at is not None and monotonic() >= deadline_at:
                self._exhausted = "deadline"
                return False
            if anchor is not None:
                undefined: set = set()
                branch_rows = element_rows(anchor, element, undefined)
                for table, plan, paths in plan_info:
                    if undefined and not undefined.isdisjoint(paths):
                        continue  # Definition 2.4: undefined paths
                    group = table.table
                    for key, rhs in bindings_list(plan, branch_rows):
                        self._seq += 1
                        stats.rows_emitted += 1
                        key_bytes = canonical_key_bytes(
                            key, pool=pool, scratch=scratch)
                        agg = group.get(key_bytes)
                        if agg is None:
                            self._reserve_slot()
                            group[key_bytes] = [
                                key, (shard, self._seq), rhs,
                                element, None, None, None]
                        elif agg[4] is None and rhs != agg[2]:
                            agg[4] = (shard, self._seq)
                            agg[5] = rhs
                            agg[6] = element
            if has_nested:
                # Nested anchors never relate bindings across top-level
                # elements, so the batch walk over a one-element tuple —
                # with the persistent run carrying base-set numbering
                # across elements — reproduces the in-memory witnesses.
                walk(root, (element,), nested_run)
            self._elements_seen += 1
            stats.elements_seen += 1
        return self._exhausted is None

    def _reserve_slot(self) -> None:
        """Account for one new resident group-table entry, spilling
        first if the budget is already full — residency never exceeds
        the cap."""
        if self._max_rows is not None and self._resident >= self._max_rows:
            self._spill_all()
        self._resident += 1
        if self._resident > self.stats.peak_resident_rows:
            self.stats.peak_resident_rows = self._resident

    # -- spilling ---------------------------------------------------------

    def _spill_path(self) -> str:
        if self._spill_dir is None:
            # run files land under the configured cache/tmp dir (the
            # engine's spill_root, else REPRO_CACHE_DIR's tmp/) so
            # large spills hit the operator-chosen volume; only without
            # any configuration does the system temp default apply
            self._spill_dir = tempfile.mkdtemp(
                prefix="repro-stream-", dir=_spill_parent(self._spill_root))
            self._own_spill_dir = True
        return self._spill_dir

    def _element_store(self) -> _ElementStore:
        if self._elem_store is None:
            handle = tempfile.NamedTemporaryFile(
                dir=self._spill_path(), prefix="elems-", suffix=".dat",
                delete=False)
            handle.close()
            self._elem_store = _ElementStore(handle.name)
        return self._elem_store

    def _write_failure(self, exc: OSError) -> StreamError:
        """The error for a spill write (run, summary, sidecar, flush)
        the disk refused, naming where the spill files go."""
        where = self._spill_dir or self._spill_root or "the temp dir"
        return StreamError(f"cannot write spill files under {where!r}: "
                           f"{exc}")

    def _spill_all(self) -> None:
        spilled = False
        try:
            for tables in self._root_tables.values():
                for table in tables:
                    if table.table:
                        self._spill_table(table)
                        spilled = True
            if spilled and self._elem_store is not None:
                # id-memo validity ends with the spill event: the
                # tables just cleared drop their element references
                self._elem_store.end_event()
        except OSError as exc:
            raise self._write_failure(exc) from exc
        if spilled:
            self.stats.spills += 1
        self._resident = 0

    def _write_run(self, items: Iterable[tuple[bytes, list]],
                   prefix: str) -> tuple[str, int]:
        """Write a sorted aggregate stream as one chunked-pickle run
        file; returns ``(path, pair count)``.  A partially written file
        is unlinked before the error propagates."""
        store = self._element_store()
        handle = tempfile.NamedTemporaryFile(
            dir=self._spill_path(), prefix=prefix, suffix=".pkl",
            delete=False)
        count = 0
        try:
            with handle:
                chunk: list = []
                for key_bytes, agg in items:
                    chunk.append((key_bytes, _freeze_agg(agg, store)))
                    count += 1
                    if len(chunk) >= _SPILL_CHUNK:
                        pickle.dump(chunk, handle,
                                    pickle.HIGHEST_PROTOCOL)
                        chunk = []
                if chunk:
                    pickle.dump(chunk, handle, pickle.HIGHEST_PROTOCOL)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        return handle.name, count

    def _spill_table(self, table: _GroupTable) -> None:
        path, count = self._write_run(sorted(table.table.items()),
                                      prefix="run-")
        table.runs[path] = count
        self.stats.rows_spilled += count
        self.stats.runs_written += 1
        self.stats.bytes_spilled += os.path.getsize(path)
        table.table.clear()

    def _merged_rows(self, table: _GroupTable) \
            -> Iterator[tuple[bytes, list]]:
        """All of one table's aggregates, merged across the resident
        state and every spilled run, in canonical key order."""
        sources = [_iter_run_file(path, count)
                   for path, count in table.runs.items()]
        if table.table:
            sources.append(iter(sorted(table.table.items())))
        self.stats.runs_merged += len(table.runs)
        current_key: bytes | None = None
        current: list | None = None
        for key_bytes, agg in heapq.merge(*sources,
                                          key=lambda item: item[0]):
            if key_bytes == current_key:
                current = _merge_agg(current, agg)
            else:
                if current is not None:
                    self.stats.groups_merged += 1
                    yield current_key, current
                current_key, current = key_bytes, agg
        if current is not None:
            self.stats.groups_merged += 1
            yield current_key, current

    # -- finishing --------------------------------------------------------

    def _frozen_element(self, ref):
        """The plain-data form of a live or sidecar witness element."""
        if type(ref) is not tuple:
            return freeze_value(ref)
        _, path, offset = ref
        handle = self._read_handles.get(path)
        try:
            if handle is None:
                if self._elem_store is not None \
                        and self._elem_store.path == path:
                    self._elem_store.end_event()
                handle = self._read_handles[path] = open(path, "rb")
            handle.seek(offset)
            return pickle.load(handle)
        except (OSError, EOFError, pickle.UnpicklingError) as exc:
            raise StreamError(f"cannot read a witness element at offset "
                              f"{offset} of spill sidecar {path!r}: "
                              f"{exc!r}") from exc

    def _load_element(self, ref):
        """Materialize a witness element, resolving a sidecar ref via a
        point read; live elements pass through."""
        if type(ref) is not tuple:
            return ref
        return thaw_value(self._frozen_element(ref))

    def _sync_pool_stats(self) -> None:
        pool = self._pool
        self.stats.intern_hits += pool.hits - self._synced_hits
        self.stats.intern_misses += pool.misses - self._synced_misses
        self._synced_hits = pool.hits
        self._synced_misses = pool.misses

    def finalize(self, *, nested=None,
                 completed_shards: tuple[int, ...] | None = None,
                 elements_seen: int | None = None,
                 exhausted: str | None = None,
                 violating: Mapping[int, Iterable[list]] | None = None) \
            -> StreamResult:
        """Run the merge pass and assemble the final result.

        The keyword overrides exist for the sharded and incremental
        drivers: the sharded one substitutes cross-shard nested triples
        and shard bookkeeping, the incremental one the violating
        aggregates of its merged checkpoint view (by plan index) for
        the merge pass, which :meth:`export_tables` has drained.  A
        plain engine finalizes with its own.
        """
        start = time.perf_counter()
        per_plan: dict[int, list[Violation]] = {}
        for relation in self._root_tables:
            for table in self._root_tables[relation]:
                if violating is None:
                    aggs: Iterable[list] = (
                        agg for _, agg in self._merged_rows(table)
                        if agg[4] is not None)
                else:
                    aggs = violating.get(table.plan.index, ())
                witnesses = [
                    (agg[4], Violation(
                        table.plan.nfd, 0, self._load_element(agg[3]),
                        self._load_element(agg[6]),
                        agg[0], agg[2], agg[5]))
                    for agg in aggs]
                if witnesses:
                    # clash sequences reproduce in-plan discovery order
                    witnesses.sort(key=lambda item: item[0])
                    per_plan[table.plan.index] = \
                        [v for _, v in witnesses]
        if nested is None:
            nested = [(index, (self._shard_index, position), violation)
                      for index, position, violation
                      in self._nested_run.violations]
        for index, _, violation in sorted(
                nested, key=lambda triple: (triple[0], triple[1])):
            per_plan.setdefault(index, []).append(violation)
        violations = tuple(chain.from_iterable(
            per_plan[index] for index in sorted(per_plan)))
        self._sync_pool_stats()
        self.stats.wall_time += time.perf_counter() - start
        if exhausted is None:
            exhausted = self._exhausted
        if elements_seen is None:
            elements_seen = self._elements_seen
        if completed_shards is None:
            completed_shards = () if exhausted is not None \
                else (self._shard_index,)
        return StreamResult(violations, self.stats, elements_seen,
                            completed_shards, exhausted)

    def cleanup(self) -> None:
        """Remove every spilled run (and the spill directory when this
        engine created it).  Safe to call more than once; all abnormal
        exit paths — context-manager ``__exit__``, the ``finally``
        blocks of the entry points, and failing shard workers — route
        through here."""
        for tables in self._root_tables.values():
            for table in tables:
                _unlink_all(table.runs)
        for handle in self._read_handles.values():
            try:
                handle.close()
            except OSError:
                pass
        self._read_handles.clear()
        if self._elem_store is not None:
            try:
                self._elem_store.close()
            except OSError:  # a full disk fails the flush again
                pass
            try:
                os.unlink(self._elem_store.path)
            except OSError:
                pass
            self._elem_store = None
        _unlink_all(self._foreign_stores)
        if self._own_spill_dir and self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None
            self._own_spill_dir = False

    # -- shard protocol ---------------------------------------------------

    def summarize(self) -> dict:
        """A picklable digest of this engine's state for the driver.

        Root group tables become per-plan aggregate streams — inline
        ``("mem", items)`` when nothing spilled, else merged into a
        single sorted summary file ``("file", path, count)`` in the
        shared spill directory (the per-worker runs are deleted once
        merged).  Nested witnesses travel as ``(plan, position,
        violation)`` triples with per-anchor base-set counts so the
        driver can renumber base indices across shards.
        """
        self._sync_pool_stats()
        tables_out: dict[str, list] = {}
        try:
            for relation, tables in self._root_tables.items():
                specs = tables_out[relation] = []
                for table in tables:
                    if not table.runs:
                        # frozen aggregates cross the process boundary
                        # as plain data too — same saving as run files
                        # (elements stay inline: nothing was spilled,
                        # so there is no sidecar to point into)
                        specs.append(("mem", [
                            (key_bytes, _freeze_agg(agg, None)) for
                            key_bytes, agg in sorted(table.table.items())]))
                    else:
                        path, count = self._write_run(
                            self._merged_rows(table), prefix="summary-")
                        _unlink_all(table.runs)
                        specs.append(("file", path, count))
                    table.table.clear()
            store_path = None
            if self._elem_store is not None:
                # the driver resolves this worker's refs (and deletes
                # the store) after the final merge
                self._elem_store.end_event()
                self._elem_store.close()
                store_path = self._elem_store.path
                self._elem_store = None
        except OSError as exc:
            _unlink_all([spec[1] for specs in tables_out.values()
                         for spec in specs if spec[0] == "file"])
            raise self._write_failure(exc) from exc
        self._resident = 0
        return {
            "shard": self._shard_index,
            "tables": tables_out,
            "nested": list(self._nested_run.violations),
            "anchor_counts": self._anchor_counts(),
            "element_store": store_path,
            "stats": self.stats.as_dict(),
            "exhausted": self._exhausted,
            "elements_seen": self._elements_seen,
        }

    def absorb_summary(self, summary: dict) -> None:
        """Fold one shard's :meth:`summarize` digest into this engine.

        Aggregate merging is exact and order-independent, but callers
        absorb in task order anyway so counters — and any table
        iteration order — are deterministic.  Summary files are
        consumed and deleted.
        """
        start = time.perf_counter()
        store_path = summary.get("element_store")
        if store_path is not None:
            self._foreign_stores.append(store_path)
        for relation, specs in summary["tables"].items():
            tables = self._root_tables.get(relation, ())
            for table, spec in zip(tables, specs):
                if spec[0] == "mem":
                    items: Iterable = ((key_bytes, _thaw_agg(agg))
                                       for key_bytes, agg in spec[1])
                else:
                    items = _iter_run_file(spec[1], spec[2])
                for key_bytes, agg in items:
                    existing = table.table.get(key_bytes)
                    if existing is not None:
                        table.table[key_bytes] = _merge_agg(existing,
                                                            agg)
                    else:
                        self._reserve_slot()
                        table.table[key_bytes] = agg
                if spec[0] == "file":
                    try:
                        os.unlink(spec[1])
                    except OSError:
                        pass
        self.stats.absorb(summary["stats"])
        self.stats.wall_time += time.perf_counter() - start

    # -- persistent checkpoint protocol ------------------------------------

    def export_tables(self, prior=None) \
            -> Iterator[tuple[int, list[tuple[bytes, list]]]]:
        """Stream every root group table out of its merge pass: the
        persistence half of incremental streaming (see
        :mod:`repro.store.stream_cache`).

        Yields ``(plan index, [(key_bytes, aggregate), ...])`` chunks of
        at most ``_SPILL_CHUNK`` rows in canonical key order, and drains
        the tables as it goes — a table's runs are deleted and its
        resident dict cleared once it is merged — so rows leave for the
        store straight from the merge and a spilling engine never holds
        more resident rows than its budget.  The engine's own merge is
        then empty: pass the exported view's violating aggregates to
        :meth:`finalize`.

        *prior*, when given, is called as ``prior(plan_index, keys)``
        and returns a checkpoint's stored aggregates for those keys (as
        :meth:`import_tables` thaws them).  Each chunk folds over the
        stored aggregates of exactly its keys with :func:`_merge_agg`,
        which is exact: stored and appended bindings are disjoint, and
        every stored sequence precedes the appended ones
        (:meth:`import_checkpoint`).  A stored group's first binding,
        and its clash if it has one, therefore survive the fold; the
        fold can only add a clash to a clash-free group, and rows it
        leaves unchanged are not yielded — the checkpoint holds them.
        """
        for tables in self._root_tables.values():
            for table in tables:
                index = table.plan.index
                merged = self._merged_rows(table)
                while True:
                    start = time.perf_counter()
                    chunk = list(islice(merged, _SPILL_CHUNK))
                    rows = _fold_prior(index, chunk, prior)
                    self.stats.wall_time += time.perf_counter() - start
                    if rows:
                        yield index, rows
                    if len(chunk) < _SPILL_CHUNK:
                        break
                _unlink_all(table.runs)
                table.table.clear()
        self._resident = 0

    def import_tables(self, rows: Iterable[tuple[int, bytes, list]]) \
            -> dict[int, dict[bytes, list]]:
        """Thaw checkpoint group rows — ``(plan index, key_bytes,
        frozen aggregate)``, as
        :meth:`~repro.store.CacheStore.iter_stream_groups` yields them —
        into aggregates by plan index and key.

        Keys and RHS values thaw (:func:`_merge_agg` compares them live
        and witnesses print them); witness slots stay checkpoint
        element ids, which the caller resolves for the few groups that
        violate.  The result is what :meth:`export_tables`' *prior*
        returns and what :meth:`finalize` takes as *violating*.
        """
        known = {table.plan.index
                 for tables in self._root_tables.values()
                 for table in tables}
        out: dict[int, dict[bytes, list]] = {}
        for index, key_bytes, frozen in rows:
            if index not in known:
                raise ValueError_(
                    f"cannot import group rows for unknown plan "
                    f"index {index}")
            group = out.get(index)
            if group is None:
                group = out[index] = {}
            group[key_bytes] = _thaw_agg(frozen)
        return out

    def import_checkpoint(self, *, seq: int, nested: Iterable,
                          anchor_counts: Mapping[str, int]) -> None:
        """Restore the cross-element bookkeeping of a prior engine: the
        emission sequence counter (so appended bindings order strictly
        after every imported one), the nested-anchored witnesses found
        so far (as ``(plan index, position, violation)`` triples), and
        the per-anchor base-set counts (so base-set numbering continues
        where the prior run stopped)."""
        self._seq = seq
        self._nested_run.violations = [tuple(triple)
                                       for triple in nested]
        for root in self.engine._relations.values():
            for node in _iter_scopes(root):
                if node.anchor is None or node is root:
                    continue
                count = anchor_counts.get(str(node.anchor.base), 0)
                if count:
                    self._nested_run.base_counter[id(node.anchor)] = \
                        count

    def checkpoint_meta(self) -> dict:
        """The non-table half of a checkpoint: what
        :meth:`import_checkpoint` needs, mirroring the shard summary's
        nested bookkeeping."""
        return {
            "seq": self._seq,
            "nested": list(self._nested_run.violations),
            "anchor_counts": self._anchor_counts(),
        }

    def _anchor_counts(self) -> dict[str, int]:
        """Base sets numbered so far per nested anchor, keyed by the
        anchor's base path (stable across processes, unlike ``id``)."""
        anchors = {}
        for root in self.engine._relations.values():
            for node in _iter_scopes(root):
                if node.anchor is not None and node is not root:
                    anchors[id(node.anchor)] = str(node.anchor.base)
        counts: dict[str, int] = {}
        for slot, count in self._nested_run.base_counter.items():
            base = anchors.get(slot)
            if base is not None:
                counts[base] = counts.get(base, 0) + count
        return counts


def _iter_scopes(node) -> Iterator:
    yield node
    for child in node.children.values():
        yield from _iter_scopes(child)


# ------------------------------------------------------------ entry points


def stream_validate(schema: Schema, sigma: Iterable[NFD],
                    sources: Mapping[str, Iterable], *,
                    budget: ResourceBudget | None = None,
                    spill_dir: str | None = None,
                    spill_root: str | None = None,
                    tracer=None, store=None) -> StreamResult:
    """Validate Σ against streamed relations in one engine.

    *sources* maps relation names to element iterables (a JSONL reader,
    a :func:`~repro.io.stream.iter_set_elements` adapter, any
    generator).  Every relation Σ constrains must have a source;
    sources for unconstrained relations are ignored.  Relations are
    consumed in Σ first-mention order — the order the batch engine
    walks them — so witnesses come back in the batch engine's order.
    """
    sigma = tuple(sigma)
    validator = StreamValidator(schema, sigma, budget=budget,
                                spill_dir=spill_dir,
                                spill_root=spill_root, tracer=tracer,
                                store=store)
    try:
        constrained = list(validator.engine._relations)
        missing = [name for name in constrained if name not in sources]
        if missing:
            raise InstanceError(
                f"no stream source for constrained relation(s): "
                f"{', '.join(sorted(missing))}")
        if tracer is None:
            for relation in constrained:
                if not validator.consume(relation, sources[relation]):
                    break
            return validator.finalize()
        with tracer.span("stream.validate", nfds=len(sigma),
                         relations=len(constrained)) as span:
            for relation in constrained:
                if not validator.consume(relation, sources[relation]):
                    break
            result = validator.finalize()
            for name in ("elements_seen", "rows_emitted", "spills",
                         "rows_spilled", "runs_merged"):
                span.add(name, getattr(result.stats, name))
            span.add("violations", len(result.violations))
            return result
    finally:
        validator.cleanup()


def _normalize_shard(spec) -> tuple:
    """Accept ``("jsonl", path, start, stop)``, ``("rows", elements)``,
    or a bare ``(path, start, stop)`` triple from ``plan_shards``."""
    if isinstance(spec, tuple) and len(spec) == 3 \
            and not isinstance(spec[0], str):
        raise ValueError_(f"unrecognized shard spec: {spec!r}")
    if spec[0] == "jsonl" or spec[0] == "rows":
        return tuple(spec)
    if len(spec) == 3:
        return ("jsonl",) + tuple(spec)
    raise ValueError_(f"unrecognized shard spec: {spec!r}")


def shard_validate(schema: Schema, sigma: Iterable[NFD], relation: str,
                   shards: Iterable, *, jobs: int = 1,
                   budget: ResourceBudget | None = None,
                   spill_dir: str | None = None,
                   spill_root: str | None = None,
                   tracer=None,
                   cache_dir: str | None = None,
                   store=None) -> StreamResult:
    """Validate Σ against one relation split into element shards.

    Each shard — a ``plan_shards`` range over a JSONL file, or an
    inline ``("rows", elements)`` list — is consumed by its own
    streaming engine (its own budget accounting, its own spill runs),
    fanned out over ``jobs`` processes via
    :func:`~repro.parallel.process_map`.  The driver folds the shard
    summaries in task order, renumbers nested base sets by per-anchor
    prefix sums, and runs the final merge, so the violations —
    including conflicts whose two elements live in different shards —
    are exactly the serial stream's.

    The budget's ``deadline`` is shipped to workers as a wall-clock
    epoch; each worker honours whatever remains of it when it starts.
    Returns a :class:`StreamResult` whose ``completed_shards`` lists
    the shard indices that fully consumed their input.

    A worker whose stream raises removes its own spill runs before the
    error propagates; the driver then removes every summary file it has
    not yet consumed, so a failed sharded run leaves a caller-provided
    *spill_dir* as it found it.
    """
    sigma = tuple(sigma)
    shard_specs = [_normalize_shard(spec) for spec in shards]
    shared_dir = spill_dir or tempfile.mkdtemp(
        prefix="repro-stream-", dir=_spill_parent(spill_root))
    own_dir = spill_dir is None
    deadline_epoch = None
    max_rows = max_elements = None
    if budget is not None:
        max_rows = budget.max_resident_rows
        max_elements = budget.max_elements
        if budget.deadline is not None:
            deadline_epoch = time.time() + budget.deadline
    driver = StreamValidator(
        schema, sigma,
        budget=(ResourceBudget(max_resident_rows=max_rows)
                if max_rows is not None else None),
        spill_dir=shared_dir, tracer=tracer, shard_index=-1,
        store=store)
    try:
        payload = (schema, list(sigma), relation, max_rows,
                   max_elements, deadline_epoch, shared_dir, cache_dir)
        tasks = list(enumerate(shard_specs))
        if tracer is None:
            return _drive_shards(driver, payload, tasks, jobs, None)
        with tracer.span("stream.shard_validate", relation=relation,
                         shards=len(tasks), jobs=jobs) as span:
            result = _drive_shards(driver, payload, tasks, jobs, tracer)
            span.add("violations", len(result.violations))
            return result
    finally:
        driver.cleanup()
        if own_dir:
            shutil.rmtree(shared_dir, ignore_errors=True)


def _drive_shards(driver: StreamValidator, payload, tasks, jobs: int,
                  tracer) -> StreamResult:
    """Fan the shard tasks out, then fold summaries in task order."""
    from ..parallel import process_map

    summaries = process_map(_shard_setup, payload, _shard_probe, tasks,
                            jobs, threshold=2)
    try:
        offsets: dict[str, int] = {}
        nested_triples = []
        completed = []
        exhausted = None
        elements = 0
        for index, summary in enumerate(summaries):
            for plan_index, position, violation in summary["nested"]:
                offset = offsets.get(
                    driver._plan_anchor_base[plan_index], 0)
                if offset:
                    violation = Violation(
                        violation.nfd, violation.base_index + offset,
                        violation.element1, violation.element2,
                        violation.lhs_values, violation.rhs_value1,
                        violation.rhs_value2)
                nested_triples.append(
                    (plan_index, (index, position), violation))
            for base, count in summary["anchor_counts"].items():
                offsets[base] = offsets.get(base, 0) + count
            driver.absorb_summary(summary)
            elements += summary["elements_seen"]
            if summary["exhausted"] is None:
                completed.append(index)
            elif exhausted is None:
                exhausted = summary["exhausted"]
            if tracer is not None:
                with tracer.span("stream.shard", shard=index) as span:
                    span.add("elements_seen",
                             summary["stats"]["elements_seen"])
                    span.add("rows_emitted",
                             summary["stats"]["rows_emitted"])
                    span.add("spills", summary["stats"]["spills"])
    except BaseException:
        # abnormal driver exit: drop every summary file not yet
        # consumed so a caller-provided spill dir is left clean
        for summary in summaries:
            for specs in summary["tables"].values():
                for spec in specs:
                    if spec[0] == "file":
                        try:
                            os.unlink(spec[1])
                        except OSError:
                            pass
        raise
    return driver.finalize(
        nested=nested_triples, completed_shards=tuple(completed),
        elements_seen=elements, exhausted=exhausted)


# -------------------------------------------------- shard workers
# Module-level so ProcessPoolExecutor can pickle references to them.


def _shard_setup(payload):
    """Worker initializer: keep the shared payload, and pre-open the
    persistent cache store — read-only — once per process.  Engines are
    still per shard (each shard owns its sequence space and nested
    run), but every engine in this process restores its compiled plans
    from the one warm store handle, so plan compilation happens at most
    once per fleet instead of once per shard.  A missing, corrupt, or
    version-mismatched store degrades to an always-miss handle; the
    shard result is byte-identical either way."""
    cache_dir = payload[-1]
    store = None
    if cache_dir is not None:
        from ..store.cache_store import CacheStore
        store = CacheStore(cache_dir, read_only=True)
    return payload, store


def _shard_probe(context, task):
    """Worker task: stream one shard through its own engine and return
    the picklable summary digest.  A stream that raises mid-shard
    (e.g. a malformed JSONL line after the first spill) cleans this
    worker's spill runs up before the error propagates to the driver.
    """
    payload, store = context
    schema, sigma, relation, max_rows, max_elements, deadline_epoch, \
        shared_dir, _ = payload
    index, spec = task
    deadline = None
    if deadline_epoch is not None:
        deadline = max(deadline_epoch - time.time(), 0.0)
    budget = None
    if max_rows is not None or max_elements is not None \
            or deadline is not None:
        budget = ResourceBudget(max_resident_rows=max_rows,
                                deadline=deadline,
                                max_elements=max_elements)
    validator = StreamValidator(schema, sigma, budget=budget,
                                spill_dir=shared_dir, shard_index=index,
                                store=store)
    try:
        if spec[0] == "rows":
            elements: Iterable = spec[1]
        else:
            from ..io.stream import iter_jsonl_elements

            _, path, start, stop = spec
            elements = iter_jsonl_elements(path, schema, relation,
                                           start=start, stop=stop,
                                           require_elements=False)
        validator.consume(relation, elements)
        return validator.summarize()
    except BaseException:
        validator.cleanup()
        raise
