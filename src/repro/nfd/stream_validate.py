"""Out-of-core streaming validation with spill-to-disk group tables.

:class:`~repro.nfd.batch_validate.ValidatorEngine` answers Definition
2.4 in one walk, but it walks a live in-memory instance — the whole
nested relation must fit in RAM before the first element is checked.
This module is the out-of-core counterpart: the same compiled path-trie
plans, fed one top-level element at a time from a chunked source (a
JSONL dump via :func:`repro.io.stream.iter_jsonl_elements`, a bundle's
type-checked rows in set order via :func:`repro.io.stream.set_order`,
as :func:`repro.service.check` feeds them, or an in-memory set via the
:func:`repro.io.stream.iter_set_elements` adapter), with memory
bounded by a :class:`ResourceBudget` instead of by the instance.

How the two NFD shapes stream
-----------------------------

*Root-anchored* NFDs (base path = the bare relation name) relate
arbitrary pairs of top-level elements, so their group state is
inherently cross-element.  Each element's ``(antecedent key, RHS)``
bindings are folded into a per-NFD **aggregate** per key::

    [key, first_seq, first_rhs_bytes, first_rhs, first_elem,
          clash_seq, clash_rhs, clash_elem]

``first`` is the earliest binding for the key (by emission sequence),
``clash`` the earliest binding whose RHS differs from ``first_rhs`` —
exactly the witness the in-memory exhaustive walk reports for the key.
Keys, RHS values and elements are the plain JSON data the binding read
(``first_rhs_bytes`` is the RHS's canonical encoding, which the RHS
comparisons use).  The aggregate is a constant-size exact summary, and
merging two aggregates of disjoint binding sets is again exact (the
earliest differing binding of the union is always among the four
retained bindings), so aggregates can be spilled, re-read, and merged in
any grouping without changing the final witnesses.

*Nested-anchored* NFDs only ever relate bindings inside a single
top-level element, so they need no cross-element state at all: each
element's base sets are checked for a conflict, and only an element that
holds one is re-walked by the batch engine (see below).

One walk per element
--------------------

Each relation gets one binder, compiled when the engine is built from
source generated for (schema, Σ) (:class:`_BinderSource`;
:func:`binder_source` prints it).  It walks an element's parsed JSON —
type-checked by :func:`repro.io.stream.iter_jsonl_elements` or, for a
bundle, by :func:`repro.io.json_io.instance_rows`; an in-memory
:class:`~repro.values.value.Value` is converted once with
:func:`~repro.values.build.to_python` — once: it encodes each leaf once
through the engine's :class:`~repro.values.canonical.InternPool`
(:func:`~repro.values.canonical.canonical_json_bytes` equals the value
encoding), deduplicates each plan's projection by those bytes, returns
every root plan's distinct ``(key, RHS)`` bindings for the group tables
(plain dicts keyed by key bytes), and checks and counts every nested
base set as the in-memory walk opens them.

Value trees (:func:`~repro.values.value.value_of_json`) are built only
for what a witness prints and for the elements whose witnesses depend
on set iteration order — the in-memory engine iterates a set
deduplicated and sorted by ``repr``, the JSON walk in file order.  Two
fallbacks cover those:

* an element that binds one key to two or more distinct RHS values in a
  root plan — or repeats the value of a set-valued path below a
  traversed set, which two equal sets may spell apart — is bound
  through :class:`ValidatorEngine`'s own binder;
* an element whose nested base sets hold a conflict is re-walked by
  ``ValidatorEngine._walk_scope``, which numbers its base sets itself.

Two clashes one element produces in one root plan are put in that
element's value-order emission at :meth:`StreamValidator.finalize`.
``StreamStats.witness_elements_built`` counts the trees.

Spill format
------------

When the budget's ``max_resident_rows`` would be exceeded, every group
table is frozen into a sorted **run**: aggregates ordered by their
canonical key bytes (``repr`` would not do — record equality ignores
field order), written as a stream of pickled *chunks* — lists of
``(key_bytes, aggregate)`` pairs (``_SPILL_CHUNK`` pairs per pickle
frame, so the pickler's memo deduplicates values shared across a chunk
and the per-item call overhead amortizes).  Aggregates are plain data
and pickle natively; witness elements go to a sidecar
(:class:`_ElementStore`) and are read back only for groups that violate.
A run's pair count is kept beside its path and checked on read.  The
final merge is a k-way :func:`heapq.merge` over the runs plus the
resident table, folding equal-key aggregates with :func:`_merge_agg` —
hash-grouping below budget and external sort-merge above it produce
byte-identical witnesses.

Cleanup
-------

A spill file that cannot be written (a full disk) or read back whole
(a torn run, a truncated sidecar) raises
:class:`~repro.errors.StreamError`, never a wrong verdict.  Every
spilled run and sidecar is removed by :meth:`cleanup`, which all
abnormal exits route through: :func:`stream_validate` calls it in
``finally``, and :class:`StreamValidator` is a context manager (``with
StreamValidator(...) as sv``) for direct use.
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

from ..errors import InstanceError, PathError, StreamError, ValueError_
from ..codegen import build_function
from ..paths.path import Path
from ..paths.typing import type_at
from ..types.base import BaseType, SetType
from ..types.schema import Schema
from ..values.build import to_python
from ..values.canonical import InternPool, _field_bytes
from ..values.value import Value, value_of_json
from .batch_validate import ValidatorEngine, _Run
from .nfd import NFD
from .violations import Violation

__all__ = [
    "ResourceBudget",
    "StreamStats",
    "StreamResult",
    "StreamValidator",
    "stream_validate",
]


#: ``(key_bytes, aggregate)`` pairs per pickle frame of a spill run.
_SPILL_CHUNK = 64

#: Entries of the per-engine canonical-encoding intern pool.
_POOL_ENTRIES = 1 << 16


class ResourceBudget:
    """Resource limits for one streaming validation.

    * ``max_resident_rows`` — cap on group-table aggregates resident in
      memory; reaching it spills every table to a sorted on-disk run.
      Peak residency never exceeds the cap.
    * ``deadline`` — wall-clock seconds; when it passes, the engine
      stops consuming and reports a partial result instead of raising.
      ``deadline=0`` means *already exhausted*: the engine stops before
      consuming its first element (it is not "no deadline" — that is
      ``None``).
    * ``max_elements`` — cap on elements consumed.

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
        if deadline is not None and not deadline >= 0:  # NaN too
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
    """Counters of one streaming validation.

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
    * ``witness_elements_built`` — value trees built from streamed JSON:
      witness elements, and elements re-walked through the in-memory
      engine's binder;
    * ``wall_time`` — seconds spent consuming and merging.
    """

    __slots__ = ("elements_seen", "rows_emitted", "peak_resident_rows",
                 "spills", "rows_spilled", "runs_written",
                 "bytes_spilled", "runs_merged", "groups_merged",
                 "intern_hits", "intern_misses", "witness_elements_built",
                 "wall_time")

    def __init__(self, elements_seen: int = 0, rows_emitted: int = 0,
                 peak_resident_rows: int = 0, spills: int = 0,
                 rows_spilled: int = 0, runs_written: int = 0,
                 bytes_spilled: int = 0, runs_merged: int = 0,
                 groups_merged: int = 0, intern_hits: int = 0,
                 intern_misses: int = 0, witness_elements_built: int = 0,
                 wall_time: float = 0.0):
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
        self.witness_elements_built = witness_elements_built
        self.wall_time = wall_time

    def as_dict(self) -> dict:
        """The snapshot as a plain (JSON-friendly) dictionary."""
        return {name: getattr(self, name) for name in self.__slots__}

    def as_metrics(self) -> dict:
        """The :class:`~repro.obs.RunReport` section protocol."""
        return self.as_dict()

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
            f"  witness elements built: {self.witness_elements_built}",
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

    __slots__ = ("violations", "stats", "elements_seen", "budget_exhausted")

    def __init__(self, violations: tuple[Violation, ...],
                 stats: StreamStats, elements_seen: int,
                 budget_exhausted: str | None):
        self.violations = violations
        self.stats = stats
        self.elements_seen = elements_seen
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
    if a[5] is not None:
        candidates.append((a[5], a[6], a[7]))
    if b[2] != a[2]:
        candidates.append((b[1], b[3], b[4]))
    elif b[5] is not None:
        candidates.append((b[5], b[6], b[7]))
    if candidates:
        clash = min(candidates, key=lambda c: c[0])
        return [a[0], a[1], a[2], a[3], a[4], clash[0], clash[1], clash[2]]
    return [a[0], a[1], a[2], a[3], a[4], None, None, None]


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
        if merged[1] != old[1] or merged[5] != old[5]:
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
    """Append-only sidecar of witness elements with lazy point reads.

    Witness elements are by far the heaviest payload of a spilled
    aggregate (a whole top-level record against a handful of key
    scalars), yet they are only ever *read back* for the rare groups
    that actually violate.  A spill therefore writes each element once
    into this store — deduplicated by object identity within a spill
    event, since one element is often the first-seen witness of several
    tables' aggregates — and spills a tiny ``("@", file_name, offset)``
    ref in its place.  The ref names the sidecar by its file name alone,
    so its pickled size does not depend on how long the spill
    directory's path is.  Refs survive merges untouched;
    :meth:`StreamValidator.finalize` seeks an element only when a
    violation needs it.  Elements are plain JSON data and pickle
    natively.
    """

    __slots__ = ("path", "name", "_handle", "_memo")

    def __init__(self, path: str):
        self.path = path
        self.name = os.path.basename(path)
        self._handle = open(path, "ab")
        self._memo: dict[int, int] = {}

    def put(self, element: dict) -> tuple[str, str, int]:
        # The id() memo is only valid while the aggregates being
        # written keep their elements alive — end_event() clears it
        # before the tables are, so a recycled id can never alias.
        offset = self._memo.get(id(element))
        if offset is None:
            offset = self._handle.tell()
            pickle.dump(element, self._handle, pickle.HIGHEST_PROTOCOL)
            self._memo[id(element)] = offset
        return ("@", self.name, offset)

    def end_event(self) -> None:
        self._memo.clear()
        self._handle.flush()

    def close(self) -> None:
        self._memo.clear()
        self._handle.close()


def _spill_agg(agg: list, store: _ElementStore) -> list:
    """*agg* with its live witness elements replaced by sidecar refs."""
    first, clash = agg[4], agg[7]
    if type(first) is dict:
        first = store.put(first)
    if type(clash) is dict:
        clash = store.put(clash)
    return [agg[0], agg[1], agg[2], agg[3], first, agg[5], agg[6], clash]


def _iter_run_file(path: str, count: int) -> Iterator[tuple[bytes, list]]:
    """Stream the ``(key_bytes, aggregate)`` pairs of one run file (a
    sequence of pickled chunks) that was written with *count* pairs.  A
    run torn at a chunk boundary still unpickles cleanly; the count
    (one compare per chunk) is what makes it a :class:`StreamError`
    instead of a shorter valid run."""
    seen = 0
    try:
        with open(path, "rb") as handle:
            while seen < count:
                chunk = pickle.load(handle)
                seen += len(chunk)
                yield from chunk
    except (OSError, EOFError, pickle.UnpicklingError) as exc:
        raise StreamError(f"spill run {path!r} is unreadable after "
                          f"{seen} of {count} pair(s): {exc!r}") from exc
    if seen != count:
        raise StreamError(f"spill run {path!r} holds {seen} pair(s), "
                          f"{count} were written")


# ------------------------------------------------------------ JSON binding


def _tuple(items: list[str]) -> str:
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


class _BinderSource:
    """The generated source of one relation's binder: ``bind(element)``
    walks one element once and returns ``(roots, counts)`` — each root
    plan's distinct ``(key bytes, RHS bytes, key, RHS)`` bindings (``()``
    for a plan with an undefined path), or ``None`` when the value
    binder must bind the element; and the base sets the element opens
    per nested anchor (in ``counted`` order), or ``None`` on a nested
    conflict.  A plan deduplicates each set branch's projection by bytes
    at its innermost loop, and one comprehension takes the product in
    the value binder's order.  Locals are numbered in emission order and
    constants are globals, so the text depends on (schema, Σ) alone."""

    def __init__(self, schema: Schema, relation: str, root):
        self.lines = ["def bind(e):"]
        self.consts: dict[str, Any] = {}
        self._names = 0
        self._encoders: dict[str, str] = {}
        self._defs: list[str] = []
        element_type = schema.element_type(relation)
        if root.anchor is None:
            self.put(1, "roots = ()")
        else:
            plans = self._walk(root.anchor, "e", 1, element_type, True)
            self.put(1, "fb = False")
            lists = []
            for plan, tables, flag in plans:
                lists.append(self.name("b"))
                depth = self._unless_skipped(plan, 1, f"{lists[-1]} = ()")
                parts, loops = self._binding(plan, tables)
                self.put(depth, f"{lists[-1]} = [{_tuple(parts)}{loops}]")
                if tables:
                    test = (f"len({lists[-1]}) > 1 and len({{t[0] for t in "
                            f"{lists[-1]}}}) < len({lists[-1]})")
                    self.put(depth, f"if {flag + ' or ' if flag else ''}"
                                    f"{test}: fb = True")
            self.put(1, f"roots = None if fb else [{', '.join(lists)}]")
        self.counted = tuple(id(scope.anchor) for scope in _iter_scopes(root)
                             if scope is not root and scope.anchor)
        counters = {slot: self.name("c") for slot in self.counted}
        if counters:
            self.put(1, " = ".join(counters.values()) + " = 0")
        for label, child in sorted(root.children.items()):
            records = self.name("s")
            self.put(1, f"{records} = e[{label!r}]")
            self._scope(child, records, 1, counters,
                        type_at(element_type, Path((label,))).element)
        self.put(1, f"return roots, {_tuple(list(counters.values()))}")
        self.text = "\n".join(self._defs + self.lines) + "\n"

    def name(self, stem: str) -> str:
        self._names += 1
        return f"{stem}{self._names}"

    def put(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def _scope(self, node, records: str, depth: int, counters: dict,
               record_type):
        """Check the nested base set *records* at scope *node*, and each
        base set below it: an anchor folds each record's bindings into
        per-plan groups, and deeper scopes walk the set's distinct
        records, as the in-memory walk opens them."""
        anchor = node.anchor
        if anchor is not None:
            self.put(depth, f"{counters[id(anchor)]} += 1")
            groups = [self.name("g") for _ in anchor.plans]
            self.put(depth, "; ".join(f"{group} = {{}}" for group in groups))
            record = self.name("r")
            self.put(depth, f"for {record} in {records}:")
            plans = self._walk(anchor, record, depth + 1, record_type, False)
            for (plan, tables, _), group in zip(plans, groups):
                inner = self._unless_skipped(plan, depth + 1)
                (key, rhs), loops = self._binding(plan, tables, False)
                if loops:
                    self.put(inner, f"for k, r in [({key}, {rhs}){loops}]:")
                    key, rhs, inner = "k", "r", inner + 1
                self.put(inner, f"if {group}.setdefault({key}, {rhs}) != "
                                f"{rhs}: return roots, None")
        if node.children:
            distinct, record = self.name("s"), self.name("r")
            self.put(depth, f"{distinct} = {records} if len({records}) < 2 "
                            f"else list({{{self._encoder(record_type)}(t): t "
                            f"for t in {records}}}.values())")
            self.put(depth, f"for {record} in {distinct}:")
            for label, child in sorted(node.children.items()):
                below = self.name("s")
                self.put(depth + 1, f"{below} = {record}[{label!r}]")
                self._scope(child, below, depth + 1, counters, type_at(
                    record_type, Path((label,))).element)

    def _walk(self, anchor, record: str, depth: int, record_type,
              exact: bool) -> list:
        """Emit the walk of *anchor*'s trie over *record*; its plans as
        ``(plan, dedup table per varying branch, repeat flag)``.  When
        *exact*, an ambiguous plan (a set-valued path below a traversed
        set, whose kept spelling is set order's) flags a repeat."""
        self._anchor, self._type = anchor, record_type
        self._data: dict[Path, str] = {}
        self._raw: dict[Path, str] = {}
        self._empty: dict[Path, tuple[str, frozenset]] = {}
        start = len(self.lines)
        plans = []
        for plan in anchor.plans:
            tables = {pos: self.name("d") for pos, indices in plan.branch_proj
                      if any(len(self._path(pos, i)) > 1 for i in indices)}
            flag = self.name("a") if tables and exact and any(
                len(path) > 1
                and isinstance(type_at(record_type, path), SetType)
                for path in plan.paths) else None
            plans.append((plan, tables, flag))
        self._reads(anchor.branches, record, depth)
        for pos, branch in enumerate(anchor.branches):
            if not branch.child_list:
                continue
            inner = self._loop(branch, depth)
            for plan, tables, flag in plans:
                if pos in tables:
                    raws, datas = self._slots(pos,
                                              dict(plan.branch_proj)[pos])
                    table = tables[pos]
                    self.put(inner, f"t = {_tuple(raws)}")
                    self.put(inner, f"if t not in {table}: "
                                    f"{table}[t] = {_tuple(datas)}")
                    if flag is not None:
                        self.put(inner, f"else: {flag} = True")
        inits = [f"{flag} = False" for flag, _ in self._empty.values()]
        inits += [f"{flag} = False" for _, _, flag in plans if flag]
        inits += [f"{table} = {{}}" for _, tables, _ in plans
                  for table in tables.values()]
        if inits:
            self.lines.insert(start, "    " * depth + "; ".join(inits))
        return plans

    def _reads(self, nodes, record: str, depth: int) -> None:
        for node in nodes:
            data = self._data[node.path] = self.name("x")
            self.put(depth, f"{data} = {record}[{node.label!r}]")
            if node.is_leaf:
                raw = self._raw[node.path] = self.name("y")
                encoder = self._encoder(type_at(self._type, node.path))
                self.put(depth, f"{raw} = {encoder}({data})")

    def _loop(self, node, depth: int) -> int:
        """Loop over the set at *node*, then its set-valued children in
        label order; the innermost depth.  An empty set raises its flag
        and is walked as one record of empty sets, which only plans the
        flag skips read."""
        data = self._data[node.path]
        flag = self.name("u")
        self._empty[node.path] = (flag, frozenset(node.sub_leaves))
        self.put(depth, f"if not {data}: {flag} = True")
        item, pad = self.name("r"), self.name("P")
        self.consts[pad] = [{child.label: [] for child in node.child_list}]
        self.put(depth, f"for {item} in {data} or {pad}:")
        self._reads(node.child_list, item, depth + 1)
        depth += 1
        for child in node.child_list:
            if child.child_list:
                depth = self._loop(child, depth)
        return depth

    def _encoder(self, value_type) -> str:
        """The encoder of *value_type* data: the pool's ``enc`` for an
        atom, else a generated function building ``enc``'s bytes in the
        type's static order (``enc`` itself on data of another shape)."""
        if isinstance(value_type, BaseType):
            return "enc"
        if str(value_type) in self._encoders:
            return self._encoders[str(value_type)]
        name = self._encoders[str(value_type)] = self.name("E")
        if isinstance(value_type, SetType):
            item = self._encoder(value_type.element)
            self._defs += [f"def {name}(v):",
                           "    if type(v) is not list: return enc(v)",
                           f"    p = sorted({{{item}(i) for i in v}})",
                           "    return b'S%d;' % len(p) + b''.join(p)"]
            return name
        fields = sorted(value_type.fields,
                        key=lambda field: _field_bytes(field[0]))
        head, parts = b"r%d;" % len(fields), []
        for label, sub in fields:
            parts += [repr(head + _field_bytes(label)),
                      f"{self._encoder(sub)}(v[{label!r}])"]
            head = b""
        self._defs += [f"def {name}(v):",
                       f"    if type(v) is not dict or len(v) != "
                       f"{len(fields)}: return enc(v)",
                       f"    return {' + '.join(parts) or repr(head)}"]
        return name

    def _unless_skipped(self, plan, depth: int, otherwise: str = "") -> int:
        """Open a block run unless a plan path is undefined on the record
        (Definition 2.4's escape), else run *otherwise*; its depth."""
        skip = " or ".join(flag for flag, below in self._empty.values()
                           if not below.isdisjoint(plan.paths))
        if not skip:
            return depth
        if otherwise:
            self.put(depth, otherwise)
        self.put(depth, f"if not ({skip}):")
        return depth + 1

    def _path(self, pos: int, index: int) -> Path:
        anchor = self._anchor
        return anchor.branch_slots[anchor.branches[pos].label][index]

    def _slots(self, pos: int, indices) -> tuple[list, list]:
        """The bytes and data locals of slots *indices* of branch *pos*."""
        paths = [self._path(pos, index) for index in indices]
        return ([self._raw[path] for path in paths],
                [self._data[path] for path in paths])

    def _binding(self, plan, tables: dict, data: bool = True):
        """The plan's binding as expressions (key bytes, RHS bytes and,
        with *data*, key and RHS) and the comprehension's clauses."""
        raws, datas, loops = [], [], ""
        for pos, indices in plan.branch_proj:
            if pos in tables:
                row, values = self.name("t"), self.name("v")
                loops += f" for {row}, {values} in {tables[pos]}.items()"
                raws += [f"{row}[{at}]" for at in range(len(indices))]
                datas += [f"{values}[{at}]" for at in range(len(indices))]
            else:
                raw, value = self._slots(pos, indices)
                raws, datas = raws + raw, datas + value
        parts = [" + ".join([repr(b"T%d;" % len(plan.lhs_pos))]
                            + [raws[at] for at in plan.lhs_pos]),
                 raws[plan.rhs_pos]]
        if data:
            parts += [_tuple([datas[at] for at in plan.lhs_pos]),
                      datas[plan.rhs_pos]]
        return parts, loops


def binder_source(schema: Schema, sigma: Iterable[NFD],
                  relation: str) -> str:
    """The generated source of *relation*'s binder for Σ — for reading
    it while debugging (``print(binder_source(schema, sigma,
    "Course"))``)."""
    root = ValidatorEngine(schema, sigma)._relations[relation]
    return _BinderSource(schema, relation, root).text


def _value_bound(roots):
    """A binder that sends every element to the two fallbacks."""
    return lambda element: (roots, None)


def _plain_element(element) -> dict:
    """A stream element as plain JSON data: an in-memory
    :class:`~repro.values.value.Record` goes through
    :func:`~repro.values.build.to_python` (sets in iteration order)."""
    if isinstance(element, Value):
        data = to_python(element)
        if type(data) is dict:
            return data
    raise PathError(f"expected a record while validating, got {element}")


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
    """

    def __init__(self, schema: Schema, sigma: Iterable[NFD], *,
                 budget: ResourceBudget | None = None,
                 spill_dir: str | None = None,
                 spill_root: str | None = None, tracer=None):
        self.schema = schema
        self.engine = ValidatorEngine(schema, sigma, tracer=tracer)
        self.tracer = tracer
        self.budget = budget
        self._max_rows = budget.max_resident_rows if budget else None
        self._max_elements = budget.max_elements if budget else None
        self._deadline_at = None
        if budget is not None and budget.deadline is not None:
            self._deadline_at = time.monotonic() + budget.deadline
        self._spill_dir = spill_dir
        self._spill_root = spill_root
        self._own_spill_dir = False
        self._pool = InternPool(_POOL_ENTRIES)
        self._synced_hits = 0
        self._synced_misses = 0
        self._elem_store: _ElementStore | None = None
        self._read_handle = None
        # Per relation: group tables for the root anchor's plans, and the
        # compiled binder with the nested anchors it counts base sets of.
        self._root_tables: dict[str, list[_GroupTable]] = {}
        self._binders: dict[str, tuple] = {}
        self._plan_anchor_base: dict[int, str] = {}
        self._nested_bases: dict[int, str] = {}  # anchor id -> base path
        encode = self._pool.json_bytes
        for relation, root in self.engine._relations.items():
            if root.anchor is not None:
                self._root_tables[relation] = [
                    _GroupTable(plan) for plan in root.anchor.plans]
            binder = _BinderSource(schema, relation, root)
            try:
                bind = build_function(binder.text, "bind",
                                      dict(binder.consts, enc=encode))
            except SyntaxError:  # sets nested past Python's block limit
                bind = _value_bound(None if root.anchor else ())
            self._binders[relation] = (bind, binder.counted)
            for node in _iter_scopes(root):
                if node.anchor is None or node is root:
                    continue
                base = str(node.anchor.base)
                self._nested_bases[id(node.anchor)] = base
                for plan in node.anchor.plans:
                    self._plan_anchor_base[plan.index] = base
        # a persistent masked run for every nested-anchored plan
        self._nested_run = _Run(len(self.engine.sigma), first_only=False,
                                mask=frozenset(self._plan_anchor_base))
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
        """Feed top-level elements of *relation* — plain JSON objects,
        or :class:`~repro.values.value.Record` values; False when the
        budget stopped consumption (the current result is a valid
        partial).

        A plain JSON object is taken as type-checked, as
        :func:`repro.io.stream.iter_jsonl_elements` yields it: a missing
        field or a set or record of the wrong shape is a
        :class:`~repro.errors.PathError`, but an ill-typed atom binds as
        it is.  Check other JSON first, or pass
        :class:`~repro.values.value.Record` values.

        Each element is walked once by the relation's compiled binder,
        and every root plan folds its whole binding list in one pass."""
        start = time.perf_counter()
        try:
            return self._consume(relation, elements)
        finally:
            self.stats.wall_time += time.perf_counter() - start

    def _consume(self, relation: str, elements: Iterable) -> bool:
        stats = self.stats
        bind, counted = self._binders.get(relation, (None, ()))
        groups = [table.table for table in self._root_tables.get(relation,
                                                                 ())]
        base_counter = self._nested_run.base_counter
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
            if type(element) is not dict:
                element = _plain_element(element)
            if bind is not None:
                try:
                    roots, counts = bind(element)
                except (KeyError, TypeError) as exc:
                    raise PathError(
                        f"{relation} element {self._elements_seen + 1} "
                        + (f"has no field {exc.args[0]!r}"
                           if type(exc) is KeyError else
                           f"does not have the relation's shape: {exc}")) \
                        from None
                value = None
                if roots is None:
                    value = self._fold_root_values(relation, element)
                else:
                    for group, bindings in zip(groups, roots):
                        if bindings:
                            self._fold(group, bindings, element)
                if counts is None:
                    # a nested conflict: the batch engine re-walks the
                    # element, its persistent run numbering the base
                    # sets, and its witnesses fall out
                    if value is None:
                        value = self._build(element)
                    self.engine._walk_scope(self.engine._relations[relation],
                                            (value,), self._nested_run)
                else:
                    for slot, count in zip(counted, counts):
                        base_counter[slot] = base_counter.get(slot, 0) + count
            self._elements_seen += 1
            stats.elements_seen += 1
        return self._exhausted is None

    def _build(self, data) -> Value:
        """The value tree of one streamed element (counted)."""
        self.stats.witness_elements_built += 1
        return value_of_json(data)

    def _fold_root_values(self, relation: str, element: dict) -> Value:
        """Fold one element's root-plan bindings through the value
        binder, and return its value tree: the binder sends an element
        whose first binding and clash depend on set iteration order."""
        engine = self.engine
        encode = self._pool.json_bytes
        value = self._build(element)
        undefined: set = set()
        branch_rows = engine._element_rows(
            engine._relations[relation].anchor, value, undefined)
        for table in self._root_tables[relation]:
            plan = table.plan
            if undefined and not undefined.isdisjoint(plan.paths):
                continue
            prefix = b"T%d;" % len(plan.lhs_pos)
            bindings = []
            for key, rhs in engine._plan_bindings_list(plan, branch_rows):
                key_data = tuple([to_python(part) for part in key])
                rhs_data = to_python(rhs)
                bindings.append((
                    prefix + b"".join([encode(part) for part in key_data]),
                    encode(rhs_data), key_data, rhs_data))
            self._fold(table.table, bindings, element)
        return value

    def _fold(self, group: dict, bindings: list, element: dict) -> None:
        for key_bytes, rhs_bytes, key, rhs in bindings:
            self._seq += 1
            agg = group.get(key_bytes)
            if agg is None:
                self._reserve_slot()
                group[key_bytes] = [key, self._seq, rhs_bytes, rhs,
                                    element, None, None, None]
            elif agg[5] is None and rhs_bytes != agg[2]:
                agg[5] = self._seq
                agg[6] = rhs
                agg[7] = element
        self.stats.rows_emitted += len(bindings)

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
        """The error for a spill write (run, sidecar, flush)
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
                    chunk.append((key_bytes, _spill_agg(agg, store)))
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

    def _stored_element(self, ref) -> dict:
        """The plain data of a witness element: a live one is itself, a
        sidecar ref is read back with a point read."""
        if type(ref) is not tuple:
            return ref
        _, name, offset = ref
        try:
            if self._read_handle is None:
                self._elem_store.end_event()
                self._read_handle = open(self._elem_store.path, "rb")
            self._read_handle.seek(offset)
            return pickle.load(self._read_handle)
        except (OSError, EOFError, pickle.UnpicklingError) as exc:
            raise StreamError(f"cannot read a witness element at offset "
                              f"{offset} of spill sidecar {name!r}: "
                              f"{exc!r}") from exc

    def _witness_element(self, ref, built: dict) -> Value:
        """The value tree of a witness element, built once per element
        (by sidecar ref, or by the identity of the live data) per
        finalize."""
        token = ref if type(ref) is tuple else id(ref)
        entry = built.get(token)
        if entry is None:
            # the entry holds *ref*, so its id cannot be reused meanwhile
            entry = built[token] = (ref, self._build(
                self._stored_element(ref)))
        return entry[1]

    def _sync_pool_stats(self) -> None:
        pool = self._pool
        self.stats.intern_hits += pool.hits - self._synced_hits
        self.stats.intern_misses += pool.misses - self._synced_misses
        self._synced_hits = pool.hits
        self._synced_misses = pool.misses

    def finalize(self, *,
                 violating: Mapping[int, Iterable[list]] | None = None) \
            -> StreamResult:
        """Run the merge pass and assemble the final result.

        *violating* exists for the incremental driver: the violating
        aggregates of its merged checkpoint view (by plan index) stand
        in for the merge pass, which :meth:`export_tables` has drained.
        A plain engine finalizes with its own.
        """
        start = time.perf_counter()
        per_plan: dict[int, list[Violation]] = {}
        built: dict = {}
        for relation in self._root_tables:
            for table in self._root_tables[relation]:
                if violating is None:
                    aggs: Iterable[list] = (
                        agg for _, agg in self._merged_rows(table)
                        if agg[5] is not None)
                else:
                    aggs = violating.get(table.plan.index, ())
                witnesses = [
                    (agg[5], Violation(
                        table.plan.nfd, 0,
                        self._witness_element(agg[4], built),
                        self._witness_element(agg[7], built),
                        tuple([value_of_json(part) for part in agg[0]]),
                        value_of_json(agg[3]), value_of_json(agg[6])))
                    for agg in aggs]
                if witnesses:
                    # clash sequences reproduce in-plan discovery order
                    witnesses.sort(key=lambda item: item[0])
                    per_plan[table.plan.index] = self._in_element_order(
                        relation, table.plan, [v for _, v in witnesses])
        for index, _, violation in sorted(
                self._nested_run.violations,
                key=lambda triple: (triple[0], triple[1])):
            per_plan.setdefault(index, []).append(violation)
        violations = tuple(chain.from_iterable(
            per_plan[index] for index in sorted(per_plan)))
        self._sync_pool_stats()
        self.stats.wall_time += time.perf_counter() - start
        return StreamResult(violations, self.stats, self._elements_seen,
                            self._exhausted)

    def _in_element_order(self, relation: str, plan,
                          violations: list[Violation]) -> list[Violation]:
        """Reorder the clashes one element produced in one plan.

        Emission sequences order witnesses of different elements as the
        in-memory walk does, but within an element the JSON walk emits
        in list order, not in set iteration order.  Such witnesses sit
        next to each other (an element's sequences are contiguous) and
        share their clash element — and equal elements can only clash
        once: a later copy binds nothing its first copy did not — so
        each run of equal clash elements is sorted by its element's
        value-order emission."""
        start = 0
        while start < len(violations):
            stop = start + 1
            element = violations[start].element2
            while stop < len(violations) \
                    and violations[stop].element2 == element:
                stop += 1
            if stop - start > 1:
                engine = self.engine
                rows = engine._element_rows(
                    engine._relations[relation].anchor, element, set())
                order = {pair: position for position, pair in enumerate(
                    engine._plan_bindings_list(plan, rows))}
                violations[start:stop] = sorted(
                    violations[start:stop],
                    key=lambda v: order[(v.lhs_values, v.rhs_value2)])
            start = stop
        return violations

    def cleanup(self) -> None:
        """Remove every spilled run and the sidecar (and the spill
        directory when this engine created it).  Safe to call more than
        once; all abnormal exit paths — context-manager ``__exit__`` and
        the ``finally`` blocks of the entry points — route through
        here."""
        for tables in self._root_tables.values():
            for table in tables:
                _unlink_all(table.runs)
        if self._read_handle is not None:
            try:
                self._read_handle.close()
            except OSError:
                pass
            self._read_handle = None
        if self._elem_store is not None:
            try:
                self._elem_store.close()
            except OSError:  # a full disk fails the flush again
                pass
            _unlink_all([self._elem_store.path])
            self._elem_store = None
        if self._own_spill_dir and self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None
            self._own_spill_dir = False

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
        :meth:`import_tables` reads them).  Each chunk folds over the
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
        """Turn checkpoint group rows — ``(plan index, key_bytes,
        row)``, as :meth:`~repro.store.CacheStore.iter_stream_groups`
        yields them — into aggregates by plan index and key.

        A row is an aggregate without its first RHS's bytes and with
        its witness elements replaced by checkpoint element ids::

            [key, first_seq, first_rhs, first_id,
                  clash_seq, clash_rhs, clash_id]

        Importing re-encodes the first RHS (:func:`_merge_agg` compares
        those bytes); the element ids stay, and the caller resolves them
        for the few groups that violate.  The result is what
        :meth:`export_tables`' *prior* returns and what :meth:`finalize`
        takes as *violating*.
        """
        known = {table.plan.index
                 for tables in self._root_tables.values()
                 for table in tables}
        encode = self._pool.json_bytes
        out: dict[int, dict[bytes, list]] = {}
        for index, key_bytes, row in rows:
            if index not in known:
                raise ValueError_(
                    f"cannot import group rows for unknown plan "
                    f"index {index}")
            group = out.get(index)
            if group is None:
                group = out[index] = {}
            group[key_bytes] = [row[0], row[1], encode(row[2]), *row[2:]]
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
        for slot, base in self._nested_bases.items():
            if anchor_counts.get(base, 0):
                self._nested_run.base_counter[slot] = anchor_counts[base]

    def checkpoint_meta(self) -> dict:
        """The non-table half of a checkpoint: what
        :meth:`import_checkpoint` needs."""
        return {
            "seq": self._seq,
            "nested": list(self._nested_run.violations),
            "anchor_counts": self._anchor_counts(),
        }

    def _anchor_counts(self) -> dict[str, int]:
        """Base sets numbered so far per nested anchor, keyed by the
        anchor's base path (stable across processes, unlike ``id``)."""
        return {self._nested_bases[slot]: count for slot, count
                in self._nested_run.base_counter.items()
                if slot in self._nested_bases}


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
                    tracer=None) -> StreamResult:
    """Validate Σ against streamed relations in one engine.

    *sources* maps relation names to element iterables (a JSONL reader,
    a bundle's rows in :func:`~repro.io.stream.set_order`, a
    :func:`~repro.io.stream.iter_set_elements` adapter, any
    generator).  Every relation Σ constrains must have a source;
    sources for unconstrained relations are ignored.  Relations are
    consumed in Σ first-mention order — the order the batch engine
    walks them — so witnesses come back in the batch engine's order.
    """
    sigma = tuple(sigma)
    validator = StreamValidator(schema, sigma, budget=budget,
                                spill_dir=spill_dir,
                                spill_root=spill_root, tracer=tracer)
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
