"""Incremental, resumable streaming validation over JSONL sources.

:func:`incremental_stream_validate` is ``check --stream FILE
--incremental``: it validates a JSONL relation while persisting the
streaming engine's group-table aggregates — plus the cross-element
checkpoint bookkeeping — to the :class:`~repro.store.CacheStore`, keyed
by a *source id* (file path + Σ fingerprint + relation).  A later run
over the same file resumes from the persisted **watermark**: it folds
only the appended lines, merges them with the stored aggregates of just
the keys they touch, and reports witnesses byte-identical to a full
cold re-stream (aggregate merging over disjoint binding sets is exact;
see :meth:`~repro.nfd.stream_validate.StreamValidator.export_tables`).

Delta checkpoints
-----------------

The store keeps one row per ``(source, plan, key)`` group, with its
witness elements in a per-source element table, so a checkpoint is
never read or written whole.  A resume costs what was appended:

1. the appended lines fold into *empty* group tables (the sequence
   counter and nested bookkeeping are restored from the state blob);
2. :meth:`~repro.nfd.stream_validate.StreamValidator.export_tables`
   streams those delta aggregates out of the merge and folds in the
   stored rows of exactly their keys (point reads);
3. one transaction upserts the rows the fold changed — new keys, and
   groups that gained a clash — the elements they newly reference, and
   the watermark;
4. witnesses come from the merged rows plus the stored violating rows
   (a partial index), whose element ids resolve with point reads.

The reads of steps 2 and 4 run inside the write transaction of step 3,
which first checks that the stored watermark is still the one the
resume started from — so a concurrent resume of the same source can
never interleave its delta with this one.

A cold pass writes every group the same way, each witness element once
however many groups it backs.  Rows stream from the merge into the
write, so a spilling engine checkpoints within its row budget.

Watermark safety
----------------

A resume is only sound when the previously-consumed region is an exact
byte prefix of the current file.  The watermark therefore records the
consumed line count *and* the SHA-256 of those lines' bytes; on the next
run the file is scanned **first** — one pass computing the total line
count, the full-content digest, and (via ``hashlib``'s ``copy()``) the
digest of the first ``line_count`` lines — and the stream is then
consumed with ``stop=total``.  Scanning before consuming makes the
persisted watermark airtight against concurrent appends: whatever lands
after the scan is simply next run's delta.  Any prefix mismatch — the
file was rewritten, truncated, or edited in place — degrades to a cold
full re-stream (and the fresh result overwrites the stale entry).

Σ order is part of the contract too: the persisted state embeds the Σ
member texts in order, because plan indices — and with them the group
rows' table assignment — are order-dependent while the fingerprint is
not.  An order mismatch is *stale*, not an error.

Budget-exhausted runs are **not** persisted: their watermark would
claim lines the engine never folded.  The partial result is still
returned; the stored entry (if any) is left untouched, so the next run
resumes from the last *complete* checkpoint.
"""

from __future__ import annotations

import hashlib
import os
from typing import Iterable, Iterator

from ..errors import InstanceError
from ..inference.session import sigma_fingerprint
from ..io.stream import iter_jsonl_elements
from ..nfd.nfd import NFD
from ..nfd.stream_validate import (ResourceBudget, StreamResult,
                                   StreamValidator, stream_validate)
from ..types.schema import Schema
from .cache_store import CacheStore

__all__ = ["incremental_stream_validate", "stream_source_id"]


def stream_source_id(path: str, fingerprint: str, relation: str) -> str:
    """The store key of one (file, Σ, relation) streaming source.

    The absolute path is part of the key, so two files with identical
    content checkpoint independently; Σ's fingerprint and the relation
    name are too, so revalidating the same file under different
    constraints never collides.
    """
    digest = hashlib.sha256()
    digest.update(os.path.abspath(path).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(fingerprint.encode("ascii"))
    digest.update(b"\x00")
    digest.update(relation.encode("utf-8"))
    return digest.hexdigest()


def _scan_source(path: str, prefix_lines: int) -> tuple[int, str, str]:
    """One pass over *path*: ``(total_lines, full_hash, prefix_hash)``.

    ``prefix_hash`` is the digest of the first *prefix_lines* lines'
    bytes, captured mid-stream with ``hashlib``'s ``copy()`` so the scan
    stays single-pass; with ``prefix_lines == 0`` it is the empty
    digest.  Line boundaries follow the binary iterator — the same
    physical lines :func:`~repro.io.stream.iter_jsonl_elements`
    numbers — so a stored watermark always names a scannable prefix.
    """
    hasher = hashlib.sha256()
    prefix_hash = hasher.hexdigest() if prefix_lines == 0 else None
    total = 0
    with open(path, "rb") as handle:
        for line in handle:
            hasher.update(line)
            total += 1
            if total == prefix_lines:
                prefix_hash = hasher.copy().hexdigest()
    if prefix_hash is None:
        # the stored watermark claims more lines than the file has
        # (truncated since last run): no prefix to compare, force cold
        prefix_hash = ""
    return total, hasher.hexdigest(), prefix_hash


def _group_text(index: int, nfd_text: str) -> str:
    """The plan label of a written chunk: the plan index (authoritative
    — Σ may contain textually identical members) colon the NFD text."""
    return f"{index}:{nfd_text}"


class _CheckpointView:
    """The merged view of one checkpoint: the engine's exported rows
    folded over the stored ones, put in the store's row form as they
    stream, and the violating aggregates the witnesses come from.

    Witness elements are written once each, to the per-source element
    table, and group rows point to them by id.  Stored rows already
    carry ids; any other element gets the next id the first time a row
    references it — keyed by identity for a live element (the entry
    holds the element, so its ``id()`` cannot be reused meanwhile) and
    by ref for a sidecar one.

    Every store read happens while :meth:`groups` is consumed, which a
    checkpoint write does inside its transaction: the rows folded in,
    the stored violating rows and their elements are one consistent
    state of the store."""

    def __init__(self, validator: StreamValidator, store: CacheStore,
                 source_id: str, resumed: bool, last_id: int):
        self.validator = validator
        self.store = store
        self.source_id = source_id
        self.resumed = resumed
        self.last_id = last_id
        self._ids: dict = {}
        #: violating aggregates by plan index and key, elements
        #: resolved — set once :meth:`groups` is exhausted, ``None``
        #: when the store could not supply an element a row references
        self.violating: dict[int, list[list]] | None = None

    def _prior(self, plan: int, keys: list) -> dict[bytes, list]:
        rows = self.store.iter_stream_groups(self.source_id, plan=plan,
                                             keys=keys)
        return self.validator.import_tables(rows).get(plan, {})

    def _element_id(self, ref, new: list):
        if ref is None or type(ref) is int:
            return ref
        token = ref if type(ref) is tuple else id(ref)
        entry = self._ids.get(token)
        if entry is None:
            self.last_id += 1
            entry = self._ids[token] = (self.last_id, ref)
            new.append((self.last_id,
                        self.validator._stored_element(ref)))
        return entry[0]

    def groups(self) -> Iterator[tuple[str, list]]:
        """``(plan label, rows)`` chunks in the form
        :meth:`~repro.store.CacheStore.put_stream_source` writes."""
        labels = {table.plan.index: _group_text(table.plan.index,
                                                str(table.plan.nfd))
                  for tables in self.validator._root_tables.values()
                  for table in tables}
        prior = self._prior if self.resumed else None
        exported: dict[int, dict[bytes, list]] = {}
        for index, chunk in self.validator.export_tables(prior):
            clashing = exported.setdefault(index, {})
            rows = []
            for key_bytes, agg in chunk:
                clash = agg[5] is not None
                if clash:
                    clashing[key_bytes] = agg
                new: list = []
                first = self._element_id(agg[4], new)
                # the import_tables row form: no first-RHS bytes,
                # element ids in the witness slots
                row = [agg[0], agg[1], agg[3], first, agg[5], agg[6],
                       self._element_id(agg[7], new)]
                rows.append((key_bytes, clash, row, tuple(new)))
            yield labels[index], rows
        self.violating = self._witness_rows(exported)

    def _witness_rows(self, exported: dict[int, dict[bytes, list]]) \
            -> dict[int, list[list]] | None:
        """The exported violating aggregates plus, on a resume, the
        stored ones, with stored element ids resolved."""
        merged: dict[int, dict[bytes, list]] = {}
        if self.resumed:
            merged = self.validator.import_tables(
                self.store.iter_stream_groups(self.source_id))
        for index, rows in exported.items():
            merged.setdefault(index, {}).update(rows)
        ids = {agg[slot] for rows in merged.values()
               for agg in rows.values() for slot in (4, 7)
               if type(agg[slot]) is int}
        elements = self.store.get_stream_elements(self.source_id, ids) \
            if ids else {}
        if len(elements) < len(ids):
            return None
        for rows in merged.values():
            for agg in rows.values():
                for slot in (4, 7):
                    if type(agg[slot]) is int:
                        agg[slot] = elements[agg[slot]]
        return {index: list(rows.values())
                for index, rows in merged.items()}


def incremental_stream_validate(
        schema: Schema, sigma: Iterable[NFD], relation: str, path: str,
        *, store: CacheStore,
        budget: ResourceBudget | None = None,
        tracer=None,
        spill_root: str | None = None) -> tuple[StreamResult, dict]:
    """Validate Σ against the JSONL file *path*, resuming from the
    store's checkpoint when its watermark still prefixes the file.

    Returns ``(result, info)`` where *info* reports what actually
    happened: ``mode`` (``"cold"`` or ``"resumed"``), ``start_line``
    (first line folded this run), ``total_lines``,
    ``elements_folded`` (elements consumed *this* run — the number the
    incremental bench gate bounds), ``persisted`` (whether a fresh
    checkpoint was written), and ``source_id``.

    A resume starts with empty group tables and folds only the
    appended lines; the sequence counter and the nested bookkeeping
    come from the checkpoint.  :meth:`StreamValidator.export_tables`
    then folds the stored rows of just the keys those lines touched,
    and one transaction writes the rows that changed, the elements
    they newly reference, and the watermark.  Witnesses come from the
    merged rows plus the stored violating rows, byte-identical to a
    cold run over the whole file: restored aggregates keep their
    original emission sequences and the counter restarts past them,
    so every appended binding merges exactly as it would have in one
    continuous stream.

    A checkpoint that fails — a write or read raising, or another
    writer having moved the stored watermark meanwhile — leaves the
    merged view unvouched for, so the run falls back to a cold
    re-stream without the store.  The answer stays exact, the stored
    checkpoint is the last one that committed, and a raising store is
    counted in ``store.stats.errors`` with one
    :class:`~repro.store.CacheWarning`.
    """
    sigma = tuple(sigma)
    if relation not in schema:
        raise InstanceError(f"unknown relation: {relation}")
    fingerprint = sigma_fingerprint(schema, sigma)
    sigma_texts = tuple(str(nfd) for nfd in sigma)
    source_id = stream_source_id(path, fingerprint, relation)

    entry = store.get_stream_source(source_id) if store.available \
        else None
    prefix_lines = 0
    if entry is not None:
        state = entry["state"]
        if (entry["fingerprint"] == fingerprint
                and tuple(state.get("sigma", ())) == sigma_texts
                and entry["line_count"] >= 0):
            prefix_lines = entry["line_count"]
        else:
            # same key, different Σ order (fingerprint is
            # order-independent, plan indices are not) — unusable
            store.note_stale()
            entry = None

    total, full_hash, prefix_hash = _scan_source(path, prefix_lines)
    resumed = (entry is not None and prefix_lines <= total
               and prefix_hash == entry["content_hash"])
    if entry is not None and not resumed:
        store.note_stale()
    start = entry["line_count"] if resumed else 0

    validator = StreamValidator(schema, sigma, budget=budget,
                                spill_root=spill_root, tracer=tracer)
    result = None
    persisted = False
    try:
        if resumed:
            state = entry["state"]
            validator.import_checkpoint(
                seq=state["seq"], nested=state["nested"],
                anchor_counts=state["anchor_counts"])
        elements: Iterator = iter_jsonl_elements(
            path, schema, relation, start=start, stop=total,
            require_elements=(start == 0))
        validator.consume(relation, elements)
        folded = validator.stats.elements_seen

        # a resumed run that consumed nothing leaves the stored
        # checkpoint untouched — it is already exactly this state
        persist = (store.writable and validator._exhausted is None
                   and (not resumed or total > start))
        if not (resumed or persist):
            result = validator.finalize()
        else:
            view = _CheckpointView(validator, store, source_id, resumed,
                                   entry["elements"] if resumed else 0)
            if persist:
                meta = validator.checkpoint_meta()
                meta["sigma"] = list(sigma_texts)
                try:
                    mtime = os.path.getmtime(path)
                except OSError:
                    mtime = 0.0
                persisted = store.put_stream_source(
                    source_id, fingerprint=fingerprint,
                    relation=relation, line_count=total,
                    content_hash=full_hash, mtime=mtime, state=meta,
                    groups=view.groups(),
                    base=((entry["line_count"], entry["content_hash"])
                          if resumed else None))
            else:
                for _ in view.groups():  # fold the view, write nothing
                    pass
            if (persisted or not persist) and store.available \
                    and view.violating is not None:
                result = validator.finalize(violating=view.violating)
    finally:
        validator.cleanup()
    if result is None:
        result = stream_validate(
            schema, sigma,
            {relation: iter_jsonl_elements(path, schema, relation,
                                           stop=total)},
            budget=budget, spill_root=spill_root, tracer=tracer)
        resumed, start, folded = False, 0, result.elements_seen
    info = {
        "mode": "resumed" if resumed else "cold",
        "start_line": start,
        "total_lines": total,
        "elements_folded": folded,
        "persisted": persisted,
        "source_id": source_id,
    }
    return result, info
