"""Incremental, resumable streaming validation over JSONL sources.

:func:`incremental_stream_validate` is ``check --stream FILE
--incremental``: it validates a JSONL relation while persisting the
streaming engine's group-table aggregates — plus the cross-element
checkpoint bookkeeping — to the :class:`~repro.store.CacheStore`, keyed
by a *source id* (file path + Σ fingerprint + relation).  A later run
over the same file resumes from the persisted **watermark**: it folds
only the appended lines into the restored aggregates and reports
witnesses byte-identical to a full cold re-stream (aggregate merging
over disjoint binding sets is exact; see
:meth:`~repro.nfd.stream_validate.StreamValidator.export_tables`).

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
                                   StreamValidator)
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
    """The human-readable ``nfd`` column of a group row: the plan index
    (authoritative — Σ may contain textually identical members) colon
    the NFD text (for ``sqlite3`` spelunking)."""
    return f"{index}:{nfd_text}"


def _parse_group_rows(blobs: Iterable[tuple[str, list]]) \
        -> dict[int, list[tuple[bytes, list]]]:
    by_plan: dict[int, list[tuple[bytes, list]]] = {}
    for nfd_text, rows in blobs:
        index = int(nfd_text.split(":", 1)[0])
        by_plan.setdefault(index, []).extend(rows)
    return by_plan


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

    Witness equivalence: a resumed run's violations are byte-identical
    to a cold run over the whole file.  Restored aggregates keep their
    original emission sequences and the sequence counter restarts past
    them, so every appended binding merges exactly as it would have in
    one continuous stream; nested witnesses and base-set numbering are
    restored from the checkpoint the same way the sharded driver folds
    them.
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
                                spill_root=spill_root, tracer=tracer,
                                store=store)
    try:
        if resumed:
            validator.import_tables(
                _parse_group_rows(store.iter_stream_groups(source_id)))
            state = entry["state"]
            validator.import_checkpoint(
                seq=state["seq"], nested=state["nested"],
                anchor_counts=state["anchor_counts"])
        elements: Iterator = iter_jsonl_elements(
            path, schema, relation, start=start, stop=total,
            require_elements=(start == 0))
        validator.consume(relation, elements)
        folded = validator._elements_seen

        persisted = False
        if (store.writable and validator._exhausted is None
                and (not resumed or total > start)):
            # a resumed run that consumed nothing leaves the stored
            # checkpoint untouched — it is already exactly this state
            rows_by_plan = validator.export_tables()
            plan_texts = {
                table.plan.index: str(table.plan.nfd)
                for tables in validator._root_tables.values()
                for table in tables}
            meta = validator.checkpoint_meta()
            meta["sigma"] = list(sigma_texts)
            try:
                mtime = os.path.getmtime(path)
            except OSError:
                mtime = 0.0
            persisted = store.put_stream_source(
                source_id,
                fingerprint=fingerprint,
                relation=relation,
                line_count=total,
                content_hash=full_hash,
                mtime=mtime,
                state=meta,
                groups=(
                    (_group_text(index, plan_texts[index]), rows)
                    for index, rows in sorted(rows_by_plan.items())))

        result = validator.finalize()
    finally:
        validator.cleanup()
    info = {
        "mode": "resumed" if resumed else "cold",
        "start_line": start,
        "total_lines": total,
        "elements_folded": folded,
        "persisted": persisted,
        "source_id": source_id,
    }
    return result, info
