"""The canonical fingerprint of a logical ``(schema, Sigma, nonempty)``
triple.

Syntactic reorderings of Sigma members, LHS paths, record fields, or
nonempty declarations all map to the same fingerprint.  The daemon's
pool and the stream checkpoints of :mod:`repro.store.stream_cache` are
keyed on it, and :attr:`ClosureEngine.fingerprint
<repro.inference.closure.ClosureEngine.fingerprint>` reports it; the
engine itself lives in :mod:`repro.inference.closure`.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from ..nfd.nfd import NFD
from ..types.base import BaseType, RecordType, SetType, Type
from ..types.schema import Schema
from .empty_sets import NonEmptySpec

__all__ = ["sigma_fingerprint"]


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
