"""Canonical byte encodings of values, for external sorting.

The spill-to-disk group tables of :mod:`repro.nfd.stream_validate` sort
and merge antecedent keys on disk, so they need a *byte string* ordering
that agrees exactly with value equality:

* **injective** — ``canonical_bytes(u) == canonical_bytes(v)`` iff
  ``u == v``.  Plain ``repr`` does not qualify: record equality ignores
  field order while ``repr`` preserves it, so two equal records could
  sort apart in an external merge and a real violation would be missed;
* **deterministic** — independent of construction order, hash
  randomization, and the process that produced it, so runs written by
  different shard workers merge consistently.

The encoding is a self-delimiting prefix code: every node writes a tag,
a length/arity, and then its (already self-delimiting) payloads, so the
whole byte string decodes unambiguously — which is what makes it
injective.  Record fields are sorted by label and set elements by their
own encodings, mirroring the order-insensitivity of value equality.

Numeric atoms follow :meth:`Atom.__eq__` exactly (injectivity in both
directions is property-tested in
``tests/properties/test_canonical_injectivity.py``):

* ``Atom(True)``, ``Atom(1)``, and ``Atom(1.0)`` are pairwise *unequal*
  (atom equality is type-strict across bool/int/float), so they carry
  distinct tags (``b``/``i``/``f``) and encode differently;
* ``Atom(0.0) == Atom(-0.0)`` (IEEE equality within the float type), so
  ``-0.0`` is normalized to ``0.0`` before encoding — ``repr`` alone
  would encode them apart and a real clash could be missed;
* large ints encode as their full decimal text, which two unequal ints
  can never share.

The byte *order* itself carries no semantic meaning; only equality of
encodings and determinism of the order matter.

Hot-path helpers
----------------

The streaming validator encodes millions of keys whose atoms repeat
heavily (wide antecedent keys over a small domain).  :class:`InternPool`
caches the encoding of every value it has seen — repeated atoms and
repeated nested values alike — and
:func:`canonical_key_bytes` accepts a caller-owned scratch
``bytearray`` so the per-key assembly reuses one buffer instead of
allocating a fresh one per key.
"""

from __future__ import annotations

from ..errors import ValueError_
from .value import Atom, Record, SetValue, Value

__all__ = ["canonical_bytes", "canonical_key_bytes", "InternPool",
           "CODEC_VERSION"]

#: Stable version tag of the canonical encoding.  Persisted caches
#: (:mod:`repro.store`) key group-table rows by these bytes, so any
#: change to :func:`_encode`'s output — new tags, different framing,
#: different normalization — MUST bump this string; a store opened
#: under a different codec version discards its contents rather than
#: compare keys across encodings.
CODEC_VERSION = "1"


def canonical_bytes(value: Value) -> bytes:
    """The canonical encoding of one value (see the module docstring)."""
    out = bytearray()
    _encode(value, out)
    return bytes(out)


def canonical_key_bytes(values: tuple, *, pool: "InternPool | None" = None,
                        scratch: bytearray | None = None) -> bytes:
    """The canonical encoding of a tuple of values (an antecedent key).

    Framed with the tuple's arity so keys of different widths can never
    collide even when their concatenated parts would.

    *pool* substitutes cached per-value encodings for fresh ones, and
    *scratch* is a caller-owned ``bytearray`` reused as the assembly
    buffer (it is cleared on entry); both leave the returned bytes
    unchanged — they only remove allocations from the per-key path.
    """
    out = bytearray() if scratch is None else scratch
    if scratch is not None:
        del out[:]
    out += b"T%d;" % len(values)
    if pool is None:
        for value in values:
            _encode(value, out)
    else:
        for value in values:
            out += pool.value_bytes(value)
    return bytes(out)


class InternPool:
    """A bounded cache of canonical encodings, keyed by value equality.

    Values are immutable and hash their structure once at construction,
    so a dict keyed by the values themselves is an exact intern table:
    two keys collide iff the values are equal iff their encodings are
    identical.  The pool therefore *cannot* change any encoding — it is
    purely an allocation saver, and
    ``tests/properties/test_canonical_injectivity.py`` checks pooled
    keys byte-for-byte against unpooled ones, evictions included.

    ``max_entries`` bounds residency: when the table is full, inserting
    one more entry clears the whole table (cheap, and the hot working
    set re-warms in one pass).  ``hits``/``misses``/``evictions`` make
    the behavior observable in stats and tests.
    """

    __slots__ = ("max_entries", "hits", "misses", "evictions", "_cache")

    def __init__(self, max_entries: int = 1 << 16):
        if max_entries < 1:
            raise ValueError_(
                f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._cache: dict[Value, bytes] = {}

    def __len__(self) -> int:
        return len(self._cache)

    def value_bytes(self, value: Value) -> bytes:
        """The canonical encoding of *value*, cached."""
        cached = self._cache.get(value)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        out = bytearray()
        _encode(value, out)
        encoded = bytes(out)
        if len(self._cache) >= self.max_entries:
            self._cache.clear()
            self.evictions += 1
        self._cache[value] = encoded
        return encoded

    def key_bytes(self, values: tuple,
                  scratch: bytearray | None = None) -> bytes:
        """:func:`canonical_key_bytes` through this pool."""
        return canonical_key_bytes(values, pool=self, scratch=scratch)

    def stats(self) -> dict:
        """JSON-friendly counters (for stream stats and tests)."""
        return {
            "entries": len(self._cache),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return (f"InternPool(entries={len(self._cache)}, "
                f"hits={self.hits}, misses={self.misses})")


def _encode(value: Value, out: bytearray) -> None:
    if isinstance(value, Atom):
        raw = value.value
        # bool before int: bool is an int subclass but True != Atom(1)
        if isinstance(raw, bool):
            out += b"b1;" if raw else b"b0;"
        elif isinstance(raw, int):
            text = str(raw).encode("ascii")
            out += b"i%d;" % len(text)
            out += text
        elif isinstance(raw, float):
            # float is tagged apart from int (Atom(1) != Atom(1.0)).
            # repr is injective over non-NaN floats (Atom rejects NaN)
            # except for the signed zeros, which IEEE equality — and
            # hence Atom.__eq__ — identifies, so -0.0 normalizes first.
            if raw == 0.0:
                raw = 0.0
            text = repr(raw).encode("ascii")
            out += b"f%d;" % len(text)
            out += text
        else:
            text = raw.encode("utf-8")
            out += b"s%d;" % len(text)
            out += text
    elif isinstance(value, Record):
        encoded = []
        for label, sub in value.fields:
            part = bytearray()
            raw_label = label.encode("utf-8")
            part += b"l%d;" % len(raw_label)
            part += raw_label
            _encode(sub, part)
            encoded.append(bytes(part))
        # labels are unique within a record, so sorting the encoded
        # (label, value) pairs is sorting by label: equal records with
        # different field order encode identically
        encoded.sort()
        out += b"r%d;" % len(encoded)
        for part in encoded:
            out += part
    elif isinstance(value, SetValue):
        encoded = sorted(canonical_bytes(element)
                         for element in value.elements)
        out += b"S%d;" % len(encoded)
        for part in encoded:
            out += part
    else:
        raise ValueError_(
            f"cannot canonically encode {type(value).__name__}"
        )
