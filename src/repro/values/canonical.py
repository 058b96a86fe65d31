"""Canonical byte encodings of values, for external sorting.

The spill-to-disk group tables of :mod:`repro.nfd.stream_validate` sort
and merge antecedent keys on disk, so they need a *byte string* ordering
that agrees exactly with value equality:

* **injective** — ``canonical_bytes(u) == canonical_bytes(v)`` iff
  ``u == v``.  Plain ``repr`` does not qualify: record equality ignores
  field order while ``repr`` preserves it, so two equal records could
  sort apart in an external merge and a real violation would be missed;
* **deterministic** — independent of construction order, hash
  randomization, and the process that produced it, so a checkpoint
  written by one process resumes in another.

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
heavily (wide antecedent keys over a small domain), straight from the
parsed JSON of each element: :func:`canonical_json_bytes` encodes plain
dicts, lists and scalars to exactly the bytes of the value they decode
to.  :class:`InternPool` caches the encoding of every scalar and
record label it has seen, so a key of repeated atoms costs a dict probe
per part.
"""

from __future__ import annotations

from ..errors import ValueError_
from .value import Atom, Record, SetValue, Value

__all__ = ["canonical_bytes", "canonical_json_bytes", "canonical_key_bytes",
           "InternPool", "CODEC_VERSION"]

#: The scalar types an atom wraps (the plain-data leaves of a value).
_SCALARS = (str, int, bool, float)

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


def canonical_json_bytes(data) -> bytes:
    """The canonical encoding of the value plain JSON-shaped *data*
    (dicts, lists, scalars) decodes to: ``canonical_json_bytes(d) ==
    canonical_bytes(v)`` whenever ``v`` is the :class:`Value` of ``d``
    (as :func:`~repro.values.build.from_python` lifts it), whatever the
    dicts' key order or the lists' order and repeats."""
    return _encode_json(data, _scalar_bytes, _field_bytes)


def canonical_key_bytes(values: tuple) -> bytes:
    """The canonical encoding of a tuple of values (an antecedent key).

    Framed with the tuple's arity so keys of different widths can never
    collide even when their concatenated parts would.
    """
    out = bytearray(b"T%d;" % len(values))
    for value in values:
        _encode(value, out)
    return bytes(out)


class InternPool:
    """A bounded cache of the canonical encodings of plain scalars.

    One table per Python type, because ``1``, ``True`` and ``1.0`` are
    one dict key but three atoms; record labels are cached beside them.
    The pool therefore *cannot* change any encoding — it is purely an
    allocation saver, and ``tests/properties/test_canonical_injectivity.py``
    checks pooled encodings byte-for-byte against unpooled ones,
    evictions included.

    ``max_entries`` bounds residency: when the table is full, inserting
    one more entry clears the whole table (cheap, and the hot working
    set re-warms in one pass).  ``hits``/``misses``/``evictions`` make
    the behavior observable in stats and tests.
    """

    __slots__ = ("max_entries", "hits", "misses", "evictions", "_scalars",
                 "_labels", "_size")

    def __init__(self, max_entries: int = 1 << 16):
        if max_entries < 1:
            raise ValueError_(
                f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._scalars: dict[type, dict] = {kind: {} for kind in _SCALARS}
        self._labels: dict[str, bytes] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def json_bytes(self, data) -> bytes:
        """:func:`canonical_json_bytes` of *data*, each scalar's
        encoding cached."""
        table = self._scalars.get(type(data))
        if table is None:
            return _encode_json(data, self.json_bytes, self._field_bytes)
        cached = table.get(data)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        encoded = _scalar_bytes(data)
        if self._size >= self.max_entries:
            for scalars in self._scalars.values():
                scalars.clear()
            self._size = 0
            self.evictions += 1
        self._size += 1
        table[data] = encoded
        return encoded

    def _field_bytes(self, label: str) -> bytes:
        encoded = self._labels.get(label)
        if encoded is None:
            encoded = self._labels[label] = _field_bytes(label)
        return encoded

    def stats(self) -> dict:
        """JSON-friendly counters (for stream stats and tests)."""
        return {
            "entries": self._size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return (f"InternPool(entries={self._size}, "
                f"hits={self.hits}, misses={self.misses})")


def _encode_scalar(raw, out: bytearray) -> None:
    """The encoding of an atom's wrapped scalar (see the module
    docstring for the numeric rules)."""
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


def _scalar_bytes(raw) -> bytes:
    out = bytearray()
    _encode_scalar(raw, out)
    return bytes(out)


def _field_bytes(label: str) -> bytes:
    """The label prefix of one encoded record field."""
    raw_label = label.encode("utf-8")
    return b"l%d;" % len(raw_label) + raw_label


def _encode(value: Value, out: bytearray) -> None:
    if isinstance(value, Atom):
        _encode_scalar(value.value, out)
    elif isinstance(value, Record):
        encoded = []
        for label, sub in value.fields:
            part = bytearray(_field_bytes(label))
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


def _encode_json(data, scalar_bytes, field_bytes) -> bytes:
    """:func:`_encode` of the value *data* decodes to, read off the
    plain data itself: a dict is a record, a list a set — repeats
    dropped, as the set's equality drops them — and a scalar an atom,
    encoded by *scalar_bytes* (record labels by *field_bytes*)."""
    kind = type(data)
    if kind is dict:
        parts = sorted([field_bytes(label)
                        + _encode_json(sub, scalar_bytes, field_bytes)
                        for label, sub in data.items()])
        return b"r%d;" % len(parts) + b"".join(parts)
    if kind is list:
        parts = sorted({_encode_json(item, scalar_bytes, field_bytes)
                        for item in data})
        return b"S%d;" % len(parts) + b"".join(parts)
    if kind not in _SCALARS:
        raise ValueError_(f"cannot canonically encode {kind.__name__}")
    return scalar_bytes(data)
