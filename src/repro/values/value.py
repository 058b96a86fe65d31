"""The value model: atoms, records, and finite sets.

Values denote elements of the natural type semantics from Section 2 of the
paper.  All values are immutable and hashable, so records can be elements
of sets and sets can be compared for equality with genuine set semantics
(order- and duplicate-insensitive).

The three constructors mirror the type constructors:

* :class:`Atom` wraps a Python ``int``, ``str``, ``bool``, or ``float``;
* :class:`Record` maps labels to values;
* :class:`SetValue` is a finite (possibly empty) set of values.

Equality is structural and set equality is extensional, which is exactly
what NFD satisfaction (Definition 2.4) compares.

Because values are immutable, the structural hash of every constructor is
computed *once at construction* and cached (``_hash``); ``__hash__`` then
just returns it.  Nested values hash in O(depth) amortized instead of
re-walking the whole subtree on every dictionary probe — the hash-group
tables of :mod:`repro.nfd.batch_validate` and
:mod:`repro.nfd.stream_validate` probe these hashes on every binding.
:class:`SetValue` additionally caches its deterministic (sorted-by-repr)
iteration order lazily, so repeated traversals of the same set do not
re-sort it.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterable, Iterator

from ..errors import ValueError_

__all__ = ["Value", "Atom", "Record", "SetValue", "EMPTY_SET",
           "value_of_json", "json_repr_key"]

_ATOM_TYPES = (int, str, bool, float)


class Value:
    """Abstract base class of all database values."""

    __slots__ = ()

    def is_atom(self) -> bool:
        return isinstance(self, Atom)

    def is_record(self) -> bool:
        return isinstance(self, Record)

    def is_set(self) -> bool:
        return isinstance(self, SetValue)


class Atom(Value):
    """An atomic value of one of the base types."""

    __slots__ = ("value", "_hash")

    def __init__(self, value):
        if not isinstance(value, _ATOM_TYPES):
            raise ValueError_(
                f"atoms wrap int, str, bool, or float, not "
                f"{type(value).__name__}"
            )
        if isinstance(value, float) and value != value:
            # NaN breaks reflexivity of __eq__, and with it set
            # membership and the hash/equality contract.
            raise ValueError_("atoms cannot wrap NaN (NaN != NaN would "
                              "break value equality)")
        object.__setattr__(self, "value", value)
        object.__setattr__(
            self, "_hash",
            hash(("Atom", type(value).__name__, value)))

    def __setattr__(self, key, value):  # pragma: no cover - immutability
        raise AttributeError("Atom is immutable")

    def __reduce__(self):
        # the immutability guard defeats pickle's default slot-state
        # restore, so rebuild through the constructor
        return (Atom, (self.value,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Atom):
            return False
        # bool is a subclass of int in Python, and int == float across
        # types; keep True != 1 != 1.0 to avoid surprising cross-type
        # equalities in instances (the cached hash already separates the
        # three, so equality must too).
        if isinstance(self.value, bool) != isinstance(other.value, bool):
            return False
        if isinstance(self.value, float) != isinstance(other.value, float):
            return False
        return self.value == other.value

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Atom({self.value!r})"

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


class Record(Value):
    """A record value ``<A1 -> v1, ..., An -> vn>``.

    Label order is preserved for display; equality and hashing ignore it.
    """

    __slots__ = ("fields", "_by_label", "_hash")

    def __init__(self, fields):
        """Create a record from ``(label, value)`` pairs or a mapping."""
        if isinstance(fields, Mapping):
            pairs = tuple(fields.items())
        else:
            pairs = tuple(fields)
        seen: set[str] = set()
        for label, value in pairs:
            if not isinstance(label, str) or not label:
                raise ValueError_(f"record labels must be non-empty "
                                  f"strings, got {label!r}")
            if label in seen:
                raise ValueError_(f"repeated label {label!r} in record")
            seen.add(label)
            if not isinstance(value, Value):
                raise ValueError_(
                    f"field {label!r} must hold a Value, got "
                    f"{type(value).__name__}; use repro.values.build to "
                    "lift plain Python data"
                )
        if not pairs:
            raise ValueError_("records must have at least one field")
        object.__setattr__(self, "fields", pairs)
        object.__setattr__(self, "_by_label", dict(pairs))
        # Label order is display-only: hash the label/value pairs as a
        # frozenset so reordered constructions collide, as equality does.
        object.__setattr__(
            self, "_hash", hash(("Record", frozenset(pairs))))

    def __setattr__(self, key, value):  # pragma: no cover - immutability
        raise AttributeError("Record is immutable")

    def __reduce__(self):
        return (Record, (self.fields,))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.fields)

    def get(self, label: str) -> Value:
        """Project field *label*.

        :raises ValueError_: if the label is absent.
        """
        try:
            return self._by_label[label]
        except KeyError:
            raise ValueError_(
                f"record has no field {label!r}; fields are "
                f"{', '.join(self.labels)}"
            ) from None

    def has(self, label: str) -> bool:
        return label in self._by_label

    def replace(self, label: str, value: Value) -> "Record":
        """Return a copy with field *label* replaced by *value*."""
        if label not in self._by_label:
            raise ValueError_(f"record has no field {label!r}")
        return Record(tuple(
            (lab, value if lab == label else old)
            for lab, old in self.fields
        ))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return False
        return self._by_label == other._by_label

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{label}={value!r}"
                          for label, value in self.fields)
        return f"Record({inner})"

    def __str__(self) -> str:
        inner = ", ".join(f"{label} -> {value}"
                          for label, value in self.fields)
        return f"<{inner}>"


class SetValue(Value):
    """A finite set of values with extensional equality."""

    __slots__ = ("elements", "_hash", "_sorted")

    def __init__(self, elements: Iterable[Value] = ()):
        frozen = frozenset(elements)
        for element in frozen:
            if not isinstance(element, Value):
                raise ValueError_(
                    f"set elements must be Values, got "
                    f"{type(element).__name__}"
                )
        object.__setattr__(self, "elements", frozen)
        object.__setattr__(self, "_hash", hash(("SetValue", frozen)))
        # Deterministic iteration order, computed lazily on first use.
        object.__setattr__(self, "_sorted", None)

    def __setattr__(self, key, value):  # pragma: no cover - immutability
        raise AttributeError("SetValue is immutable")

    def __reduce__(self):
        return (SetValue, (self.elements,))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Value]:
        # Deterministic iteration order: sort by repr.  Stable order
        # keeps printing and tests reproducible across hash
        # randomization; the sorted tuple is cached because validation
        # engines iterate the same sets many times.
        ordered = self._sorted
        if ordered is None:
            if len(self.elements) == 1:
                # Singleton sets need no repr (a full-subtree render) to
                # have a deterministic order; the streaming validator
                # walks one of these per nested-anchored element.
                ordered = tuple(self.elements)
            else:
                ordered = tuple(sorted(self.elements, key=repr))
            object.__setattr__(self, "_sorted", ordered)
        return iter(ordered)

    def __contains__(self, value: Value) -> bool:
        return value in self.elements

    @property
    def is_empty(self) -> bool:
        return not self.elements

    @property
    def is_singleton(self) -> bool:
        return len(self.elements) == 1

    def the_element(self) -> Value:
        """Return the sole element of a singleton set.

        :raises ValueError_: if the set is not a singleton.
        """
        if len(self.elements) != 1:
            raise ValueError_(
                f"expected a singleton set, found {len(self.elements)} "
                "elements"
            )
        return next(iter(self.elements))

    def union(self, other: "SetValue") -> "SetValue":
        return SetValue(self.elements | other.elements)

    def intersection(self, other: "SetValue") -> "SetValue":
        return SetValue(self.elements & other.elements)

    def add(self, value: Value) -> "SetValue":
        """Return a new set with *value* added."""
        return SetValue(self.elements | {value})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetValue) and \
            self.elements == other.elements

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(repr(element) for element in self)
        return f"SetValue({{{inner}}})"

    def __str__(self) -> str:
        inner = ", ".join(str(element) for element in self)
        return "{" + inner + "}"


#: The empty set value.
EMPTY_SET = SetValue(())


# ------------------------------------------------------- trusted builds
#
# value_of_json rebuilds value trees from JSON data that is already
# known to be well-formed.  The validating constructors — per-field
# label checks plus abstract-class isinstance probes on every node —
# would dominate that rebuild, so each node is made with
# ``object.__new__`` plus direct slot stores, computing the structural
# hash in-process (hashes are salted per process and never travel).


def _trusted_atom(raw) -> Atom:
    atom = object.__new__(Atom)
    object.__setattr__(atom, "value", raw)
    object.__setattr__(atom, "_hash",
                       hash(("Atom", type(raw).__name__, raw)))
    return atom


def _trusted_record(pairs: tuple) -> Record:
    record = object.__new__(Record)
    object.__setattr__(record, "fields", pairs)
    object.__setattr__(record, "_by_label", dict(pairs))
    object.__setattr__(record, "_hash", hash(("Record", frozenset(pairs))))
    return record


def _trusted_set(elements: frozenset) -> SetValue:
    set_value = object.__new__(SetValue)
    object.__setattr__(set_value, "elements", elements)
    object.__setattr__(set_value, "_hash", hash(("SetValue", elements)))
    object.__setattr__(set_value, "_sorted", None)
    return set_value


def value_of_json(data):
    """The value tree of plain JSON-shaped *data* — dicts, lists and
    scalars — already known to be well-formed (type-checked, or made by
    :func:`~repro.values.build.to_python`).

    Built without the constructors' checks: a dict becomes a
    :class:`Record` in its key order, a list a :class:`SetValue` (an
    equal repeat keeps the first occurrence, as ``frozenset`` does) and
    a scalar an :class:`Atom`."""
    kind = type(data)
    if kind is dict:
        return _trusted_record(tuple([(label, value_of_json(sub))
                                      for label, sub in data.items()]))
    if kind is list:
        return _trusted_set(frozenset([value_of_json(item)
                                       for item in data]))
    return _trusted_atom(data)


def json_repr_key(data) -> tuple[str, object]:
    """``(repr, equality key)`` of ``value_of_json(data)`` for
    type-checked JSON *data*, read off the JSON alone — no value built.

    The text is exactly the tree's ``repr`` (the ``__repr__`` methods
    above): a record renders its fields in written order, a set its
    distinct elements (first occurrences) sorted by their own text.
    The key is equal for two data exactly when their value trees are: a
    frozenset of ``(label, key)`` pairs per record, of element keys per
    set, and the scalar itself per atom — exact because a type-checked
    position holds one base type only, so ``True`` never meets ``1``.
    """
    kind = type(data)
    if kind is dict:
        parts = []
        keys = []
        for label, sub in data.items():
            text, key = json_repr_key(sub)
            parts.append(f"{label}={text}")
            keys.append((label, key))
        return f"Record({', '.join(parts)})", frozenset(keys)
    if kind is list:
        first: dict = {}
        for item in data:
            text, key = json_repr_key(item)
            if key not in first:
                first[key] = text
        return (f"SetValue({{{', '.join(sorted(first.values()))}}})",
                frozenset(first))
    return f"Atom({data!r})", data
