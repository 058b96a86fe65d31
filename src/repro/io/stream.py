"""Chunked streaming of relation elements: JSONL readers and writers.

The in-memory bundle format (:mod:`repro.io.json_io`) materializes a
whole instance before anything can be checked.  This module is the
out-of-core half: a relation is serialized as **JSON Lines** — one
top-level element (a record of the relation's element type) per line —
and read back one element at a time, so
:mod:`repro.nfd.stream_validate` can check Σ against a dump that never
fits in memory.

Error handling is deliberately strict and *typed*: a truncated or
malformed line, an element that does not conform to the relation's
element type, and an empty stream all raise
:class:`~repro.errors.StreamError` naming the offending 1-based line
number — never a raw ``json.JSONDecodeError`` or ``KeyError`` — so a
failure in a multi-gigabyte dump points at the exact record.

Lines are the byte runs between ``\n`` bytes of the binary file — one
line model for the reader and the incremental checkpoint's watermark
scan — and each is decoded as strict UTF-8 before :func:`json.loads`,
so a ``\r`` is JSON whitespace inside its line and an invalid byte is a
typed error naming the line.

Each parsed line is checked by one function compiled per relation type
from generated source (:func:`_checker_source`; :func:`checker_source`
prints it): the element's type tree unrolled into type tests, record
field reads and loops, holding the element to its type — base types (a
JSON ``true`` is not an ``int``, ``1.0`` is not one either), missing and
extra record fields.  The same checker holds a bundle's instance rows
(:func:`repro.io.json_io.instance_rows`), so ``check --stream`` and
every bundle query share one typing rule.  Only a refused element is
walked again, by :func:`_type_error`, to word the error.  The reader
yields the checked JSON itself: the form
:mod:`repro.nfd.stream_validate`'s compiled binder walks — once per
element, building value trees only for the elements a witness prints
or the engine's two set-order fallbacks re-bind.  A caller that wants
the element's value tree maps :func:`~repro.values.value.value_of_json`
over the reader.

A bundle's instance is already parsed JSON; :func:`set_order` puts
one relation's type-checked rows in the set's iteration order — repeats
dropped, ``repr`` order — reading the JSON alone, so the bundle
``check`` (:func:`repro.service.check`) walks its rows in the order the
in-memory engine walks the set without building it.

:func:`iter_jsonl_elements` accepts ``start``/``stop`` line bounds, so
an incremental resume streams just the lines appended since its
checkpoint.
"""

from __future__ import annotations

import json
import os
from itertools import count
from operator import itemgetter
from typing import Any, Iterable, Iterator

from ..codegen import build_function
from ..errors import StreamError
from ..types.base import BaseType, SetType, Type
from ..types.schema import Schema
from ..values.build import to_python
from ..values.value import SetValue, Value, json_repr_key

__all__ = [
    "iter_jsonl_elements",
    "iter_set_elements",
    "set_order",
    "dump_jsonl",
]


_PYTHON_BASE = {"int": int, "string": str, "bool": bool}


def _shown(data) -> str:
    """A short rendering of a rejected JSON value for an error message."""
    if isinstance(data, dict):
        return "a JSON object"
    if isinstance(data, list):
        return "a JSON array"
    if data is None:
        return "null"
    return f"{type(data).__name__} {data!r}"


def _checker_source(value_type: Type) -> str:
    """The source of ``check(data)`` for *value_type*: the type tree
    unrolled — a type test per atom, a length test and field reads per
    record, a loop per set — into one function that returns whether
    parsed JSON conforms.  The text depends on the type alone."""
    lines = ["def check(d):", "    try:"]
    names = count(1)

    def emit(node_type: Type, var: str, depth: int) -> None:
        pad = "    " * depth
        if isinstance(node_type, BaseType):
            lines.append(f"{pad}if type({var}) is not "
                         f"{_PYTHON_BASE[node_type.name].__name__}: "
                         f"return False")
        elif isinstance(node_type, SetType):
            item = f"x{next(names)}"
            lines.append(f"{pad}if type({var}) is not list: return False")
            lines.append(f"{pad}for {item} in {var}:")
            emit(node_type.element, item, depth + 1)
        else:
            # a record: its length and a read of every field make its
            # key set equal the type's (a missing field is a KeyError)
            lines.append(f"{pad}if type({var}) is not dict or len({var}) "
                         f"!= {len(node_type.fields)}: return False")
            for label, sub in node_type.fields:
                if isinstance(sub, BaseType):
                    emit(sub, f"{var}[{label!r}]", depth)
                    continue
                field = f"x{next(names)}"
                lines.append(f"{pad}{field} = {var}[{label!r}]")
                emit(sub, field, depth)

    emit(value_type, "d", 2)
    lines += ["    except KeyError:", "        return False",
              "    return True", ""]
    return "\n".join(lines)


def _compile_checker(value_type: Type):
    """A function that tells whether parsed JSON conforms to
    *value_type* (see :func:`_checker_source`).

    An atom's Python type must be exactly its base type's (``bool`` is
    not ``int``, and there is no float base type, so ``1.0`` and NaN
    never pass), a record must carry exactly its type's fields, and a
    set must be a JSON array of its element type.
    """
    return build_function(_checker_source(value_type), "check", {})


def _type_error(value_type: Type, data, where: str) -> str | None:
    """Why *data* does not conform to *value_type* — the first mismatch
    in the data's own field and element order, named by its path below
    *where* — or ``None`` when it does.  Run only on a line the
    compiled checker refused, to word the error."""
    if isinstance(value_type, BaseType):
        if type(data) is _PYTHON_BASE[value_type.name]:
            return None
        return f"{where}: expected {value_type}, got {_shown(data)}"
    if isinstance(value_type, SetType):
        if type(data) is not list:
            return (f"{where}: expected a set of type {value_type}, got "
                    f"{_shown(data)}")
        for item in data:
            error = _type_error(value_type.element, item, f"{where}[]")
            if error is not None:
                return error
        return None
    # the remaining kind of type: a record
    if type(data) is not dict:
        return (f"{where}: expected a record of type {value_type}, got "
                f"{_shown(data)}")
    fields = dict(value_type.fields)
    if data.keys() != fields.keys():
        parts = []
        missing = fields.keys() - data.keys()
        extra = data.keys() - fields.keys()
        if missing:
            parts.append(f"missing fields {', '.join(sorted(missing))}")
        if extra:
            parts.append(f"unexpected fields {', '.join(sorted(extra))}")
        return f"{where}: {'; '.join(parts)}"
    for label, sub in data.items():
        error = _type_error(fields[label], sub, f"{where}.{label}")
        if error is not None:
            return error
    return None


def checker_source(schema: Schema, relation: str) -> str:
    """The generated source of *relation*'s element type checker — for
    reading it while debugging (``print(checker_source(schema,
    "Course"))``)."""
    return _checker_source(schema.element_type(relation))


def _open_stream(path, label: str):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise StreamError(f"cannot read stream {label!r}: {exc}") \
            from exc


def _parse_line(line: bytes, label: str, number: int):
    """The parsed JSON of one physical line, or a typed error."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StreamError(
            f"{label}: line {number}: invalid UTF-8 byte "
            f"0x{line[exc.start]:02x} at column {exc.start + 1}",
            line=number) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StreamError(
            f"{label}: line {number}: truncated or malformed "
            f"JSON element: {exc.msg}", line=number) from exc


def iter_jsonl_elements(path, schema: Schema, relation: str, *,
                        start: int = 0, stop: int | None = None,
                        require_elements: bool = True) -> Iterator[dict]:
    """Stream the elements of one relation from a JSONL file.

    Each non-blank line must hold one JSON object conforming to
    *relation*'s element type (by the compiled checker a bundle's
    instance rows go through too — see :func:`_compile_checker`);
    elements are yielded in file order, one at a time, so memory stays
    bounded by a single element — as the checked JSON objects
    themselves (map :func:`~repro.values.value.value_of_json` over the
    reader for :class:`~repro.values.value.Record` values).

    ``start``/``stop`` restrict the scan to physical lines
    ``start < n <= stop``.  Blank lines are skipped.

    :raises StreamError: for an unreadable file, invalid UTF-8, a
        truncated/malformed JSON line, a type-mismatched element
        (always naming the 1-based line number), or — unless
        ``require_elements=False`` (an appended range may legitimately
        be empty) — a stream with no elements at all.
    """
    element_type = schema.element_type(relation)
    check = _compile_checker(element_type)
    label = os.fspath(path)
    yielded = 0
    with _open_stream(path, label) as handle:
        for number, line in enumerate(handle, start=1):
            if stop is not None and number > stop:
                break
            if number <= start or not line.strip():
                continue
            data = _parse_line(line, label, number)
            if not check(data):
                raise StreamError(
                    f"{label}: line {number}: element does not conform "
                    f"to the {relation!r} element type: "
                    f"{_type_error(element_type, data, relation)}",
                    line=number)
            yielded += 1
            yield data
    if require_elements and yielded == 0:
        raise StreamError(
            f"{label}: line 1: empty stream (no {relation!r} elements)",
            line=1)


def iter_set_elements(set_value: SetValue) -> Iterator[Value]:
    """Adapter: stream an in-memory set in its deterministic order.

    This is the bridge between the in-memory and out-of-core engines:
    iterating a :class:`~repro.values.value.SetValue` yields elements in
    the same sorted-by-repr order the batch validator walks, so a
    streamed run over this adapter reproduces the in-memory engine's
    witnesses byte for byte.
    """
    return iter(set_value)


def set_order(rows: list) -> list:
    """*rows* — type-checked JSON elements of one set, as a bundle
    writes them — in the set's iteration order, without building the
    set.

    A row equal as a value to an earlier one (however its fields or
    nested arrays are spelled) is dropped, keeping the first occurrence
    as ``frozenset`` does, and the rest are sorted by the ``repr`` of
    their value trees, as :class:`~repro.values.value.SetValue` iterates.
    Both come from :func:`~repro.values.value.json_repr_key`, which
    reads the JSON once and builds no value.  Each kept row is returned
    as written: nested arrays keep their order and repeats, which the
    stream engine's binder reads as sets.
    """
    if len(rows) < 2:
        return list(rows)
    first: dict = {}
    for row in rows:
        text, key = json_repr_key(row)
        if key not in first:
            first[key] = (text, row)
    return [row for _, row in sorted(first.values(), key=itemgetter(0))]


def dump_jsonl(path, elements: Iterable[Any]) -> int:
    """Write elements as JSON Lines (one object per line); returns the
    number of lines written.

    Elements may be :class:`Value` trees (converted via
    :func:`~repro.values.build.to_python`, which preserves record field
    order) or already-plain Python data.  Dumping a
    :class:`SetValue`'s iteration yields a file whose scan order equals
    the in-memory walk order.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for element in elements:
            data = to_python(element) if isinstance(element, Value) \
                else element
            handle.write(json.dumps(data))
            handle.write("\n")
            count += 1
    return count
