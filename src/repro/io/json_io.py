"""JSON (de)serialization of schemas, instances, and NFD sets.

The wire format is deliberately plain:

* types serialize to their concrete syntax strings (round-tripping
  through :func:`repro.types.parser.parse_type`);
* instances serialize to nested dict/list structures (sets as sorted
  lists), shaped by the schema on the way back in — or, for the query
  commands, held to it row by row and kept as JSON
  (:func:`instance_rows`);
* NFDs serialize to their concrete syntax strings.

A whole (schema, sigma, instance) bundle round-trips through
:func:`dump_bundle` / :func:`load_bundle`, which is how example scripts
persist scenarios.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterable

from ..errors import InstanceError, ParseError
from ..nfd.nfd import NFD
from ..nfd.parser import parse_nfd
from ..types.parser import parse_type
from ..types.printer import format_type
from ..types.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..inference.empty_sets import NonEmptySpec
    from ..values.build import Instance

# The value layer and the row checker load only when a bundle carries
# an instance, so a bundle of schema and Σ alone costs neither.

__all__ = [
    "bundle_parts", "bundle_spec", "load_spec", "read_bundle",
    "schema_to_dict", "schema_from_dict",
    "instance_to_dict", "instance_from_dict", "instance_rows",
    "nfds_to_list", "nfds_from_list",
    "dump_bundle", "load_bundle", "load_bundle_rows", "load_bundle_sigma",
]


def schema_to_dict(schema: Schema) -> dict[str, str]:
    """``{relation: type-syntax}``."""
    return {name: format_type(rel_type)
            for name, rel_type in schema.items()}


def schema_from_dict(data: dict[str, str]) -> Schema:
    return Schema({name: parse_type(text) for name, text in data.items()})


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    """Nested dict/list data, one key per relation."""
    from ..values.build import to_python

    return {name: to_python(value)
            for name, value in instance.relations()}


def instance_from_dict(schema: Schema, data: dict[str, Any]) -> Instance:
    from ..values.build import Instance, from_python

    return Instance(schema, {
        name: from_python(value, schema.relation_type(name))
        for name, value in data.items()
    })


def instance_rows(schema: Schema, data: Any) -> dict[str, list]:
    """A bundle's ``instance`` object as ``{relation: rows}``, kept as
    parsed JSON.

    Every relation of *schema* must be present and no other, and each
    row is held to its relation's element type by the compiled checker
    the JSONL reader runs (base types exactly: a JSON ``true`` or
    ``1.0`` is not an ``int``; records with exactly their fields); a
    refused row is worded by :func:`~repro.io.stream._type_error` and
    raised as :class:`~repro.errors.InstanceError`.  The rows keep
    their written order and repeats; :func:`~repro.io.stream.set_order`
    puts them in set order.
    """
    from .stream import _compile_checker, _shown, _type_error

    if type(data) is not dict:
        raise InstanceError(
            f'bundle "instance" must be a JSON object, got {_shown(data)}')
    rows: dict[str, list] = {}
    for name in schema.relation_names:
        if name not in data:
            raise InstanceError(f"instance is missing relation {name!r}")
        listed = data[name]
        relation_type = schema.relation_type(name)
        if type(listed) is not list:
            raise InstanceError(_type_error(relation_type, listed, name))
        element_type = relation_type.element
        conforms = _compile_checker(element_type)
        for index, row in enumerate(listed):
            if not conforms(row):
                raise InstanceError(
                    _type_error(element_type, row, f"{name}[{index}]"))
        rows[name] = listed
    extra = data.keys() - rows.keys()
    if extra:
        raise InstanceError(
            f"instance has relations not in the schema: "
            f"{', '.join(sorted(extra))}")
    return rows


def nfds_to_list(nfds: Iterable[NFD]) -> list[str]:
    return [str(nfd) for nfd in nfds]


def nfds_from_list(texts: Iterable[str]) -> list[NFD]:
    result = []
    for text in texts:
        try:
            result.append(parse_nfd(text))
        except ParseError as exc:
            raise ParseError(f"bad NFD in list: {exc}") from exc
    return result


def dump_bundle(schema: Schema, sigma: Iterable[NFD],
                instance: Instance | None = None, indent: int = 2,
                nonempty: "NonEmptySpec | None" = None) -> str:
    """Serialize a scenario to a JSON string.

    When *nonempty* is given, the Section 3.2 NON-NULL declarations are
    stored under ``"nonempty"`` (the string ``"*"`` for the all-nonempty
    spec) and recovered by :func:`load_spec`.
    """
    payload: dict[str, Any] = {
        "schema": schema_to_dict(schema),
        "nfds": nfds_to_list(sigma),
    }
    if instance is not None:
        payload["instance"] = instance_to_dict(instance)
    if nonempty is not None:
        if nonempty.declares_everything:
            payload["nonempty"] = "*"
        else:
            payload["nonempty"] = sorted(
                str(path) for path in nonempty.declared
            )
    return json.dumps(payload, indent=indent, sort_keys=True)


def parse_bundle_json(text: str) -> dict[str, Any]:
    """Decode a bundle, translating raw decoder failures into typed
    :class:`ParseError`\\ s that name the offending line/column."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"bundle is not valid JSON at line {exc.lineno}, column "
            f"{exc.colno}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ParseError(
            f"bundle must be a JSON object, found "
            f"{type(payload).__name__}")
    return payload


def _schema_and_sigma(payload: dict[str, Any]) \
        -> tuple[Schema, list[NFD]]:
    """A decoded bundle's schema and NFD list: ``"schema"`` is
    required and ``"nfds"``, if present, must be a list."""
    if "schema" not in payload:
        raise ParseError('bundle is missing the required "schema" key')
    schema = schema_from_dict(payload["schema"])
    nfds = payload.get("nfds", [])
    if not isinstance(nfds, list):
        raise ParseError(
            f'bundle "nfds" must be a list of NFD strings, found '
            f"{type(nfds).__name__}")
    return schema, nfds_from_list(nfds)


def bundle_parts(payload: dict[str, Any]) \
        -> tuple[Schema, list[NFD], "dict[str, list] | None",
                 "NonEmptySpec | None"]:
    """The parts of a decoded bundle: ``(schema, sigma, rows, spec)``.

    *rows* is the instance as type-checked JSON rows
    (:func:`instance_rows`), None when the bundle has none; *spec* is
    its NON-NULL declarations (:func:`bundle_spec`).  A bundle file
    (:func:`read_bundle`) and a daemon request's ``bundle`` object
    (:func:`repro.server.protocol.parse_bundle_payload`) are both read
    through this one function."""
    schema, sigma = _schema_and_sigma(payload)
    rows = payload.get("instance")
    if rows is not None:
        rows = instance_rows(schema, rows)
    return schema, sigma, rows, bundle_spec(payload)


def read_bundle(text: str, *, values: bool = False) \
        -> tuple[Schema, list[NFD], Any, "NonEmptySpec | None"]:
    """One parse of a bundle file: ``(schema, sigma, instance, spec)``
    (:func:`bundle_parts`).

    The instance is type-checked JSON rows — the form ``check``,
    ``implies``, ``closure`` and ``keys`` read, with no value tree
    built — or, with *values*, the value tree of those checked rows
    (:func:`instance_from_dict`), so an ill-typed instance is refused
    in the same words either way; None when the bundle has none."""
    schema, sigma, instance, spec = bundle_parts(parse_bundle_json(text))
    if instance is not None and values:
        instance = instance_from_dict(schema, instance)
    return schema, sigma, instance, spec


def load_bundle(text: str) \
        -> tuple[Schema, list[NFD], Instance | None]:
    """Inverse of :func:`dump_bundle` (spec excluded; see
    :func:`load_spec`)."""
    return read_bundle(text, values=True)[:3]


def load_bundle_rows(text: str) \
        -> tuple[Schema, list[NFD], dict[str, list] | None]:
    """:func:`load_bundle` with the instance as type-checked JSON rows
    (:func:`read_bundle`)."""
    return read_bundle(text)[:3]


def load_bundle_sigma(text: str) -> tuple[Schema, list[NFD]]:
    """The bundle's schema and NFD list alone: its instance, if any, is
    neither read nor type-checked (``check --stream`` validates a
    streamed relation instead)."""
    return _schema_and_sigma(parse_bundle_json(text))


def bundle_spec(payload: dict[str, Any]) -> "NonEmptySpec | None":
    """The NON-NULL declarations of a decoded bundle, or None if it has
    none: ``"*"`` declares every set-valued path, a list of path
    strings declares those paths; :func:`bundle_parts` reads a
    bundle's ``"nonempty"`` through this one rule.

    :raises ParseError: for any other ``"nonempty"`` value — a number,
        another string, an object, or a list holding a non-string.
    """
    declared = payload.get("nonempty")
    if declared is None:
        return None
    from ..inference.empty_sets import NonEmptySpec
    from ..paths.path import parse_path

    if declared == "*":
        return NonEmptySpec.all_nonempty()
    if type(declared) is list and all(type(item) is str
                                      for item in declared):
        return NonEmptySpec({parse_path(item) for item in declared})
    from .stream import _shown

    if type(declared) is list:
        shown = _shown(next(item for item in declared
                            if type(item) is not str)) + " in the list"
    else:
        shown = _shown(declared)
    raise ParseError(f'bundle "nonempty" must be "*" or a list of path '
                     f"strings, got {shown}")


def load_spec(text: str) -> "NonEmptySpec | None":
    """The bundle's NON-NULL declarations (:func:`bundle_spec`)."""
    return bundle_spec(parse_bundle_json(text))
