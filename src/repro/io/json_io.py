"""JSON (de)serialization of schemas, instances, and NFD sets.

The wire format is deliberately plain:

* types serialize to their concrete syntax strings (round-tripping
  through :func:`repro.types.parser.parse_type`);
* instances serialize to nested dict/list structures (sets as sorted
  lists), shaped by the schema on the way back in;
* NFDs serialize to their concrete syntax strings.

A whole (schema, sigma, instance) bundle round-trips through
:func:`dump_bundle` / :func:`load_bundle`, which is how example scripts
persist scenarios.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..inference.empty_sets import NonEmptySpec

from ..errors import ParseError
from ..nfd.nfd import NFD
from ..nfd.parser import parse_nfd
from ..types.parser import parse_type
from ..types.printer import format_type
from ..types.schema import Schema
from ..values.build import Instance, from_python, to_python

__all__ = [
    "load_spec",
    "schema_to_dict", "schema_from_dict",
    "instance_to_dict", "instance_from_dict",
    "nfds_to_list", "nfds_from_list",
    "dump_bundle", "load_bundle",
]


def schema_to_dict(schema: Schema) -> dict[str, str]:
    """``{relation: type-syntax}``."""
    return {name: format_type(rel_type)
            for name, rel_type in schema.items()}


def schema_from_dict(data: dict[str, str]) -> Schema:
    return Schema({name: parse_type(text) for name, text in data.items()})


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    """Nested dict/list data, one key per relation."""
    return {name: to_python(value)
            for name, value in instance.relations()}


def instance_from_dict(schema: Schema, data: dict[str, Any]) -> Instance:
    return Instance(schema, {
        name: from_python(value, schema.relation_type(name))
        for name, value in data.items()
    })


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


def load_bundle(text: str) \
        -> tuple[Schema, list[NFD], Instance | None]:
    """Inverse of :func:`dump_bundle` (spec excluded; see
    :func:`load_spec`)."""
    payload = parse_bundle_json(text)
    if "schema" not in payload:
        raise ParseError('bundle is missing the required "schema" key')
    schema = schema_from_dict(payload["schema"])
    nfds = payload.get("nfds", [])
    if not isinstance(nfds, list):
        raise ParseError(
            f'bundle "nfds" must be a list of NFD strings, found '
            f"{type(nfds).__name__}")
    sigma = nfds_from_list(nfds)
    instance = None
    if "instance" in payload:
        instance = instance_from_dict(schema, payload["instance"])
    return schema, sigma, instance


def load_spec(text: str) -> "NonEmptySpec | None":
    """The bundle's NON-NULL declarations, or None if absent."""
    from ..inference.empty_sets import NonEmptySpec
    from ..paths.path import parse_path

    payload = parse_bundle_json(text)
    declared = payload.get("nonempty")
    if declared is None:
        return None
    if declared == "*":
        return NonEmptySpec.all_nonempty()
    return NonEmptySpec({parse_path(item) for item in declared})
