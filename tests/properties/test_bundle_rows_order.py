"""The JSON check path against the value model it stands in for.

A bundle ``check`` reads the instance as JSON rows
(:func:`repro.io.json_io.instance_rows`), puts each relation's rows in
set order with :func:`repro.io.stream.set_order`, and runs the stream
engine over them; no :class:`~repro.values.build.Instance` is built.
These tests hold that path to the one it replaced, on seeded random
rows spelled every way a set lets them be:

* repeated rows, and equal rows spelled apart (record fields permuted,
  nested arrays reordered or with repeats);
* ties on the first field (a two-value atom domain);
* a set-valued first field;
* the row list shuffled.

``set_order`` must give the :class:`~repro.values.value.SetValue`'s
iteration order element for element, :func:`repro.service.check` must
give :class:`~repro.nfd.ValidatorEngine`'s witnesses on
:func:`~repro.io.json_io.load_bundle`'s instance in its order, and a
bounded daemon check must count each set element once.
"""

import json
import random
import sys

import pytest

from repro.generators import random_schema, random_sigma, random_value
from repro.io.json_io import load_bundle, load_bundle_rows, schema_to_dict
from repro.io.stream import set_order
from repro.nfd import ValidatorEngine
from repro.server import BackgroundServer, ReproClient, ServerConfig
from repro.service import check
from repro.types.parser import parse_schema
from repro.values import check_instance, from_python
from repro.values.build import Instance, to_python
from repro.values.value import value_of_json

SEEDS = 60

#: Fixed shapes besides the random ones: a set-valued first field, a
#: set below a set, and atoms of every base type.
SCHEMAS = [
    "R = {<s: {<c: int, d: {<e: int>}>}, a: int, b: string>}",
    "R = {<a: int, b: {<c: int, d: string>}, e: bool>}",
    "R = {<a: string, t: {<u: {<v: int>}, w: int>}>}",
]


def _respelled(rng: random.Random, data):
    """*data* spelled apart as JSON, equal as a value: record fields
    permuted, nested arrays shuffled and sometimes with a repeat."""
    if type(data) is dict:
        items = list(data.items())
        rng.shuffle(items)
        return {label: _respelled(rng, sub) for label, sub in items}
    if type(data) is list:
        items = [_respelled(rng, item) for item in data]
        if items and rng.random() < 0.3:
            items.append(_respelled(rng, rng.choice(data)))
        rng.shuffle(items)
        return items
    return data


def _draw(seed: int):
    """``(schema, sigma, relation, bundle text)`` of one seeded case."""
    rng = random.Random(seed)
    if seed % 2:
        schema = parse_schema(SCHEMAS[seed // 2 % len(SCHEMAS)])
    else:
        schema = random_schema(rng, relations=1, max_fields=3,
                               max_depth=2, set_probability=0.5)
    relation = schema.relation_names[0]
    sigma = random_sigma(rng, schema, count=rng.randint(1, 4), max_lhs=2)
    element = schema.element_type(relation)
    base = [to_python(random_value(rng, element, domain=2, max_set_size=3,
                                   empty_probability=0.2))
            for _ in range(rng.randint(0, 7))]
    rows = []
    for row in base:
        rows.append(row)
        if rng.random() < 0.3:
            rows.append(row)
        if rng.random() < 0.5:
            rows.append(_respelled(rng, row))
    rng.shuffle(rows)
    text = json.dumps({"schema": schema_to_dict(schema),
                       "nfds": [str(nfd) for nfd in sigma],
                       "instance": {relation: rows}})
    return schema, sigma, relation, text


def _reprs(rows) -> list[str]:
    return [repr(value_of_json(row)) for row in rows]


@pytest.mark.parametrize("seed", range(SEEDS))
def test_set_order_is_the_sets_order(seed):
    schema, _, relation, text = _draw(seed)
    _, _, instance = load_bundle(text)
    _, _, rows = load_bundle_rows(text)
    ordered = set_order(rows[relation])
    expected = [to_python(e) for e in instance.relation(relation)]
    assert _reprs(ordered) == _reprs(expected)


@pytest.mark.parametrize("seed", range(SEEDS))
def test_check_gives_the_validators_witnesses(seed):
    schema, sigma, _, text = _draw(seed)
    _, _, instance = load_bundle(text)
    _, _, rows = load_bundle_rows(text)
    expected = [v.describe() for v in ValidatorEngine(schema, sigma)
                .validate(instance, all_violations=True).violations]
    result = check(schema, sigma, rows)
    assert [v.describe() for v in result.violations] == expected


@pytest.fixture(scope="module")
def daemon():
    with BackgroundServer(ServerConfig()) as server:
        yield server


@pytest.mark.parametrize("seed", range(0, SEEDS, 3))
def test_bounded_daemon_check_counts_the_set(seed, daemon):
    schema, sigma, relation, text = _draw(seed)
    _, _, instance = load_bundle(text)
    expected = [v.describe() for v in ValidatorEngine(schema, sigma)
                .validate(instance, all_violations=True).violations]
    with ReproClient(daemon.host, daemon.port, timeout=30) as client:
        result = client.check(json.loads(text), deadline=3600)
    assert result["violations"] == expected
    assert result["elements_seen"] == len(instance.relation(relation))


def test_daemon_check_builds_no_instance(daemon, monkeypatch):
    """A daemon ``check`` answers with the value-model entry points
    that used to carry it made to raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a check built or type-checked an Instance")

    # every binding of the two names, wherever a module imported them
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is from_python or value is check_instance:
                    monkeypatch.setattr(module, attr, refuse)
    monkeypatch.setattr(Instance, "__init__", refuse)
    bundle = {"schema": {"R": "{<a: int, b: {<c: int>}>}"},
              "nfds": ["R:[a -> b]"],
              "instance": {"R": [{"a": 1, "b": [{"c": 1}]},
                                 {"b": [{"c": 2}], "a": 1}]}}
    with ReproClient(daemon.host, daemon.port, timeout=30) as client:
        result = client.check(bundle)
    assert result["satisfied"] is False
    assert len(result["violations"]) == 1
