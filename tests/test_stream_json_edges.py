"""Edge cases of binding streamed JSON directly.

``check --stream`` binds Σ's plans over each line's parsed JSON, where a
set is a JSON array: it may repeat an element, spell equal records with
different field orders, and list its elements in any order.  The
in-memory engine sees the deduplicated set in ``repr`` order.  Each case
here is a small JSONL file in the relation's iteration order whose
arrays are spelled the awkward way; every ``check --stream`` path —
plain, spilling (``--max-rows 1``) and incremental over a random
split — must print exactly what
:class:`~repro.nfd.ValidatorEngine` reports on the same instance, and
the verdict per NFD must agree with Definition 2.4
(:func:`~repro.nfd.satisfy.satisfies`).  The same cases, written as a
bundle whose instance rows are out of set order, must give the same
witnesses in the same order through every ``check`` of a bundle's own
instance: in memory, ``--server``, and the daemon with and without a
deadline.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.cli import main
from repro.io import dump_bundle, load_bundle
from repro.nfd import ValidatorEngine, parse_nfds
from repro.nfd.satisfy import satisfies
from repro.server import BackgroundServer, ReproClient, ServerConfig
from repro.service import render
from repro.types.parser import parse_schema
from repro.values import Instance, value_of_json

COURSE = ("Course = {<cnum: string, time: int, "
          "students: {<sid: int, age: int, grade: string>}, "
          "books: {<isbn: int, title: string>}>}")
COURSE_SIGMA = ["Course:[cnum -> time]",
                "Course:[cnum, time -> books]",
                "Course:[books:isbn -> books:title]",
                "Course:[cnum -> books:title]",
                "Course:students:[sid -> grade]"]


def _course(cnum, time, students=(), books=()):
    return {"cnum": cnum, "time": time,
            "students": [{"sid": s, "age": a, "grade": g}
                         for s, a, g in students],
            "books": [{"isbn": i, "title": t} for i, t in books]}


def _permuted(record):
    """*record* with its fields in reverse order."""
    return dict(reversed(list(record.items())))


def _duplicates():
    """Arrays repeating an element: the set holds it once."""
    a = _course("c1", 10, [(1, 20, "A"), (1, 20, "A"), (2, 21, "B")],
                [(7, "x"), (7, "x")])
    b = _course("c2", 11, [(3, 22, "C"), (3, 22, "C"), (3, 22, "D")],
                [(8, "y"), (8, "y")])
    c = _course("c1", 12, [(4, 23, "A")], [(7, "z"), (7, "z")])
    return [a, b, c]


def _permuted_fields():
    """One set holding equal records spelled with permuted fields: the
    witness prints the first one's field order."""
    a = _course("c1", 10, [(1, 20, "A")], [(7, "x"), (9, "w")])
    a["students"].append(_permuted(a["students"][0]))
    a["books"].insert(1, _permuted(a["books"][0]))
    b = _course("c2", 11, [(2, 21, "B")], [(7, "y")])
    b["books"].append(_permuted(b["books"][0]))
    b["students"].append(_permuted({"sid": 2, "age": 21, "grade": "C"}))
    c = _course("c1", 12, [(3, 22, "C")], [(7, "x"), (9, "w")])
    c["books"].reverse()
    return [a, b, c]


def _one_isbn_two_titles():
    """Two books with one isbn and different titles in one course: the
    course alone violates ``books:isbn -> books:title``, and which title
    is first depends on set order."""
    a = _course("c1", 10, [(1, 20, "A")], [(7, "zeta"), (7, "alpha")])
    b = _course("c2", 11, [(2, 21, "B")], [(7, "mid"), (8, "q")])
    c = _course("c3", 12, [(3, 22, "C")], [(8, "r"), (8, "a"), (9, "s")])
    return [a, b, c]


def _two_keys_one_plan():
    """One course clashing on two keys of one plan, its books listed
    against set order."""
    a = _course("c1", 10, [(1, 20, "A")], [(1, "a"), (2, "b"), (3, "c")])
    b = _course("c2", 11, [(2, 21, "B")], [(3, "z"), (2, "y"), (1, "x")])
    c = _course("c3", 12, [(3, 22, "C")], [(2, "w"), (3, "c")])
    return [a, b, c]


def _empty_sets():
    """Empty sets make paths undefined (Definition 2.4's escape, which
    the §3.2 gates reason about): the element constrains nothing for
    an NFD reading them."""
    a = _course("c1", 10, [], [])
    b = _course("c1", 11, [(1, 20, "A"), (1, 21, "B")], [])
    c = _course("c2", 12, [], [(7, "x")])
    d = _course("c3", 13, [(2, 22, "C")], [(7, "y")])
    e = _course("c3", 14, [], [])
    return [a, b, c, d, e]


#: A set-valued path below a traversed set: equal sets spelled apart.
NESTED = ("R = {<a: int, s: {<b: int, x: int, "
          "t: {<c: int, d: int>}>}>}")
NESTED_SIGMA = ["R:[s:b -> s:t]", "R:[a -> s:t]", "R:s:[b -> t]"]


def _spelled_sets():
    """Two set elements projecting to one value spelled two ways: the
    witness prints the spelling the first element in set order has."""
    a = {"a": 1, "s": [
        {"b": 1, "x": 6, "t": [{"d": 2, "c": 1}]},
        {"b": 1, "x": 5, "t": [{"c": 1, "d": 2}]}]}
    b = {"a": 1, "s": [{"b": 1, "x": 7, "t": [{"c": 3, "d": 4}]}]}
    c = {"a": 2, "s": [
        {"b": 2, "x": 1, "t": [{"c": 1, "d": 1}, {"d": 1, "c": 1}]},
        {"b": 2, "x": 2, "t": [{"c": 1, "d": 5}]}]}
    return [a, b, c]


#: (case id, schema, Σ, rows)
CASES = [
    ("duplicates", COURSE, COURSE_SIGMA, _duplicates()),
    ("permuted-fields", COURSE, COURSE_SIGMA, _permuted_fields()),
    ("one-isbn-two-titles", COURSE, COURSE_SIGMA, _one_isbn_two_titles()),
    # without cnum -> books:title, which would make every course with
    # two titles bind one key to two RHS values
    ("two-keys-one-plan", COURSE, COURSE_SIGMA[:3] + COURSE_SIGMA[4:],
     _two_keys_one_plan()),
    ("empty-sets", COURSE, COURSE_SIGMA, _empty_sets()),
    ("spelled-sets", NESTED, NESTED_SIGMA, _spelled_sets()),
]

#: (path id, extra ``check --stream`` arguments)
PATHS = [("plain", []), ("spilling", ["--max-rows", "1"]),
         ("incremental", None)]


def _run(argv, capsys):
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _scenario(tmp_path, schema_text, sigma_texts, rows):
    """The bundle, the rows in the relation's iteration order and the
    expected ``(exit, stdout)`` of ``check``."""
    schema = parse_schema(schema_text)
    sigma = parse_nfds("\n".join(sigma_texts))
    relation = schema.relation_names[0]
    ordered = sorted(rows, key=lambda row: repr(value_of_json(row)))
    instance = Instance(schema, {relation: ordered})
    assert len(instance.relation(relation)) == len(rows), \
        "a case must not repeat a top-level element"
    violations = ValidatorEngine(schema, sigma).validate(
        instance, all_violations=True).violations
    violated = {str(v.nfd) for v in violations}
    for nfd in sigma:
        assert satisfies(instance, nfd) == (str(nfd) not in violated), nfd
    text, code = render("check", {}, {
        "violations": [v.describe() for v in violations],
        "partial": None})
    bundle = tmp_path / "bundle.json"
    bundle.write_text(dump_bundle(schema, sigma))
    return str(bundle), ordered, (code, text)


def _stream(tmp_path, bundle, lines, path, extra, capsys, seed):
    stream = tmp_path / f"{path}.jsonl"
    argv = ["check", bundle, "--stream", str(stream)]
    if extra is not None:
        stream.write_text("".join(lines))
        return _run(argv + extra, capsys)
    # incremental: a cold pass over a random prefix, then a resume
    # over the rest
    split = random.Random(seed).randint(1, len(lines) - 1)
    argv += ["--incremental", "--cache-dir", str(tmp_path / "cache")]
    stream.write_text("".join(lines[:split]))
    _run(argv, capsys)
    with open(stream, "a", encoding="utf-8") as handle:
        handle.write("".join(lines[split:]))
    code, out, err = _run(argv, capsys)
    assert code == 2 or "incremental: resumed" in err
    return code, out, err


@pytest.mark.parametrize(("path", "extra"), PATHS,
                         ids=[row[0] for row in PATHS])
@pytest.mark.parametrize(("case", "schema_text", "sigma", "rows"), CASES,
                         ids=[row[0] for row in CASES])
def test_stream_matches_engine(case, schema_text, sigma, rows, path,
                               extra, tmp_path, capsys):
    bundle, ordered, expected = _scenario(tmp_path, schema_text, sigma,
                                          rows)
    lines = [json.dumps(row) + "\n" for row in ordered]
    code, out, _ = _stream(tmp_path, bundle, lines, path, extra, capsys,
                           seed=case)
    assert (code, out) == expected


def test_cases_exercise_what_they_name(tmp_path):
    """The cases hold what they claim: a witness printing the first of
    two spellings, an element binding one key to two titles, clashes
    of one plan from one element listed against set order, and a set
    RHS printed in the spelling set order keeps."""
    _, _, (code, text) = _scenario(tmp_path, *CASES[1][1:])
    assert '<sid -> 1, age -> 20, grade -> "A">' in text
    assert '<grade -> "A", age -> 20, sid -> 1>' not in text
    assert '<grade -> "C", age -> 21, sid -> 2>' in text
    _, _, (code, text) = _scenario(tmp_path, *CASES[2][1:])
    assert 'books:title = "alpha" in one binding and "zeta"' in text
    _, _, (code, text) = _scenario(tmp_path, *CASES[3][1:])
    assert text.index("books:isbn = 1") < text.index(
        "books:isbn = 2") < text.index("books:isbn = 3")
    _, _, (code, text) = _scenario(tmp_path, *CASES[5][1:])
    assert "s:t = {<c -> 1, d -> 2>} in one binding" in text


#: The ``check`` paths over a bundle's own instance: in memory, through
#: ``--server``, and the daemon's check without and with a deadline.
BUNDLE_PATHS = ["in-memory", "server", "daemon", "daemon-deadline"]


@pytest.fixture(scope="module")
def daemon():
    with BackgroundServer(ServerConfig()) as server:
        yield server


def _reversed_bundle(tmp_path, schema_text, sigma_texts, rows):
    """The case as a bundle — keys sorted, as :func:`dump_bundle` and
    the wire write them — whose instance rows are in reversed set
    order, with ``ValidatorEngine``'s witnesses on it."""
    schema = parse_schema(schema_text)
    sigma = parse_nfds("\n".join(sigma_texts))
    relation = schema.relation_names[0]
    data = json.loads(dump_bundle(schema, sigma,
                                  Instance(schema, {relation: rows})))
    listed = data["instance"][relation][::-1]
    order = [repr(value_of_json(row)) for row in listed]
    assert order != sorted(order), "the rows must be out of set order"
    data["instance"][relation] = listed
    text = json.dumps(data, sort_keys=True)
    path = tmp_path / "reversed.json"
    path.write_text(text)
    _, _, instance = load_bundle(text)
    witnesses = [v.describe() for v in ValidatorEngine(schema, sigma)
                 .validate(instance, all_violations=True).violations]
    return str(path), data, witnesses


@pytest.mark.parametrize("path", BUNDLE_PATHS)
@pytest.mark.parametrize(("case", "schema_text", "sigma", "rows"), CASES,
                         ids=[row[0] for row in CASES])
def test_bundle_check_keeps_engine_order(case, schema_text, sigma, rows,
                                         path, daemon, tmp_path, capsys):
    """A bundle's rows out of set order: every ``check`` over the
    bundle's instance gives ``ValidatorEngine.validate``'s witnesses
    in its order, and an unbounded daemon check answers exactly the
    three keys it always has."""
    bundle, data, witnesses = _reversed_bundle(tmp_path, schema_text,
                                               sigma, rows)
    if path in ("in-memory", "server"):
        argv = ["check", bundle]
        if path == "server":
            argv += ["--server", f"{daemon.host}:{daemon.port}"]
        code, out, _ = _run(argv, capsys)
        text, status = render("check", {}, {"violations": witnesses,
                                            "partial": None})
        assert (code, out) == (status, text)
        return
    deadline = {} if path == "daemon" else {"deadline": 3600}
    with ReproClient(daemon.host, daemon.port, timeout=30) as client:
        result = client.check(data, **deadline)
    assert result["violations"] == witnesses
    assert result["satisfied"] == (not witnesses)
    assert result["partial"] is None
    keys = {"satisfied", "violations", "partial"}
    assert set(result) == (keys if path == "daemon"
                           else keys | {"elements_seen"})


#: (case id, the bad value of the int field ``time``)
BAD_ATOMS = [("true", True), ("one-point-oh", 1.0)]


@pytest.mark.parametrize(("path", "extra"), PATHS,
                         ids=[row[0] for row in PATHS])
@pytest.mark.parametrize(("case", "value"), BAD_ATOMS,
                         ids=[row[0] for row in BAD_ATOMS])
def test_bool_and_float_in_int_field_are_typed_errors(case, value, path,
                                                      extra, tmp_path,
                                                      capsys):
    """``true`` and ``1.0`` are not ``int`` atoms (and ``1``, ``true``
    and ``1.0`` are three distinct atoms): every path refuses the line
    with its number, exit 2, and leaves no spill file behind."""
    bundle, ordered, _ = _scenario(tmp_path, COURSE, COURSE_SIGMA,
                                   _two_keys_one_plan())
    bad = dict(ordered[2], time=value)
    lines = [json.dumps(row) + "\n" for row in ordered[:2] + [bad]]
    extra = None if extra is None else extra + [
        "--cache-dir", str(tmp_path / "cache")]
    code, out, err = _stream(tmp_path, bundle, lines, path, extra, capsys,
                             seed=case)
    assert (code, out) == (2, "")
    assert "line 3" in err and "expected int" in err
    assert "Traceback" not in err
    spill_root = tmp_path / "cache" / "tmp"
    assert not spill_root.exists() or list(spill_root.iterdir()) == []


def test_nested_base_set_numbering_matches_engine(tmp_path):
    """Base sets two levels down are numbered over each set's distinct
    elements, as the in-memory walk opens them: repeated and permuted
    spellings must not shift the base index of a later witness."""
    from repro.io.stream import iter_jsonl_elements
    from repro.nfd import ResourceBudget, stream_validate

    schema = parse_schema(NESTED)
    sigma = parse_nfds("R:s:t:[c -> d]\nR:s:[b -> x]")
    inner = {"b": 1, "x": 1, "t": [{"c": 1, "d": 1}]}
    rows = [{"a": 1, "s": [inner, dict(inner), _permuted(inner),
                           {"b": 2, "x": 2, "t": []}]},
            {"a": 2, "s": [{"b": 3, "x": 3, "t": [{"c": 1, "d": 2}]},
                           {"b": 3, "x": 4,
                            "t": [{"c": 5, "d": 1}, {"c": 5, "d": 2}]}]},
            {"a": 3, "s": [{"b": 4, "x": 5,
                            "t": [{"c": 7, "d": 1}, {"d": 2, "c": 7}]}]}]
    ordered = sorted(rows, key=lambda row: repr(value_of_json(row)))
    instance = Instance(schema, {"R": ordered})
    expected = [(str(v.nfd), v.base_index, v.describe())
                for v in ValidatorEngine(schema, sigma).validate(
                    instance, all_violations=True).violations]
    assert {index for _, index, _ in expected} != {0}
    stream = tmp_path / "r.jsonl"
    stream.write_text("".join(json.dumps(row) + "\n" for row in ordered))
    for budget in (None, ResourceBudget(max_resident_rows=1)):
        result = stream_validate(schema, sigma, {
            "R": iter_jsonl_elements(stream, schema, "R")},
            budget=budget)
        assert [(str(v.nfd), v.base_index, v.describe())
                for v in result.violations] == expected


def _ill_typed(change):
    """A third ``NESTED`` element with *change* applied two sets down."""
    row = {"a": 3, "s": [{"b": 3, "x": 2, "t": [{"c": 4, "d": 5}]}]}
    change(row["s"][0])
    return row


#: (case id, the change to an ``s`` record, the exact stderr text after
#: the line number)
NESTED_TYPE_ERRORS = [
    ("true-in-int", lambda s: s["t"][0].update(c=True),
     "R.s[].t[].c: expected int, got bool True"),
    ("float-in-int", lambda s: s["t"][0].update(c=1.0),
     "R.s[].t[].c: expected int, got float 1.0"),
    ("null-in-int", lambda s: s["t"][0].update(c=None),
     "R.s[].t[].c: expected int, got null"),
    ("missing-field", lambda s: s["t"][0].pop("d"),
     "R.s[].t[]: missing fields d"),
    ("extra-field", lambda s: s["t"][0].update(e=7),
     "R.s[].t[]: unexpected fields e"),
    ("object-for-set", lambda s: s.update(t={"c": 4, "d": 5}),
     "R.s[].t: expected a set of type {<c: int, d: int>}, got a JSON "
     "object"),
    ("scalar-for-record", lambda s: s["t"].append(9),
     "R.s[].t[]: expected a record of type <c: int, d: int>, got int 9"),
]

#: (path id, extra ``check --stream`` arguments; ``CACHE`` is replaced
#: by a cache directory)
TYPE_ERROR_PATHS = [("plain", []),
                    ("incremental", ["--incremental", "--cache-dir",
                                     "CACHE"])]


@pytest.mark.parametrize(("path", "extra"), TYPE_ERROR_PATHS,
                         ids=[row[0] for row in TYPE_ERROR_PATHS])
@pytest.mark.parametrize(("case", "change", "message"), NESTED_TYPE_ERRORS,
                         ids=[row[0] for row in NESTED_TYPE_ERRORS])
def test_nested_type_errors_keep_their_text(case, change, message, path,
                                            extra, tmp_path, capsys):
    """An ill-typed value two sets down is refused with exit 2 and the
    exact stderr — path below the relation, the value shown, the line
    number — on the plain and incremental paths alike."""
    schema = parse_schema(NESTED)
    bundle = tmp_path / "bundle.json"
    bundle.write_text(dump_bundle(schema, parse_nfds(
        "\n".join(NESTED_SIGMA))))
    rows = [{"a": 1, "s": [{"b": 1, "x": 6, "t": [{"d": 2, "c": 1}]}]},
            {"a": 2, "s": [{"b": 2, "x": 1, "t": [{"c": 1, "d": 1}]}]},
            _ill_typed(change)]
    stream = tmp_path / f"{path}.jsonl"
    stream.write_text("".join(json.dumps(row) + "\n" for row in rows))
    extra = [str(tmp_path / "cache") if arg == "CACHE" else arg
             for arg in extra]
    code, out, err = _run(["check", str(bundle), "--stream", str(stream)]
                          + extra, capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: {stream}: line 3: element does not conform "
                   f"to the 'R' element type: {message}\n")
