"""The CLI's exit-code contract, table-driven across every subcommand.

The contract is three-valued and uniform:

* ``0`` — the command succeeded and the property *holds* (instance
  satisfies Sigma, NFD implied, sets equivalent, countermodel built);
* ``1`` — the command succeeded and the property *fails* (violations
  found, NFD not implied, sets differ, no countermodel because the
  candidate is implied);
* ``2`` — the command could not run: usage errors, unreadable or
  ill-formed bundles, bad parameters, unreachable servers.

Scripts branch on these numbers, so each row here pins one
``(argv, exit code)`` pair — including the ``serve`` / ``client``
error paths and the ``--server`` passthrough, whose codes must match
the in-process ones exactly.
"""

import json
import socket
from pathlib import Path

import pytest

from repro.cli import main
from repro.generators import workloads
from repro.io import dump_bundle
from repro.server import BackgroundServer, ServerConfig

IMPLIED = "Course:[students:sid, time -> books]"
NOT_IMPLIED = "Course:[time -> cnum]"


def run(argv) -> int:
    """``main`` plus argparse's own SystemExit(2) usage failures."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def good(tmp_path):
    path = tmp_path / "good.json"
    path.write_text(dump_bundle(workloads.course_schema(),
                                workloads.course_sigma(),
                                workloads.course_instance()))
    return str(path)


@pytest.fixture
def broken(tmp_path):
    instance = workloads.course_instance().with_relation("Course", [
        {"cnum": "a", "time": 1,
         "students": [{"sid": 1, "age": 20, "grade": "A"}],
         "books": [{"isbn": 1, "title": "X"}]},
        {"cnum": "b", "time": 2,
         "students": [{"sid": 1, "age": 99, "grade": "A"}],
         "books": [{"isbn": 1, "title": "X"}]},
    ])
    path = tmp_path / "broken.json"
    path.write_text(dump_bundle(workloads.course_schema(),
                                workloads.course_sigma(), instance))
    return str(path)


@pytest.fixture
def weaker(tmp_path):
    """The course constraints minus one member: diff -> not equivalent."""
    path = tmp_path / "weaker.json"
    path.write_text(dump_bundle(workloads.course_schema(),
                                workloads.course_sigma()[1:]))
    return str(path)


@pytest.fixture
def no_instance(tmp_path):
    path = tmp_path / "sigma_only.json"
    path.write_text(dump_bundle(workloads.course_schema(),
                                workloads.course_sigma()))
    return str(path)


#: (fixture name, a malformed bundle ``"nonempty"``)
BAD_NONEMPTY = [("nonempty_int", 5), ("nonempty_string", "ab"),
                ("nonempty_object", {"s": 1})]


@pytest.fixture
def bad_nonempty(good, tmp_path):
    """The good bundle under each malformed ``"nonempty"``, by name."""
    paths = {}
    for name, declared in BAD_NONEMPTY:
        data = json.loads(Path(good).read_text())
        data["nonempty"] = declared
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    return paths


@pytest.fixture
def missing(tmp_path):
    return str(tmp_path / "does_not_exist.json")


@pytest.fixture
def stream(tmp_path):
    """The clean course relation as JSONL."""
    from repro.io.stream import dump_jsonl, iter_set_elements

    path = tmp_path / "course.jsonl"
    dump_jsonl(path, iter_set_elements(
        workloads.course_instance().relation("Course")))
    return str(path)


@pytest.fixture
def dead_port():
    """A port that was just bound and released: connection refused."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


# Each row: (case id, argv template, expected exit code).  Templates
# name fixtures in braces; ``_argv`` substitutes the per-test paths.
TABLE = [
    # -- exit 0: success, property holds ------------------------------
    ("check-clean", ["check", "{good}"], 0),
    ("implies-implied", ["implies", "{good}", IMPLIED], 0),
    ("closure", ["closure", "{good}", "Course", "cnum"], 0),
    ("explain-implied", ["explain", "{good}", IMPLIED], 0),
    ("prove-implied", ["prove", "{good}", IMPLIED], 0),
    ("counter-not-implied", ["counter", "{good}", NOT_IMPLIED], 0),
    ("render", ["render", "{good}"], 0),
    ("keys", ["keys", "{good}", "Course"], 0),
    ("diff-equivalent", ["diff", "{good}", "{good}"], 0),
    ("analyze", ["analyze", "{good}"], 0),
    ("report", ["report", "{good}"], 0),
    ("repair-clean", ["repair", "{good}"], 0),
    ("normalize-bundle", ["normalize", "{good}"], 0),
    ("normalize-sweep", ["normalize", "--sweep", "4",
                         "--jobs", "2"], 0),
    # -- exit 1: success, property fails ------------------------------
    ("check-violations", ["check", "{broken}"], 1),
    ("implies-not-implied", ["implies", "{good}", NOT_IMPLIED], 1),
    ("explain-not-implied", ["explain", "{good}", NOT_IMPLIED], 1),
    ("prove-not-implied", ["prove", "{good}", NOT_IMPLIED], 1),
    ("counter-implied", ["counter", "{good}", IMPLIED], 1),
    ("diff-weaker", ["diff", "{good}", "{weaker}"], 1),
    ("normalize-gate-miss", ["normalize", "--sweep", "2",
                             "--min-preserved", "1.01"], 1),
    # -- exit 2: could not run ----------------------------------------
    ("missing-bundle", ["check", "{missing}"], 2),
    ("check-no-instance", ["check", "{no_instance}"], 2),
    ("implies-bad-nfd", ["implies", "{good}", "not an nfd"], 2),
    ("closure-bad-path", ["closure", "{good}", "No:Such:::Path!"], 2),
    ("keys-unknown-relation", ["keys", "{good}", "NoSuchRel"], 2),
    ("cache-no-dir", ["cache", "stats"], 2),
    ("unknown-subcommand", ["frobnicate"], 2),
    ("missing-argument", ["implies", "{good}"], 2),
    # --strategy is retired: any use of it is a usage error
    ("bad-strategy", ["implies", "{good}", IMPLIED,
                      "--strategy", "quantum"], 2),
    ("check-jobs-zero", ["check", "{good}", "--jobs", "0"], 2),
    ("check-jobs-negative", ["check", "{good}", "--jobs", "-2"], 2),
    # check runs one engine: --jobs and --shards are retired
    ("check-jobs-two", ["check", "{good}", "--jobs", "2"], 2),
    ("check-stream-shards", ["check", "{good}", "--stream", "{stream}",
                             "--shards", "2"], 2),
    # "nonempty" is "*" or a list of path strings, nothing else
    ("implies-nonempty-int", ["implies", "{nonempty_int}", IMPLIED], 2),
    ("implies-nonempty-string", ["implies", "{nonempty_string}",
                                 IMPLIED], 2),
    ("implies-nonempty-object", ["implies", "{nonempty_object}",
                                 IMPLIED], 2),
    ("keys-jobs-zero", ["keys", "{good}", "--jobs", "0"], 2),
    ("keys-jobs-negative", ["keys", "{good}", "--jobs", "-2"], 2),
    ("normalize-jobs-zero", ["normalize", "--sweep", "2",
                             "--jobs", "0"], 2),
    ("normalize-jobs-negative", ["normalize", "--sweep", "2",
                                 "--jobs", "-2"], 2),
    ("normalize-no-input", ["normalize"], 2),
    ("normalize-bad-sweep", ["normalize", "--sweep", "0"], 2),
    ("normalize-bad-relation", ["normalize", "{good}",
                                "--relation", "NoSuchRel"], 2),
    # --sweep generates its own schemas: bundle inputs would be ignored
    ("normalize-sweep-with-bundle", ["normalize", "{good}",
                                     "--sweep", "2"], 2),
    ("normalize-sweep-with-relation", ["normalize", "--sweep", "2",
                                       "--relation", "Nope"], 2),
    ("normalize-sweep-with-nonempty", ["normalize", "--sweep", "2",
                                       "--nonempty", "R"], 2),
    # a bundle run would ignore the sweep-only flags
    ("normalize-bundle-with-jobs", ["normalize", "{good}",
                                    "--jobs", "3"], 2),
    ("normalize-bundle-with-sweep-flags", ["normalize", "{good}",
                                           "--seed", "9", "--rules", "7",
                                           "--min-preserved", "0.5"], 2),
    # implications are computed in one process, never stored: the
    # implication cache and the key-sweep fan-out are retired
    ("implies-cache-dir", ["implies", "{good}", IMPLIED,
                           "--cache-dir", "{missing}"], 2),
    ("closure-cache-dir", ["closure", "{good}", "Course", "cnum",
                           "--cache-dir", "{missing}"], 2),
    ("keys-cache-dir", ["keys", "{good}", "--cache-dir", "{missing}"], 2),
    ("keys-jobs-two", ["keys", "{good}", "--jobs", "2"], 2),
    ("serve-cache-dir", ["serve", "--cache-dir", "{missing}"], 2),
    # -- serve / client error paths -----------------------------------
    ("serve-bad-inflight", ["serve", "--max-inflight", "0"], 2),
    # the daemon runs one request at a time: no admission flags
    ("serve-max-pending", ["serve", "--max-pending", "1"], 2),
    ("serve-bad-port", ["serve", "--port", "99999"], 2),
    # NaN is no deadline (it compares false with everything)
    ("serve-deadline-nan", ["serve", "--deadline", "nan"], 2),
    ("client-bad-endpoint", ["client", "ping",
                             "--server", "nonsense"], 2),
    ("client-no-endpoint", ["client", "ping"], 2),
    ("client-refused", ["client", "ping",
                        "--server", "127.0.0.1:{dead_port}"], 2),
    ("implies-server-refused", ["implies", "{good}", IMPLIED,
                                "--server", "127.0.0.1:{dead_port}"],
     2),
    ("check-stream-deadline-nan", ["check", "{good}",
                                   "--stream", "{stream}",
                                   "--deadline", "nan"], 2),
    ("check-stream-plus-server", ["check", "{good}",
                                  "--stream", "{missing}",
                                  "--server", "127.0.0.1:{dead_port}"],
     2),
] + [
    # an in-memory check would ignore the stream-only flags
    (f"check-{case}-without-stream", ["check", "{good}"] + flags, 2)
    for case, flags in (
        ("relation", ["--relation", "Nope"]),
        ("max-rows", ["--max-rows", "3"]),
        ("max-elements", ["--max-elements", "1"]),
        ("deadline", ["--deadline", "0"]),
        ("incremental", ["--incremental"]),
        ("cache-dir", ["--cache-dir", "{missing}"]),
    )
]


@pytest.mark.parametrize(("case", "template", "expected"), TABLE,
                         ids=[row[0] for row in TABLE])
def test_exit_code(case, template, expected, good, broken, weaker,
                   no_instance, missing, stream, dead_port, bad_nonempty,
                   capsys):
    values = {"good": good, "broken": broken, "weaker": weaker,
              "no_instance": no_instance, "missing": missing,
              "stream": stream, "dead_port": str(dead_port),
              **bad_nonempty}
    argv = [arg.format(**values) for arg in template]
    assert run(argv) == expected, argv


# -- check --stream types its input as the in-memory check does --------

MISSING = object()
#: (case id, value of the int field ``time``, or MISSING to drop it)
ILL_TYPED = [("time-string", "1"), ("time-bool", True),
             ("time-float", 1.0), ("time-missing", MISSING)]
#: (mode id, extra ``check --stream`` arguments)
STREAM_MODES = [("plain", []),
                ("incremental", ["--incremental", "--cache-dir",
                                 "{cache}"])]


@pytest.mark.parametrize(("mode", "extra"), STREAM_MODES,
                         ids=[row[0] for row in STREAM_MODES])
@pytest.mark.parametrize(("case", "value"), ILL_TYPED,
                         ids=[row[0] for row in ILL_TYPED])
def test_stream_rejects_ill_typed_element(case, value, mode, extra,
                                          tmp_path, capsys):
    """An element the in-memory ``check`` refuses (exit 2) is refused by
    every ``check --stream`` path too, with its line number — never
    accepted, and never reported as a spurious violation."""
    import json

    rows = [{"cnum": "a", "time": 1,
             "students": [{"sid": 1, "age": 20, "grade": "A"}],
             "books": [{"isbn": 1, "title": "X"}]},
            {"cnum": "a", "time": 1,
             "students": [{"sid": 2, "age": 21, "grade": "B"}],
             "books": [{"isbn": 2, "title": "Y"}]}]
    if value is MISSING:
        del rows[1]["time"]
    else:
        rows[1]["time"] = value
    bundle = tmp_path / "bundle.json"
    bundle.write_text(dump_bundle(
        workloads.course_schema(), workloads.course_sigma(),
        workloads.course_instance().with_relation("Course", rows)))
    assert run(["check", str(bundle)]) == 2
    stream = tmp_path / "course.jsonl"
    stream.write_text("".join(json.dumps(row) + "\n" for row in rows))
    capsys.readouterr()
    argv = ["check", str(bundle), "--stream", str(stream)] + [
        arg.format(cache=tmp_path / "cache") for arg in extra]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2" in captured.err


# -- one line model: lines end at \n bytes, decoded as strict UTF-8 ---

def _course_lines():
    """Three JSONL elements; the third repeats the first's ``cnum``
    with another ``time``."""
    import json

    rows = [{"cnum": "a", "time": 1,
             "students": [{"sid": 1, "age": 20, "grade": "A"}],
             "books": [{"isbn": 1, "title": "X"}]},
            {"cnum": "b", "time": 2,
             "students": [{"sid": 2, "age": 21, "grade": "B"}],
             "books": [{"isbn": 2, "title": "Y"}]},
            {"cnum": "a", "time": 3,
             "students": [{"sid": 3, "age": 22, "grade": "C"}],
             "books": [{"isbn": 3, "title": "Z"}]}]
    return [json.dumps(row).encode("utf-8") for row in rows]


def _stream_outcome(tmp_path, data: bytes, extra, capsys):
    bundle = tmp_path / "bundle.json"
    bundle.write_text(dump_bundle(workloads.course_schema(),
                                  workloads.course_sigma()))
    stream = tmp_path / "course.jsonl"
    stream.write_bytes(data)
    cache = tmp_path / "cache"
    capsys.readouterr()
    code = run(["check", str(bundle), "--stream", str(stream),
                "--cache-dir", str(cache)]
               + [arg.format(cache=cache) for arg in extra])
    captured = capsys.readouterr()
    spill_root = cache / "tmp"
    assert not spill_root.exists() or list(spill_root.iterdir()) == []
    return code, captured.out, captured.err


@pytest.mark.parametrize(("mode", "extra"), STREAM_MODES,
                         ids=[row[0] for row in STREAM_MODES])
def test_stream_bare_cr_is_inside_one_line(mode, extra, tmp_path, capsys):
    """``A\\n``, ``B\\rC\\n``, ``A'\\n``: a bare ``\\r`` does not end a
    line, so line 2 holds two JSON values and is malformed — on every
    path, which all see the same three lines (the incremental
    watermark scan included), never a "satisfies" that skipped
    elements."""
    a, b, c = _course_lines()
    code, out, err = _stream_outcome(
        tmp_path, a + b"\n" + b + b"\r" + b + b"\n" + c + b"\n", extra,
        capsys)
    assert (code, out) == (2, "")
    assert "line 2" in err and "malformed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(("mode", "extra"), STREAM_MODES,
                         ids=[row[0] for row in STREAM_MODES])
def test_stream_crlf_line_ends_are_whitespace(mode, extra, tmp_path,
                                              capsys):
    """``\\r\\n`` line ends: the ``\\r`` is JSON whitespace, and every
    path prints what it prints for ``\\n`` line ends."""
    lines = _course_lines()
    (tmp_path / "lf").mkdir()
    expected = _stream_outcome(tmp_path / "lf", b"".join(
        line + b"\n" for line in lines), [], capsys)[:2]
    code, out, _ = _stream_outcome(
        tmp_path, b"".join(line + b"\r\n" for line in lines), extra,
        capsys)
    assert (code, out) == expected
    assert code == 1 and "Course:[cnum -> time]" in out


@pytest.mark.parametrize(("mode", "extra"), STREAM_MODES,
                         ids=[row[0] for row in STREAM_MODES])
def test_stream_invalid_utf8_exits_2(mode, extra, tmp_path, capsys):
    """An invalid UTF-8 byte is a typed error naming its line — exit 2,
    not a ``UnicodeDecodeError`` traceback with exit 1 — on the plain
    and incremental paths (the watermark scan included), with
    ``<cache-dir>/tmp`` left empty."""
    a, b, c = _course_lines()
    bad = b.replace(b'"Y"', b'"Y\xff"')
    code, out, err = _stream_outcome(
        tmp_path, a + b"\n" + bad + b"\n" + c + b"\n", extra, capsys)
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: ") and "line 2" in line
    assert "UTF-8" in line


# -- a full disk while spilling means the run could not finish --------

#: (case id, spill file the failing write targets, which write of that
#: file kind fails).  Every spill writes its witness elements to the
#: sidecar before the run chunk that points at them.
FULL_DISK = [("sidecar-first-write", "elems-", 1),
             ("run-later-write", "run-", 3)]


@pytest.mark.parametrize(("mode", "extra"), STREAM_MODES,
                         ids=[row[0] for row in STREAM_MODES])
@pytest.mark.parametrize(("case", "prefix", "failing"), FULL_DISK,
                         ids=[row[0] for row in FULL_DISK])
def test_stream_full_disk_exits_2(case, prefix, failing, mode, extra,
                                  tmp_path, monkeypatch, capsys):
    """ENOSPC on a spill write ends every ``check --stream`` path in one
    ``error:`` line and exit 2 — not exit 1 ("violations found") with a
    traceback — and leaves ``<cache-dir>/tmp`` empty."""
    import errno
    import os
    import pickle
    import random

    from repro.io.stream import dump_jsonl, iter_set_elements

    instance = workloads.scaled_course_instance(
        random.Random(7), courses=120, students_per_course=2,
        books_per_course=1)
    bundle = tmp_path / "bundle.json"
    bundle.write_text(dump_bundle(workloads.course_schema(),
                                  workloads.course_sigma()))
    stream = tmp_path / "course.jsonl"
    dump_jsonl(stream, iter_set_elements(instance.relation("Course")))
    cache = tmp_path / "cache"
    real_dump = pickle.dump
    writes = []

    def full_disk_dump(obj, file, *args, **kwargs):
        if os.path.basename(getattr(file, "name", "")).startswith(prefix):
            writes.append(file.name)
            if len(writes) == failing:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_dump(obj, file, *args, **kwargs)

    monkeypatch.setattr(pickle, "dump", full_disk_dump)
    argv = ["check", str(bundle), "--stream", str(stream),
            "--max-rows", "20", "--cache-dir", str(cache)] + [
        arg.format(cache=cache) for arg in extra]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert len(writes) == failing
    assert captured.out == ""
    assert "Traceback" not in captured.err
    [line] = captured.err.splitlines()
    assert line.startswith("error: cannot write spill files under ")
    assert str(cache / "tmp") in line
    assert os.listdir(cache / "tmp") == []


# -- the --server passthrough mirrors in-process codes exactly ---------


@pytest.fixture(scope="module")
def live_server():
    with BackgroundServer(ServerConfig()) as bg:
        yield f"{bg.host}:{bg.port}"


SERVER_TABLE = [
    ("check-clean", ["check", "{good}"], 0),
    ("check-violations", ["check", "{broken}"], 1),
    ("implies-implied", ["implies", "{good}", IMPLIED], 0),
    ("implies-not-implied", ["implies", "{good}", NOT_IMPLIED], 1),
    ("implies-bad-nfd", ["implies", "{good}", "not an nfd"], 2),
    ("closure", ["closure", "{good}", "Course", "cnum"], 0),
    ("keys", ["keys", "{good}", "Course"], 0),
    ("check-no-instance", ["check", "{no_instance}"], 2),
    ("implies-nonempty-int", ["implies", "{nonempty_int}", IMPLIED], 2),
    ("implies-nonempty-string", ["implies", "{nonempty_string}",
                                 IMPLIED], 2),
    ("implies-nonempty-object", ["implies", "{nonempty_object}",
                                 IMPLIED], 2),
    ("check-relation-without-stream", ["check", "{good}",
                                       "--relation", "Nope"], 2),
    ("check-max-rows-and-deadline-without-stream",
     ["check", "{good}", "--max-rows", "3", "--deadline", "0"], 2),
]


@pytest.mark.parametrize(("case", "template", "expected"), SERVER_TABLE,
                         ids=[row[0] for row in SERVER_TABLE])
def test_server_passthrough_exit_code(case, template, expected,
                                      live_server, good, broken,
                                      no_instance, bad_nonempty, capsys):
    values = {"good": good, "broken": broken,
              "no_instance": no_instance, **bad_nonempty}
    argv = [arg.format(**values) for arg in template]
    assert run(argv + ["--server", live_server]) == expected, argv
    # and the code agrees with the in-process run of the same argv
    capsys.readouterr()
    assert run(argv) == expected, argv


STDOUT_TABLE = SERVER_TABLE + [
    ("closure-two-paths",
     ["closure", "{good}", "Course", "time", "students:sid"], 0),
    ("keys-default-relation", ["keys", "{good}"], 0),
]


@pytest.mark.parametrize(("case", "template", "expected"), STDOUT_TABLE,
                         ids=[row[0] for row in STDOUT_TABLE])
def test_server_passthrough_stdout(case, template, expected, live_server,
                                   good, broken, no_instance, bad_nonempty,
                                   capsys):
    """``--server`` prints what the in-process run prints; only stderr
    may differ (daemon errors carry their code prefix)."""
    values = {"good": good, "broken": broken,
              "no_instance": no_instance, **bad_nonempty}
    argv = [arg.format(**values) for arg in template]
    capsys.readouterr()
    remote_code = run(argv + ["--server", live_server])
    remote_out = capsys.readouterr().out
    local_code = run(argv)
    local_out = capsys.readouterr().out
    assert (remote_code, remote_out) == (local_code, local_out), argv
    assert local_code == expected, argv


def test_client_verbs_against_live_server(good, capsys):
    config = ServerConfig(allow_shutdown=True)
    with BackgroundServer(config) as bg:
        endpoint = f"{bg.host}:{bg.port}"
        assert run(["client", "ping", "--server", endpoint]) == 0
        assert "pong" in capsys.readouterr().out
        assert run(["client", "stats", "--server", endpoint]) == 0
        assert '"requests"' in capsys.readouterr().out
        assert run(["client", "shutdown", "--server", endpoint]) == 0
        assert "stopping" in capsys.readouterr().out


def test_shutdown_refused_maps_to_exit_2(capsys):
    with BackgroundServer(ServerConfig()) as bg:
        endpoint = f"{bg.host}:{bg.port}"
        assert run(["client", "shutdown", "--server", endpoint]) == 2
        assert "shutdown_disabled" in capsys.readouterr().err


# -- one typing rule for a bundle's instance ----------------------------

#: (case id, how the second course row is made ill-typed)
ILL_TYPED_BUNDLE = [
    ("bool-in-int", lambda row: row.update(time=True)),
    ("missing-field", lambda row: row.pop("time")),
    ("array-in-int", lambda row: row.update(time=[1])),
]


@pytest.mark.parametrize("remote", [False, True],
                         ids=["in-process", "server"])
@pytest.mark.parametrize("command", ["check", "implies"])
@pytest.mark.parametrize(("case", "spoil"), ILL_TYPED_BUNDLE,
                         ids=[row[0] for row in ILL_TYPED_BUNDLE])
def test_ill_typed_instance_exits_2(case, spoil, command, remote,
                                    live_server, good, tmp_path, capsys):
    """Every kind of ill-typed instance row is refused the same way —
    exit 2 and one ``error:`` line — by ``check`` and ``implies``, in
    process and through the daemon (``invalid_bundle`` there)."""
    data = json.loads(Path(good).read_text())
    spoil(data["instance"]["Course"][1])
    bundle = tmp_path / "ill_typed.json"
    bundle.write_text(json.dumps(data))
    argv = ["check", str(bundle)] if command == "check" \
        else ["implies", str(bundle), IMPLIED]
    if remote:
        argv += ["--server", live_server]
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "Course[1]" in lines[0]
    if remote:
        assert lines[0].startswith("error: invalid_bundle: ")


@pytest.mark.parametrize("command", ["implies", "check"])
@pytest.mark.parametrize("name", [row[0] for row in BAD_NONEMPTY])
def test_malformed_nonempty_is_one_error_line(name, command, bad_nonempty,
                                              capsys):
    """In process, a malformed ``"nonempty"`` is refused as the daemon
    refuses it (``invalid_bundle``): exit 2 and one ``error:`` line, by
    every bundle query — never a traceback, and never read as paths."""
    argv = ["implies", bad_nonempty[name], IMPLIED] if command == "implies" \
        else ["check", bad_nonempty[name]]
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith('error: bundle "nonempty" must be "*" or a '
                           "list of path strings, got ")


#: Commands that read a bundle's schema and Σ and discard its instance.
#: They hold the instance to the schema as JSON rows too, so an
#: ill-typed one is refused the same way.
DISCARDED_INSTANCE = [
    ("explain", ["explain", "{bundle}", IMPLIED]),
    ("prove", ["prove", "{bundle}", IMPLIED]),
    ("counter", ["counter", "{bundle}", NOT_IMPLIED]),
    ("diff", ["diff", "{bundle}", "{good}"]),
]


@pytest.mark.parametrize(("command", "template"), DISCARDED_INSTANCE,
                         ids=[row[0] for row in DISCARDED_INSTANCE])
@pytest.mark.parametrize(("case", "spoil"), ILL_TYPED_BUNDLE,
                         ids=[row[0] for row in ILL_TYPED_BUNDLE])
def test_ill_typed_discarded_instance_exits_2(case, spoil, command,
                                              template, good, stream,
                                              tmp_path, capsys):
    data = json.loads(Path(good).read_text())
    spoil(data["instance"]["Course"][1])
    bundle = tmp_path / "ill_typed.json"
    bundle.write_text(json.dumps(data))
    argv = [arg.format(bundle=bundle, good=good, stream=stream)
            for arg in template]
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "Course[1]" in lines[0]


@pytest.mark.parametrize(("case", "spoil"), ILL_TYPED_BUNDLE,
                         ids=[row[0] for row in ILL_TYPED_BUNDLE])
def test_stream_check_never_reads_the_bundle_instance(case, spoil, good,
                                                      stream, tmp_path,
                                                      capsys):
    """``check --stream`` validates the streamed relation; the bundle's
    own instance, ill-typed or not, is not read at all."""
    data = json.loads(Path(good).read_text())
    spoil(data["instance"]["Course"][1])
    bundle = tmp_path / "ill_typed.json"
    bundle.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["check", str(bundle), "--stream", stream]) == 0
    assert capsys.readouterr().err == ""


#: (command, argv template, exit code) of the discarding commands on a
#: well-typed bundle; ``counter`` asks an implied candidate, so no
#: countermodel instance is built either.
DISCARDED_INSTANCE_ANSWERS = [
    ("check-stream", ["check", "{good}", "--stream", "{stream}"], 0),
    ("explain", ["explain", "{good}", IMPLIED], 0),
    ("prove", ["prove", "{good}", IMPLIED], 0),
    ("counter", ["counter", "{good}", IMPLIED], 1),
    ("diff", ["diff", "{good}", "{weaker}"], 1),
]


@pytest.mark.parametrize(("command", "template", "expected"),
                         DISCARDED_INSTANCE_ANSWERS,
                         ids=[row[0] for row in DISCARDED_INSTANCE_ANSWERS])
def test_discarded_instance_builds_no_value_tree(command, template,
                                                 expected, good, weaker,
                                                 stream, monkeypatch):
    """These commands answer with the value-model entry points made to
    raise: the instance they discard is never lifted into a tree."""
    import sys

    from repro.values.build import Instance, from_python

    def refuse(*args, **kwargs):
        raise AssertionError("a discarded instance was built")

    # every binding of from_python, wherever a module imported it
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is from_python:
                    monkeypatch.setattr(module, attr, refuse)
    monkeypatch.setattr(Instance, "__init__", refuse)
    argv = [arg.format(good=good, weaker=weaker, stream=stream)
            for arg in template]
    assert run(argv) == expected, argv


def test_server_keeps_record_field_order(live_server, tmp_path, capsys):
    """Record fields written out of alphabetical order reach the daemon
    as written, so ``--server`` prints the witness the in-process
    ``check`` prints."""
    bundle = tmp_path / "unsorted.json"
    bundle.write_text(json.dumps({
        "schema": {"R": "{<b: int, a: int>}"}, "nfds": ["R:[b -> a]"],
        "instance": {"R": [{"b": 1, "a": 1}, {"b": 1, "a": 2}]}}))
    capsys.readouterr()
    local_code = run(["check", str(bundle)])
    local_out = capsys.readouterr().out
    remote_code = run(["check", str(bundle), "--server", live_server])
    remote_out = capsys.readouterr().out
    assert local_code == 1 and "<b -> 1, a -> 1>" in local_out
    assert (remote_code, remote_out) == (local_code, local_out)


#: (case id, an ill-typed value for the int field ``a``)
ILL_TYPED_ATOM = [("str-in-int", "1"), ("bool-in-int", True),
                  ("float-in-int", 1.0)]


@pytest.mark.parametrize("command", ["analyze", "render", "normalize",
                                     "report", "repair"])
@pytest.mark.parametrize(("case", "value"), ILL_TYPED_ATOM,
                         ids=[row[0] for row in ILL_TYPED_ATOM])
def test_ill_typed_value_tree_instance_exits_2(case, value, command,
                                               tmp_path, capsys):
    """The commands that lift the instance into a value tree hold its
    rows to the schema first: an ill-typed atom exits 2 with the one
    ``error:`` line ``check`` prints, and nothing is written."""
    bundle = tmp_path / "ill_typed.json"
    text = json.dumps({"schema": {"R": "{<a: int, b: int>}"},
                       "nfds": ["R:[a -> b]"],
                       "instance": {"R": [{"a": value, "b": 1}]}})
    bundle.write_text(text)
    capsys.readouterr()
    assert run(["check", str(bundle)]) == 2
    expected = capsys.readouterr().err
    assert expected.startswith("error: R[0].a: expected int, got ")
    assert run([command, str(bundle)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", expected)
    assert bundle.read_text() == text
