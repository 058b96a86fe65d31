"""Fault injection against the daemon: every failure is typed & bounded.

Each test drives a live server — :class:`BackgroundServer` in-process,
or a real ``repro serve`` subprocess where the fault is process death —
through one hostile scenario: malformed JSON, oversized frames, unknown
request types, handshake violations, clients vanishing mid-request, the
server dying mid-stream, and deadline expiry.  The contract under test
is uniform:

* the daemon answers with a *typed* error (a code from
  ``protocol.ERROR_CODES``) or closes the connection cleanly — it never
  hangs and never stack-traces to stderr;
* the warm pool survives every fault: after each scenario the same
  server still answers a correct query.

Every socket operation here carries an explicit timeout, so a
regression that *would* hang fails fast instead.
"""

import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path as FsPath

import pytest

from repro.generators import workloads
from repro.inference import ImplicationSession
from repro.io.json_io import dump_bundle
from repro.server import (BackgroundServer, ClientError, ReproClient,
                          ServerConfig, ServerError)
from repro.server.protocol import PROTOCOL_VERSION, encode

#: Per-operation socket timeout: generous enough for a loaded CI
#: machine, small enough that a hang fails the test quickly.
TIMEOUT = 10.0
REPO_ROOT = FsPath(__file__).resolve().parents[1]


def _bundle() -> dict:
    return json.loads(dump_bundle(workloads.course_schema(),
                                  workloads.course_sigma(),
                                  workloads.course_instance()))


def _assert_alive(host: str, port: int) -> None:
    """The pool survived: the server still answers a correct query."""
    bundle = _bundle()
    sigma = workloads.course_sigma()
    session = ImplicationSession(workloads.course_schema(), sigma)
    with ReproClient(host, port, timeout=TIMEOUT) as probe:
        assert session.implies(sigma[0]) is True
        assert probe.implies(bundle, str(sigma[0])) is True


@pytest.fixture
def bg():
    config = ServerConfig(allow_debug=True)
    with BackgroundServer(config) as server:
        yield server


# ----------------------------------------------------------- frame faults


def test_malformed_json_is_typed_and_recoverable(bg):
    with ReproClient(bg.host, bg.port, timeout=TIMEOUT) as client:
        client.send_raw(b"this is not json\n")
        response = client.read_response()
        assert response["ok"] is False
        assert response["error"] == "bad_json"
        # the stream resyncs at the newline: the connection still works
        assert client.ping()["pong"] is True
    _assert_alive(bg.host, bg.port)


def test_non_object_frame_is_bad_request(bg):
    with ReproClient(bg.host, bg.port, timeout=TIMEOUT) as client:
        client.send_raw(b"[1, 2, 3]\n")
        response = client.read_response()
        assert response["error"] == "bad_request"
        client.send_raw(b'{"id": 1}\n')  # object, but no "type"
        assert client.read_response()["error"] == "bad_request"
        client.send_raw(b'{"id": {"no": 1}, "type": "ping"}\n')
        assert client.read_response()["error"] == "bad_request"
        assert client.ping()["pong"] is True
    _assert_alive(bg.host, bg.port)


def test_undecodable_utf8_is_bad_json(bg):
    with ReproClient(bg.host, bg.port, timeout=TIMEOUT) as client:
        client.send_raw(b"\xff\xfe{}\n")
        assert client.read_response()["error"] == "bad_json"
        assert client.ping()["pong"] is True


def test_oversized_frame_answers_then_closes():
    config = ServerConfig(allow_debug=True, max_frame_bytes=4096)
    with BackgroundServer(config) as bg:
        with ReproClient(bg.host, bg.port, timeout=TIMEOUT) as client:
            client.send_raw(b'{"pad": "' + b"x" * 8192 + b'"}\n')
            response = client.read_response()
            assert response["error"] == "frame_too_large"
            # past an oversized frame the stream position is gone: the
            # daemon must close, not guess where the next frame starts
            with pytest.raises(ClientError):
                client.ping()
        _assert_alive(bg.host, bg.port)


# ------------------------------------------------------- protocol faults


def test_unknown_request_type(bg):
    with ReproClient(bg.host, bg.port, timeout=TIMEOUT) as client:
        with pytest.raises(ServerError) as excinfo:
            client.request("frobnicate")
        assert excinfo.value.code == "unknown_type"
        assert client.ping()["pong"] is True
    _assert_alive(bg.host, bg.port)


def test_handshake_version_mismatch_closes(bg):
    with ReproClient(bg.host, bg.port, timeout=TIMEOUT,
                     handshake=False) as client:
        with pytest.raises(ServerError) as excinfo:
            client.request("hello", version=PROTOCOL_VERSION + 99)
        assert excinfo.value.code == "version_mismatch"
        assert excinfo.value.response["server_version"] \
            == PROTOCOL_VERSION
        with pytest.raises(ClientError):
            client.read_response()  # connection was closed
    _assert_alive(bg.host, bg.port)


def test_query_before_handshake_is_refused(bg):
    with ReproClient(bg.host, bg.port, timeout=TIMEOUT,
                     handshake=False) as client:
        with pytest.raises(ServerError) as excinfo:
            client.ping()
        assert excinfo.value.code == "handshake_required"
        with pytest.raises(ClientError):
            client.read_response()  # connection was closed
    _assert_alive(bg.host, bg.port)


def test_invalid_bundle_and_query_params(bg):
    with ReproClient(bg.host, bg.port, timeout=TIMEOUT) as client:
        with pytest.raises(ServerError) as excinfo:
            client.implies({"nfds": []}, "R:[a -> b]")  # no schema
        assert excinfo.value.code == "invalid_bundle"
        with pytest.raises(ServerError) as excinfo:
            client.implies(_bundle(), "this is not an nfd")
        assert excinfo.value.code == "invalid_query"
        with pytest.raises(ServerError) as excinfo:
            client.request("check", bundle=_bundle(), deadline=-1)
        assert excinfo.value.code == "invalid_query"
        # the connection survives every typed refusal
        assert client.ping()["pong"] is True
    _assert_alive(bg.host, bg.port)


@pytest.mark.parametrize(("value", "drop"), [(True, False), (None, True),
                                             ([1], False)],
                         ids=["bool-in-int", "missing-field",
                              "array-in-int"])
def test_ill_typed_instance_is_invalid_bundle(bg, value, drop):
    """One typing rule: every kind of ill-typed instance row is
    ``invalid_bundle``, for ``check`` and ``implies`` alike, and names
    the row."""
    bundle = _bundle()
    row = bundle["instance"]["Course"][0]
    if drop:
        del row["time"]
    else:
        row["time"] = value
    with ReproClient(bg.host, bg.port, timeout=TIMEOUT) as client:
        for request in (lambda: client.check(bundle),
                        lambda: client.implies(
                            bundle, str(workloads.course_sigma()[0]))):
            with pytest.raises(ServerError) as excinfo:
                request()
            assert excinfo.value.code == "invalid_bundle"
            assert "Course[0]" in str(excinfo.value)
        assert client.ping()["pong"] is True
    _assert_alive(bg.host, bg.port)


def test_nan_deadline_is_invalid_query(bg):
    """``NaN`` (which ``json.loads`` accepts) is not a deadline: it must
    not run the check unbounded."""
    with ReproClient(bg.host, bg.port, timeout=TIMEOUT) as client:
        with pytest.raises(ServerError) as excinfo:
            client.request("check", bundle=_bundle(),
                           deadline=float("nan"))
        assert excinfo.value.code == "invalid_query"
        assert client.ping()["pong"] is True
    _assert_alive(bg.host, bg.port)


def test_malformed_closure_queries_are_invalid_query(bg):
    bundle = _bundle()
    with ReproClient(bg.host, bg.port, timeout=TIMEOUT) as client:
        for queries in ([[42, []]], [[None, []]], [["Course", [7]]]):
            with pytest.raises(ServerError) as excinfo:
                client.request("closure", bundle=bundle, queries=queries)
            assert excinfo.value.code == "invalid_query", queries
        assert client.ping()["pong"] is True
    _assert_alive(bg.host, bg.port)


def test_shutdown_without_flag_is_refused(bg):
    with ReproClient(bg.host, bg.port, timeout=TIMEOUT) as client:
        with pytest.raises(ServerError) as excinfo:
            client.shutdown()
        assert excinfo.value.code == "shutdown_disabled"
        assert client.ping()["pong"] is True
    _assert_alive(bg.host, bg.port)


# ------------------------------------------------------ connection faults


def test_client_disconnect_mid_request(bg):
    # a request line abandoned halfway, then the socket slammed shut
    client = ReproClient(bg.host, bg.port, timeout=TIMEOUT)
    client.send_raw(b'{"id": 7, "type": "implies", "bundle": {')
    client.close()
    # an in-flight sleeper whose client vanishes before the response
    client = ReproClient(bg.host, bg.port, timeout=TIMEOUT)
    client.send_raw(encode({"id": 8, "type": "ping", "sleep_ms": 50}))
    client.close()
    deadline = time.monotonic() + TIMEOUT
    while bg.server.stats.connections_active > 0:
        assert time.monotonic() < deadline, \
            "server did not reap dead connections"
        time.sleep(0.01)
    _assert_alive(bg.host, bg.port)


def test_deadline_expiry_is_typed(bg):
    with ReproClient(bg.host, bg.port, timeout=TIMEOUT) as client:
        with pytest.raises(ServerError) as excinfo:
            client.check(_bundle(), deadline=0)
        assert excinfo.value.code == "deadline_exceeded"
        assert "verdict unknown" in str(excinfo.value)
        # an expired budget refused one request, not the connection
        assert client.check(_bundle())["satisfied"] is True
    assert bg.server.stats.deadline_hits >= 1
    _assert_alive(bg.host, bg.port)


def test_connection_deadline_bounds_queries():
    config = ServerConfig(allow_debug=True, connection_deadline=0.0)
    with BackgroundServer(config) as bg:
        with ReproClient(bg.host, bg.port, timeout=TIMEOUT) as client:
            with pytest.raises(ServerError) as excinfo:
                client.implies(_bundle(),
                               str(workloads.course_sigma()[0]))
            assert excinfo.value.code == "deadline_exceeded"
            # only query types are budgeted (``_dispatch`` computes the
            # deadline on the query path alone): the exhausted
            # connection still answers control requests
            assert client.ping()["pong"] is True
        assert bg.server.stats.deadline_hits >= 1


# -------------------------------------------------------- process faults


def _spawn_daemon(*extra_args: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=str(REPO_ROOT))
    ready: dict = {}

    def wait_ready():
        match = re.search(r"listening on ([^:]+):(\d+)",
                          proc.stdout.readline())
        if match:
            ready["host"], ready["port"] = \
                match.group(1), int(match.group(2))

    waiter = threading.Thread(target=wait_ready, daemon=True)
    waiter.start()
    waiter.join(timeout=30.0)
    if "port" not in ready:
        proc.kill()
        proc.wait(timeout=10.0)
        pytest.fail("daemon did not become ready in time")
    return proc, ready["host"], ready["port"]


def test_server_killed_mid_stream_raises_not_hangs():
    proc, host, port = _spawn_daemon("--allow-debug")
    try:
        client = ReproClient(host, port, timeout=TIMEOUT)
        client.send_raw(encode({"id": 1, "type": "ping",
                                "sleep_ms": 30_000}))
        time.sleep(0.2)  # let the sleeper reach the server
        proc.kill()
        # the pending read surfaces as a typed client error, bounded
        # by the socket timeout -- never a hang
        with pytest.raises(ClientError):
            client.read_response()
        client.close()
    finally:
        if proc.poll() is None:  # pragma: no cover - kill raced
            proc.kill()
        proc.wait(timeout=10.0)
        proc.stdout.close()
        proc.stderr.close()


def test_faulted_daemon_exits_clean_with_empty_stderr():
    """A subprocess daemon absorbs a fault barrage, then terminates:
    exit status 0 and not one byte of stderr (no stack traces)."""
    proc, host, port = _spawn_daemon()
    try:
        with ReproClient(host, port, timeout=TIMEOUT) as client:
            client.send_raw(b"}{ garbage \n")
            assert client.read_response()["error"] == "bad_json"
            with pytest.raises(ServerError):
                client.request("no_such_verb")
            with pytest.raises(ServerError):
                client.implies({"schema": 42}, "R:[a -> b]")
            assert client.ping()["pong"] is True
        # a half-written frame, then the client vanishes
        half = ReproClient(host, port, timeout=TIMEOUT)
        half.send_raw(b'{"id": 3, "type": ')
        half.close()
        _assert_alive(host, port)
    finally:
        proc.terminate()
        out, err = proc.communicate(timeout=10.0)
    assert proc.returncode == 0, (proc.returncode, err)
    assert err == "", err
