"""Unit tests for the daemon's components: protocol, pool, lifecycle.

The differential and fault suites drive the server end-to-end (and
partly out-of-process); these tests pin the pieces in isolation —
frame codec edge cases, bundle parsing, LRU eviction with monotone
retired counters, one session build per Σ, one closure batch per
request and the per-entry query bound, query dispatch that never
suspends, the foreground ``run_server`` loop, and the ``repro serve``
command itself.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.generators import workloads
from repro.io import dump_bundle
from repro.server import (BackgroundServer, EnginePool, ReproClient,
                          ReproServer, ServerConfig, run_server)
from repro.server.daemon import LATENCY_WINDOW, ServerStats
from repro.server.protocol import (PROTOCOL_VERSION, ProtocolError,
                                   decode_line, encode,
                                   error_response, ok_response,
                                   parse_bundle_payload)

TIMEOUT = 10.0


def _bundle_dict(**extra) -> dict:
    payload = json.loads(dump_bundle(workloads.course_schema(),
                                     workloads.course_sigma(),
                                     workloads.course_instance()))
    payload.update(extra)
    return payload


# ---------------------------------------------------------------- protocol


class TestProtocol:
    def test_encode_is_one_compact_line(self):
        data = encode({"b": 1, "a": [2, 3]})
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        # keys keep insertion order: record fields travel as written
        assert data == b'{"b":1,"a":[2,3]}\n'

    def test_decode_roundtrip(self):
        request = {"id": 7, "type": "ping"}
        assert decode_line(encode(request)) == request

    @pytest.mark.parametrize(("line", "code"), [
        (b"\xff\xfe\n", "bad_json"),
        (b"{not json}\n", "bad_json"),
        (b"[1]\n", "bad_request"),
        (b'{"id": 1.5, "type": "ping"}\n', "bad_request"),
        (b'{"id": 1}\n', "bad_request"),
        (b'{"id": 1, "type": 9}\n', "bad_request"),
    ], ids=["utf8", "syntax", "non-object", "float-id", "no-type",
            "non-string-type"])
    def test_decode_failures_are_typed(self, line, code):
        with pytest.raises(ProtocolError) as excinfo:
            decode_line(line)
        assert excinfo.value.code == code

    def test_response_shapes(self):
        ok = ok_response(3, "ping", {"pong": True})
        assert ok["ok"] is True and ok["id"] == 3
        err = error_response(None, "deadline_exceeded", "late",
                             elements_seen=9)
        assert err["ok"] is False and err["elements_seen"] == 9

    def test_parse_bundle_variants(self):
        schema, sigma, instance, spec = \
            parse_bundle_payload(_bundle_dict())
        assert instance is not None and spec is None
        assert len(sigma) == len(workloads.course_sigma())
        _, _, _, spec = parse_bundle_payload(_bundle_dict(nonempty="*"))
        assert spec.declares_everything
        _, _, _, spec = parse_bundle_payload(
            _bundle_dict(nonempty=["Course:students"]))
        assert not spec.declares_everything

    @pytest.mark.parametrize("payload", [
        "not an object",
        {"nfds": []},
        {"schema": {"R": "not a type"}},
        _bundle_dict(nonempty=7),
        _bundle_dict(nfds=["R:[nonsense"]),
    ], ids=["non-object", "no-schema", "bad-schema", "bad-nonempty",
            "bad-nfd"])
    def test_parse_bundle_failures(self, payload):
        with pytest.raises(ProtocolError) as excinfo:
            parse_bundle_payload(payload)
        assert excinfo.value.code == "invalid_bundle"


# -------------------------------------------------------------------- pool


def _parsed_universe(count=2):
    schema, sigma, instance, spec = \
        parse_bundle_payload(_bundle_dict())
    return schema, sigma[:count], spec


class TestEnginePool:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            EnginePool(max_entries=0)

    def test_hit_miss_and_order_sensitivity(self):
        pool = EnginePool(max_entries=4)
        schema, sigma, spec = _parsed_universe()
        first = pool.entry_for(schema, sigma, spec)
        again = pool.entry_for(schema, sigma, spec)
        assert first is again
        assert pool.stats.hits == 1 and pool.stats.misses == 1
        # same logical Sigma, different member order: same fingerprint,
        # different pool entry (plan/witness order depends on it)
        reordered = pool.entry_for(schema, list(reversed(sigma)), spec)
        assert reordered is not first
        assert reordered.fingerprint == first.fingerprint
        assert reordered.key != first.key

    def test_eviction_keeps_totals_monotone(self):
        pool = EnginePool(max_entries=1)
        schema, sigma, spec = _parsed_universe()
        entry = pool.entry_for(schema, sigma, spec)
        session = pool.session_for(entry)
        session.closure_simple("Course", frozenset())
        before = pool.engine_totals()
        assert before["closure_queries"] == 1
        # a second fingerprint evicts the first (capacity 1)...
        pool.entry_for(schema, sigma[:1], spec)
        assert pool.stats.evictions == 1 and len(pool) == 1
        # ...but its counters survive in the retired totals
        after = pool.engine_totals()
        assert after["closure_queries"] == 1
        assert after["rule_attempts"] >= before["rule_attempts"]
        metrics = pool.as_metrics()
        assert metrics["entries"] == 1 and metrics["evictions"] == 1

    def test_concurrent_builds_coalesce(self):
        """Three requests for one Σ build one session: the first builds
        it inline and the others find it, so nothing coalesces."""
        server = ReproServer(ServerConfig())
        nfd = str(workloads.course_sigma()[0])
        for index in range(3):
            response, _, _ = asyncio.run(server._dispatch(
                {"id": index, "type": "implies",
                 "bundle": _bundle_dict(), "nfd": nfd}, True, None))
            assert response["ok"] is True
        sessions = {id(entry.session)
                    for entry in server.pool._entries.values()}
        assert len(server.pool) == 1 and len(sessions) == 1
        assert server.pool.stats.session_builds == 1
        assert server.pool.stats.coalesced_builds == 0

    def test_batcher_coalesces_queued_queries(self):
        pool = EnginePool(max_entries=4)
        schema, sigma, spec = _parsed_universe()
        entry = pool.entry_for(schema, sigma, spec)
        from repro.paths import Path
        base = Path(("Course",))
        answers = [pool.closure_batch(entry, [(base, frozenset())])
                   for _ in range(5)]
        assert len({frozenset(a) for [a] in answers}) == 1
        # one batch per request, one session for all of them
        assert pool.stats.batches == 5
        assert pool.stats.batched_queries == 5
        assert pool.stats.session_builds == 1

    def test_keys_request_leaves_engine_bounded(self):
        """One ``keys`` request on the 11+1-attribute key bundle leaves
        25 queries in its engine (twelve drop-one probes, then only
        supersets of the five attributes every key holds), well under
        the 1,024 the pool keeps warm, so the session stays."""
        from .test_offline_outputs import _wide_key_bundle

        with BackgroundServer(ServerConfig()) as bg:
            with ReproClient(bg.host, bg.port, timeout=TIMEOUT) as client:
                result = client.keys(_wide_key_bundle())
            assert result["relation"] == "R" and result["keys"]
            held = [sum(entry.session.engine.stats.queries.values())
                    for entry in bg.server.pool._entries.values()
                    if entry.session is not None]
            assert held == [25], held


# ------------------------------------------------------------ server bits


class TestServerLifecycle:
    @pytest.mark.parametrize("kwargs", [
        {"max_sessions": 0}, {"max_sessions": -1}, {"port": -1},
        {"connection_deadline": -1.0}, {"port": 70000},
        {"connection_deadline": float("nan")},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ReproError):
            ReproServer(ServerConfig(**kwargs))

    def test_background_server_startup_error_propagates(self):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            taken = holder.getsockname()[1]
            bg = BackgroundServer(ServerConfig(port=taken))
            with pytest.raises(ReproError, match="failed to start"):
                bg.start()

    def test_run_server_foreground_with_remote_shutdown(self):
        """The foreground loop: ready callback, serve, clean report."""
        config = ServerConfig(allow_shutdown=True)
        ready = threading.Event()
        endpoint = {}

        def announce(server):
            endpoint["host"], endpoint["port"] = \
                server.host, server.port
            ready.set()

        result = {}

        def serve():
            result["report"] = run_server(config, ready=announce)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(TIMEOUT), "run_server never became ready"
        with ReproClient(endpoint["host"], endpoint["port"],
                         timeout=TIMEOUT) as client:
            assert client.ping()["pong"] is True
            assert client.shutdown()["stopping"] is True
        thread.join(TIMEOUT)
        assert not thread.is_alive()
        metrics = result["report"].as_dict()
        assert metrics["sections"]["server"]["requests"] >= 3

    def test_stats_latency_by_type(self):
        """The ``stats`` reply gives each answered request type its
        p50/p99 and the number of latencies they are taken over."""
        bundle = _bundle_dict()
        nfd = str(workloads.course_sigma()[0])
        with BackgroundServer(ServerConfig()) as bg:
            with ReproClient(bg.host, bg.port,
                             timeout=TIMEOUT) as client:
                for _ in range(3):
                    assert client.implies(bundle, nfd) is True
                for _ in range(2):
                    client.check(bundle)
                latency = client.stats()["server"]["latency_by_type"]
        assert set(latency) == {"hello", "implies", "check"}
        assert latency["implies"]["count"] == 3
        assert latency["check"]["count"] == 2
        for row in latency.values():
            assert 0 <= row["p50_ms"] <= row["p99_ms"]

    def test_latency_window_is_bounded(self):
        stats = ServerStats()
        for ms in range(1, LATENCY_WINDOW + 101):
            stats.observe("check", True, float(ms))
        stats.observe("no-such-type", False, 1.0, "unknown_type")
        latency = stats.latency_by_type()
        assert set(latency) == {"check"}
        # the oldest 100 fell out of the window: it holds 101..1124
        assert latency["check"] == {"p50_ms": 612.0, "p99_ms": 1114.0,
                                    "count": LATENCY_WINDOW}
        assert stats.as_dict()["latency_max_ms"] == LATENCY_WINDOW + 100

    def test_unknown_types_share_one_by_type_key(self):
        """Made-up request types count under one ``unknown`` key, so a
        client cannot grow the daemon's stats without bound."""
        from repro.server import ServerError
        from repro.server.daemon import ADMIN_TYPES, QUERY_TYPES

        with BackgroundServer(ServerConfig()) as bg:
            with ReproClient(bg.host, bg.port,
                             timeout=TIMEOUT) as client:
                for n in range(500):
                    with pytest.raises(ServerError):
                        client.request(f"made-up-{n}")
                server = client.stats()["server"]
        by_type = server["by_type"]
        assert len(by_type) <= len(ADMIN_TYPES + QUERY_TYPES) + 1
        assert by_type["unknown"] == 500
        assert sum(by_type.values()) == server["requests"]

    def test_debug_sleep_requires_flag(self):
        """Without --allow-debug a sleeping ping is an ordinary ping."""
        with BackgroundServer(ServerConfig()) as bg:
            with ReproClient(bg.host, bg.port,
                             timeout=TIMEOUT) as client:
                started = time.monotonic()
                assert client.ping(sleep_ms=5000)["pong"] is True
                assert time.monotonic() - started < 2.0

    def test_strategies_shared_per_entry(self):
        """A ``strategy`` field from an older client is ignored like
        any unknown field: one entry, one session, the same answer."""
        bundle = _bundle_dict()
        nfd = "Course:[students:sid, time -> books]"
        with BackgroundServer(ServerConfig()) as bg:
            with ReproClient(bg.host, bg.port,
                             timeout=TIMEOUT) as client:
                assert "strategies" not in client.request(
                    "hello", version=PROTOCOL_VERSION)
                for strategy in (None, "worklist", "quantum"):
                    answer = client.request("implies", bundle=bundle,
                                            nfd=nfd, strategy=strategy)
                    assert answer["implied"] is True, strategy
                pool = client.stats()["pool"]
        assert pool["entries"] == 1
        assert pool["session_builds"] == 1


# ------------------------------------------------------------ one thread

#: One request of each query type on the course bundle.
QUERIES = {
    "implies": {"nfd": "Course:[students:sid, time -> books]"},
    "closure": {"base": "Course", "paths": ["cnum"]},
    "keys": {"relation": "Course"},
    "check": {},
}


@pytest.mark.parametrize("request_type", list(QUERIES))
def test_query_dispatch_never_suspends(request_type):
    """A query runs to completion at its first step, on a cold pool
    entry (the session is built inline) and on a warm one: with no
    suspension point on the path, requests never interleave."""
    server = ReproServer(ServerConfig())  # never started: no loop
    for index in range(2):
        request = {"id": index, "type": request_type,
                   "bundle": _bundle_dict(), **QUERIES[request_type]}
        coroutine = server._dispatch(request, True, None)
        with pytest.raises(StopIteration) as stopped:
            coroutine.send(None)
        response, close, greeted = stopped.value.value
        assert response["ok"] is True, response
        assert close is False and greeted is True
    assert len(server.pool) == 1
    assert server.pool.stats.misses == 1 and server.pool.stats.hits == 1


# --------------------------------------------------------------- the CLI


def test_cli_serve_end_to_end(tmp_path, capsys):
    """``repro serve`` in-process: readiness line, remote shutdown,
    exit 0, metrics written."""
    metrics_path = tmp_path / "serve-metrics.json"
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]

    result = {}

    def serve():
        result["code"] = main([
            "serve", "--port", str(port), "--allow-shutdown",
            "--metrics-json", str(metrics_path)])

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    client = None
    deadline = time.monotonic() + TIMEOUT
    while client is None:
        assert time.monotonic() < deadline, "daemon never listened"
        try:
            client = ReproClient("127.0.0.1", port, timeout=TIMEOUT)
        except ReproError:
            time.sleep(0.05)
    with client:
        assert client.server_info["protocol"] == PROTOCOL_VERSION
        assert client.ping()["pong"] is True
    with ReproClient("127.0.0.1", port, timeout=TIMEOUT) as client:
        client.shutdown()
    thread.join(TIMEOUT)
    assert not thread.is_alive() and result["code"] == 0
    out = capsys.readouterr().out
    assert f"repro daemon listening on 127.0.0.1:{port}" in out
    assert "repro daemon stopped" in out
    report = json.loads(metrics_path.read_text())
    assert report["sections"]["server"]["requests"] >= 2
