"""The daemon's production claims, as acceptance gates.

``repro serve`` exists so a fleet of short-lived clients shares one set
of warm engines instead of each process paying import, saturation, and
plan compilation on startup.  Two gates pin that down:

* ``test_warm_daemon_gate`` — against a warm daemon, a 64-query
  implication stream moves **zero** saturation rule applications and
  **zero** plan compilations in the pool's engine totals, and every
  answer matches the in-process session.
* ``test_daemon_beats_fresh_process_gate`` — the warm daemon's
  per-query latency is at least :data:`MIN_SPEEDUP` times lower than a
  fresh-process ``repro implies`` CLI invocation answering the same
  query (the daemon amortizes what the CLI re-pays every time).

The ``server.*_per_sec`` gauges are the perf trajectory: nightly CI
dumps them into ``BENCH_server.json`` and ``--compare`` fails the run
when a rate falls more than 20% below the committed baseline.
"""

import gc
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time

from repro.generators import random_sigma, workloads
from repro.inference import ClosureEngine
from repro.io import dump_bundle
from repro.nfd.parser import parse_nfd
from repro.server import BackgroundServer, ReproClient, ServerConfig

#: The warm daemon must answer at least this many times faster per
#: query than a fresh-process CLI invocation.
MIN_SPEEDUP = 3.0

#: Queries in the gated implication stream.
STREAM_QUERIES = 64

#: Fresh-process CLI invocations to average (each pays full startup).
CLI_SAMPLES = 3


def _workload():
    """The Course schema under a Σ big enough that saturation matters,
    plus a 64-candidate implication stream over its attribute pairs."""
    schema = workloads.course_schema()
    sigma = tuple(random_sigma(random.Random(11), schema, count=12))
    labels = sorted(schema.element_type("Course").labels)
    candidates = []
    for lhs, rhs in itertools.cycle(
            itertools.permutations(labels, 2)):
        candidates.append(f"Course:[{lhs} -> {rhs}]")
        if len(candidates) == STREAM_QUERIES:
            break
    bundle = json.loads(dump_bundle(schema, sigma))
    return schema, sigma, bundle, candidates


def _engine_totals(client: ReproClient) -> dict:
    return client.stats()["pool"]["engines"]


def test_warm_daemon_gate(gate_metrics):
    """Gate: a fully warm 64-query window moves none of the cold-work
    counters, and answers stay identical to the in-process session."""
    schema, sigma, bundle, candidates = _workload()
    session = ClosureEngine(schema, sigma)
    expected = [session.implies(parse_nfd(text))
                for text in candidates]

    with BackgroundServer(ServerConfig()) as bg:
        with ReproClient(bg.host, bg.port) as client:
            # cold pass: the pool builds and saturates once
            cold = [client.implies(bundle, text)
                    for text in candidates]
            before = _engine_totals(client)
            gc.collect()
            started = time.perf_counter()
            warm = [client.implies(bundle, text)
                    for text in candidates]
            warm_time = time.perf_counter() - started
            after = _engine_totals(client)

    assert cold == expected and warm == expected
    attempts = after["rule_attempts"] - before["rule_attempts"]
    compilations = after["plan_compilations"] \
        - before["plan_compilations"]
    assert attempts == 0, (
        f"a warm daemon applied {attempts} saturation rules across a "
        f"{STREAM_QUERIES}-query window; the pool must answer from "
        f"its memo")
    assert compilations == 0, (
        f"a warm daemon compiled {compilations} plans across a "
        f"{STREAM_QUERIES}-query window")

    per_query_ms = warm_time * 1000.0 / STREAM_QUERIES
    print(f"\nwarm daemon: {STREAM_QUERIES} implication queries in "
          f"{warm_time * 1000:.1f}ms ({per_query_ms:.3f}ms/query, "
          f"0 rule applications, 0 plan compilations)")
    gate_metrics.gauge("server.warm_rule_applications").set(attempts)
    gate_metrics.gauge("server.warm_plan_compilations").set(
        compilations)
    gate_metrics.gauge("server.warm_queries_per_sec").set(
        round(STREAM_QUERIES / warm_time, 1))


def test_daemon_beats_fresh_process_gate(gate_metrics):
    """Gate: per-query latency through the warm daemon is at least
    MIN_SPEEDUP times lower than a fresh-process CLI invocation."""
    schema, sigma, bundle, candidates = _workload()

    with tempfile.TemporaryDirectory(prefix="repro-bench-srv-") as tmp:
        bundle_path = os.path.join(tmp, "bundle.json")
        with open(bundle_path, "w") as handle:
            handle.write(dump_bundle(schema, sigma))
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]]
                     if env.get("PYTHONPATH") else []))

        # fresh-process lane: each invocation pays interpreter start,
        # imports, parsing, and a cold saturation
        argv = [sys.executable, "-m", "repro", "implies", bundle_path,
                candidates[0]]
        cli_times = []
        for _ in range(CLI_SAMPLES):
            started = time.perf_counter()
            proc = subprocess.run(argv, env=env, capture_output=True)
            cli_times.append(time.perf_counter() - started)
            assert proc.returncode in (0, 1), proc.stderr
        cli_per_query = min(cli_times)

        # daemon lane: one warm connection answers the whole stream
        with BackgroundServer(ServerConfig()) as bg:
            with ReproClient(bg.host, bg.port) as client:
                for text in candidates:  # warm the pool
                    client.implies(bundle, text)
                gc.collect()
                started = time.perf_counter()
                for text in candidates:
                    client.implies(bundle, text)
                warm_time = time.perf_counter() - started
        daemon_per_query = warm_time / STREAM_QUERIES

    speedup = cli_per_query / daemon_per_query
    print(f"\nper-query latency: CLI {cli_per_query * 1000:.1f}ms "
          f"(best of {CLI_SAMPLES} fresh processes) vs daemon "
          f"{daemon_per_query * 1000:.3f}ms -> {speedup:.1f}x")
    assert speedup >= MIN_SPEEDUP, (
        f"warm daemon is only {speedup:.1f}x faster per query than a "
        f"fresh CLI process, below the {MIN_SPEEDUP}x bar")
    gate_metrics.gauge("server.speedup_vs_cli").set(round(speedup, 1))
    gate_metrics.gauge("server.cli_queries_per_sec").set(
        round(1.0 / cli_per_query, 2))
