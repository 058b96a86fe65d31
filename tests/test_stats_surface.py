"""The stats surface, pinned: what every counters class exports and what
the observability flags print.

The six ``*Stats`` classes are read by the CLI (``--stats``,
``--cache-stats``, ``--metrics-json``), the daemon's ``stats`` reply,
perfbench and the benchmarks.  This file records that surface so a
change to how the classes are built cannot move it:

* the ``as_dict()`` keys, in order, of each class;
* the ``--stats`` / ``--cache-stats`` stderr text of ``implies``,
  ``analyze``, ``check`` and ``check --stream`` (with and without
  ``--incremental`` and a cache directory) on the course bundle, byte
  for byte apart from
  wall-clock seconds, and the section keys of their ``--metrics-json``
  reports;
* the key sets of the daemon's ``stats`` reply.
"""

import json
import re

import pytest

from repro.cli import main
from repro.generators import workloads
from repro.inference import ClosureEngine
from repro.io import dump_bundle
from repro.io.stream import dump_jsonl, iter_set_elements
from repro.nfd import ValidatorEngine
from repro.nfd.stream_validate import StreamStats
from repro.server import BackgroundServer, ReproClient, ServerConfig
from repro.server.daemon import ServerStats
from repro.server.pool import PoolStats
from repro.store.cache_store import CacheStats

#: Wall-clock seconds as the stats text prints them.
SECONDS = re.compile(r"\d+\.\d{6}s")

ENGINE_KEYS = ["fingerprint", "queries", "hits", "hit_rate",
               "saturations", "rounds", "attempts", "successes",
               "wall_time", "usables", "candidates", "activated",
               "held", "derived", "mask_tests", "dense_seeds",
               "interned"]
VALIDATOR_KEYS = ["validations", "elements_walked", "bindings_emitted",
                  "base_sets", "trie_nodes", "plan_compilations",
                  "groups", "wall_time"]
STREAM_KEYS = ["elements_seen", "rows_emitted", "peak_resident_rows",
               "spills", "rows_spilled", "runs_written",
               "bytes_spilled", "runs_merged", "groups_merged",
               "intern_hits", "intern_misses", "witness_elements_built",
               "wall_time"]
CACHE_KEYS = ["stream_hits", "stream_misses", "stale", "errors",
              "writes"]
POOL_KEYS = ["hits", "misses", "evictions", "coalesced_builds",
             "session_builds", "validator_builds", "batches",
             "batched_queries"]
SERVER_KEYS = ["uptime_s", "connections", "connections_active",
               "requests", "by_type", "ok", "errors", "by_error",
               "sheds", "deadline_hits", "protocol_errors", "bytes_in",
               "bytes_out", "latency_mean_ms", "latency_max_ms",
               "latency_by_type"]

ENGINE_TEXT = """\
engine stats:
  saturations: 1  rounds: 4
  apply attempts: 29  successes: 3
  saturation wall time: <s>
  mask tests: 29  dense seeds: 0  interned ids: Course=9
  Course: 9 usable(s), 0/2 candidate(s) active, 3 query(ies), \
3 derived path(s)
"""

SESSION_HEAD = """\
session stats (fingerprint 67cfe15ace46):
  closure queries: 1  hits: 0  hit rate: 0.0%
"""

ANALYZE_ENGINE_TEXT = """\
engine stats:
  saturations: 10  rounds: 17
  apply attempts: 123  successes: 7
  saturation wall time: <s>
  mask tests: 130  dense seeds: 3  interned ids: Course=9
  Course: 9 usable(s), 0/2 candidate(s) active, 12 query(ies), \
7 derived path(s)
"""

VALIDATOR_TEXT = """\
validator stats (single-pass batch engine):
  validations: 1  trie nodes: 12  plan compilations: 1
  elements walked: 11  base sets: 3
  bindings emitted: 18
  validation wall time: <s>
  Course:[books:isbn -> books:title]: 2 group(s)
  Course:[cnum -> books]: 2 group(s)
  Course:[cnum -> students]: 2 group(s)
  Course:[cnum -> time]: 2 group(s)
  Course:[students:sid -> students:age]: 2 group(s)
  Course:[students:sid, time -> cnum]: 3 group(s)
  Course:students:[sid -> grade]: 3 group(s)
"""

STREAM_TEXT = """\
stream stats (out-of-core validation):
  elements seen: 2  rows emitted: 15
  peak resident rows: 13  spills: 0
  rows spilled: 0  runs written: 0  bytes spilled: 0
  runs merged: 0  groups merged: 13
  intern hits: 23  intern misses: 14
  witness elements built: 0
  stream wall time: <s>
"""

CACHE_TEXT = """\
cache stats (persistent store):
  stream: 0 hit(s)  1 miss(es)
  stale: 0  errors: 0  writes: 1
"""

#: ``name -> (extra argv, stderr text, {section: keys})``; ``BUNDLE``,
#: ``JSONL`` and ``CACHE`` stand for the fixture files.
RUNS = {
    "implies": (
        ["implies", "BUNDLE", "Course:[cnum -> time]", "--stats",
         "--cache-stats"],
        ENGINE_TEXT + SESSION_HEAD + ENGINE_TEXT,
        {"closure": ENGINE_KEYS}),
    "check-stream-cache": (
        ["check", "BUNDLE", "--stream", "JSONL", "--incremental",
         "--cache-dir", "CACHE", "--stats"],
        "incremental: cold at line 0/2, 2 element(s) folded\n"
        + STREAM_TEXT + CACHE_TEXT,
        {"cache": CACHE_KEYS, "stream": STREAM_KEYS}),
    "analyze": (
        ["analyze", "BUNDLE", "--stats", "--cache-stats"],
        ANALYZE_ENGINE_TEXT + VALIDATOR_TEXT
        + SESSION_HEAD.replace("queries: 1  hits: 0  hit rate: 0.0%",
                               "queries: 7  hits: 2  hit rate: 28.6%")
        + ANALYZE_ENGINE_TEXT,
        {"closure": ENGINE_KEYS, "validator": VALIDATOR_KEYS}),
    "check": (
        ["check", "BUNDLE", "--stats"],
        STREAM_TEXT,
        {"stream": STREAM_KEYS}),
    "check-stream": (
        ["check", "BUNDLE", "--stream", "JSONL", "--stats"],
        STREAM_TEXT,
        {"stream": STREAM_KEYS}),
}


@pytest.fixture
def files(tmp_path):
    bundle = tmp_path / "course.json"
    bundle.write_text(dump_bundle(workloads.course_schema(),
                                  workloads.course_sigma(),
                                  workloads.course_instance()))
    jsonl = tmp_path / "course.jsonl"
    dump_jsonl(jsonl, iter_set_elements(
        workloads.course_instance().relation("Course")))
    return {"BUNDLE": str(bundle), "JSONL": str(jsonl),
            "CACHE": str(tmp_path / "cache")}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stats_text_and_metrics_sections(name, files, tmp_path, capsys):
    argv, text, sections = RUNS[name]
    metrics = tmp_path / "metrics.json"
    argv = [files.get(arg, arg) for arg in argv]
    assert main(argv + ["--metrics-json", str(metrics)]) == 0
    assert SECONDS.sub("<s>", capsys.readouterr().err) == text
    payload = json.loads(metrics.read_text())
    assert {section: sorted(keys) for section, keys
            in payload["sections"].items()} == \
        {section: sorted(keys) for section, keys in sections.items()}


def test_as_dict_keys_of_every_stats_class():
    schema, sigma = workloads.course_schema(), workloads.course_sigma()
    snapshots = {
        "EngineStats": (ClosureEngine(schema, sigma).stats, ENGINE_KEYS),
        "ValidatorStats": (ValidatorEngine(schema, sigma).stats,
                           VALIDATOR_KEYS),
        "StreamStats": (StreamStats(), STREAM_KEYS),
        "CacheStats": (CacheStats(), CACHE_KEYS),
        "PoolStats": (PoolStats(), POOL_KEYS),
        "ServerStats": (ServerStats(), SERVER_KEYS),
    }
    for name, (stats, keys) in snapshots.items():
        assert type(stats).__name__ == name
        assert list(stats.as_dict()) == keys, name


def test_daemon_stats_reply_keys():
    bundle = json.loads(dump_bundle(workloads.course_schema(),
                                    workloads.course_sigma(),
                                    workloads.course_instance()))
    with BackgroundServer(ServerConfig()) as bg:
        with ReproClient(bg.host, bg.port, timeout=10.0) as client:
            assert client.implies(bundle, "Course:[cnum -> time]")
            client.check(bundle)
            reply = client.stats()
    assert sorted(reply) == ["pool", "server"]
    assert list(reply["server"]) == SERVER_KEYS
    assert list(reply["pool"]) == POOL_KEYS + ["entries", "max_entries",
                                               "engines"]
    assert list(reply["pool"]["engines"]) == [
        "rule_attempts", "saturations", "closure_queries", "memo_hits",
        "plan_compilations"]
    assert set(reply["server"]["by_type"]) == {"hello", "implies",
                                               "check"}
    latency = reply["server"]["latency_by_type"]
    assert set(latency) == {"hello", "implies", "check"}
    for row in latency.values():
        assert list(row) == ["p50_ms", "p99_ms", "count"]
