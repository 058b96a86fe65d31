"""CLI tests for the persistent cache: what opens it, the ``cache``
subcommand, ``--incremental`` streaming, and corruption fallback.

The cache holds stream checkpoints and the spill root, nothing else:
an in-memory ``check`` and every implication query open no database
(``REPRO_CACHE_DIR`` or not), ``repro cache stats`` counts only the
``stream_*`` tables, and a corrupted database changes neither stdout
nor the exit code.
"""

import json
import os

import pytest

from repro.cli import main
from repro.generators import workloads
from repro.io import dump_bundle
from repro.store import DB_FILENAME


@pytest.fixture
def course_bundle(tmp_path):
    path = tmp_path / "course.json"
    path.write_text(dump_bundle(workloads.course_schema(),
                                workloads.course_sigma(),
                                workloads.course_instance()))
    return str(path)


@pytest.fixture
def course_jsonl(tmp_path):
    from repro.io.stream import dump_jsonl, iter_set_elements
    path = tmp_path / "course.jsonl"
    dump_jsonl(path, iter_set_elements(
        workloads.course_instance().relation("Course")))
    return str(path)


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def _metrics(path):
    with open(path) as handle:
        return json.load(handle)["sections"]


def _append_clash(jsonl):
    from repro.io.stream import iter_set_elements
    from repro.values import Atom, to_python
    first = next(iter_set_elements(
        workloads.course_instance().relation("Course")))
    with open(jsonl, "a") as handle:
        handle.write(json.dumps(
            to_python(first.replace("time", Atom(99)))) + "\n")


class TestWarmStart:
    def test_second_check_compiles_no_plans(self, course_bundle,
                                            cache_dir, tmp_path,
                                            monkeypatch, capsys):
        """An in-memory ``check`` runs the stream engine and keeps
        nothing in the cache: two runs under ``REPRO_CACHE_DIR`` print
        the same, report the same ``stream`` section and no ``cache``
        section, and open no database (``--cache-dir`` without
        ``--stream`` is refused, exit 2)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        assert main(["check", course_bundle, "--cache-dir",
                     cache_dir]) == 2
        assert "--cache-dir" in capsys.readouterr().err
        metrics = str(tmp_path / "m.json")
        runs = []
        for _ in range(2):
            assert main(["check", course_bundle,
                         "--metrics-json", metrics]) == 0
            sections = _metrics(metrics)
            assert set(sections) == {"stream"}
            assert sections["stream"]["elements_seen"] == 2
            assert sections["stream"]["spills"] == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        assert not os.path.exists(os.path.join(cache_dir, DB_FILENAME))

    def test_cache_section_prints_under_stats(self, course_bundle,
                                              course_jsonl, cache_dir,
                                              monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        assert main(["check", course_bundle, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "cache stats" not in err
        assert not os.path.exists(os.path.join(cache_dir, DB_FILENAME))
        assert main(["check", course_bundle, "--stream", course_jsonl,
                     "--incremental", "--cache-dir", cache_dir,
                     "--stats"]) == 0
        err = capsys.readouterr().err
        assert "cache stats (persistent store)" in err

    def test_env_var_configures_the_cache(self, course_bundle,
                                          course_jsonl, cache_dir,
                                          monkeypatch, capsys):
        """``REPRO_CACHE_DIR`` is read by ``check --stream`` alone:
        in-memory checks and implication queries open no database."""
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        assert main(["check", course_bundle]) == 0
        for query in (["implies", course_bundle, "Course:[cnum -> time]"],
                      ["closure", course_bundle, "Course", "cnum"],
                      ["keys", course_bundle]):
            assert main(query) == 0
        assert not os.path.exists(os.path.join(cache_dir, DB_FILENAME))
        assert main(["check", course_bundle, "--stream", course_jsonl,
                     "--incremental"]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(cache_dir, DB_FILENAME))


class TestCacheSubcommand:
    def test_requires_a_directory(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "no cache directory" in capsys.readouterr().err

    def test_stats_clear_vacuum_cycle(self, course_bundle, course_jsonl,
                                      cache_dir, capsys):
        assert main(["check", course_bundle, "--stream", course_jsonl,
                     "--incremental", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "stream_sources: 1" in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cache cleared" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "stream_sources: 0" in capsys.readouterr().out
        assert main(["cache", "vacuum", "--cache-dir", cache_dir]) == 0
        assert "cache vacuumed" in capsys.readouterr().out

    def test_env_var_names_the_directory(self, cache_dir, monkeypatch,
                                         capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        assert main(["cache", "stats"]) == 0
        assert "available: True" in capsys.readouterr().out

    def test_stats_lists_only_stream_rows(self, course_bundle,
                                          course_jsonl, cache_dir,
                                          capsys):
        """Beside path, size and versions, ``cache stats`` counts the
        checkpoint tables and nothing else."""
        assert main(["check", course_bundle, "--stream", course_jsonl,
                     "--incremental", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        stats = dict(line.split(": ", 1)
                     for line in capsys.readouterr().out.splitlines())
        assert list(stats) == [
            "path", "available", "schema_version", "codec_version",
            "size_bytes", "stream_sources", "stream_groups",
            "stream_elements"]
        assert stats["schema_version"] == "6"
        assert int(stats["stream_sources"]) == 1
        assert int(stats["stream_groups"]) > 0


class TestIncrementalCLI:
    def test_requires_a_cache_dir(self, course_bundle, course_jsonl,
                                  monkeypatch, capsys):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["check", course_bundle, "--stream", course_jsonl,
                     "--incremental"]) == 2
        assert "--incremental requires a cache directory" in \
            capsys.readouterr().err

    def test_resume_matches_cold_stdout_and_exit(self, course_bundle,
                                                 course_jsonl,
                                                 cache_dir, capsys):
        args = ["check", course_bundle, "--stream", course_jsonl,
                "--incremental", "--cache-dir", cache_dir]
        assert main(args) == 0
        first = capsys.readouterr()
        assert "incremental: cold" in first.err
        _append_clash(course_jsonl)
        code = main(args)
        resumed = capsys.readouterr()
        assert "incremental: resumed" in resumed.err
        assert "1 element(s) folded" in resumed.err
        # reference: a cold streamed check without any cache
        cold_code = main(["check", course_bundle, "--stream",
                          course_jsonl])
        cold = capsys.readouterr()
        assert code == cold_code == 1
        assert resumed.out == cold.out

    def test_streamed_check_warms_plan_cache(self, course_bundle,
                                             course_jsonl, cache_dir,
                                             tmp_path, capsys):
        """A streamed check reads nothing from the store: the second
        run over a warm cache prints what the first and an uncached run
        do."""
        _append_clash(course_jsonl)
        metrics = str(tmp_path / "m.json")
        args = ["check", course_bundle, "--stream", course_jsonl,
                "--cache-dir", cache_dir, "--metrics-json", metrics]
        assert main(args) == 1
        cold_out = capsys.readouterr().out
        assert main(args) == 1
        warm_out = capsys.readouterr().out
        assert main(args[:4]) == 1
        assert capsys.readouterr().out == warm_out == cold_out
        assert _metrics(metrics)["cache"]["stream_hits"] == 0


class TestCorruptionFallback:
    def test_corrupt_db_keeps_stdout_and_exit_identical(
            self, course_bundle, course_jsonl, cache_dir, capsys,
            recwarn):
        _append_clash(course_jsonl)
        query = ["check", course_bundle, "--stream", course_jsonl]
        assert main(query) == 1
        reference = capsys.readouterr().out
        os.makedirs(cache_dir)
        with open(os.path.join(cache_dir, DB_FILENAME), "wb") as fh:
            fh.write(b"\x00garbage" * 512)
        assert main(query + ["--incremental", "--cache-dir",
                             cache_dir]) == 1
        assert capsys.readouterr().out == reference
        assert any("continuing without the persistent cache"
                   in str(w.message) for w in recwarn.list)

    def test_corrupt_db_keeps_implies_identical(self, course_bundle,
                                                cache_dir, monkeypatch,
                                                capsys, recwarn):
        """``implies`` never opens the cache, so a corrupt database
        under ``REPRO_CACHE_DIR`` is not even noticed."""
        query = ["implies", course_bundle, "Course:[cnum -> time]"]
        assert main(query) == 0
        reference = capsys.readouterr().out
        os.makedirs(cache_dir)
        with open(os.path.join(cache_dir, DB_FILENAME), "wb") as fh:
            fh.write(b"not sqlite\n" * 64)
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        assert main(query) == 0
        assert capsys.readouterr().out == reference
        assert not [w for w in recwarn.list
                    if "persistent cache" in str(w.message)]
