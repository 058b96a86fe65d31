"""The one query core (:mod:`repro.service`) behind the CLI and daemon."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.generators import workloads
from repro.io import dump_bundle, load_bundle_rows
from repro.service import QueryError, check, parse_query


@pytest.mark.parametrize("kind, params", [
    ("implies", {}),
    ("implies", {"nfd": 7}),
    ("closure", {}),
    ("closure", {"base": "Course", "paths": "cnum"}),
    ("closure", {"queries": "Course"}),
    ("keys", {"relation": 3}),
    ("check", {}),
])
def test_malformed_params_raise_query_error(kind, params):
    with pytest.raises(QueryError):
        parse_query(kind, params, workloads.course_schema())


def test_local_queries_never_load_the_daemon(tmp_path):
    """In-process ``implies``/``closure``/``keys``/``check`` import
    neither the server package nor asyncio (a fresh-process CLI run
    pays no daemon import)."""
    bundle = tmp_path / "course.json"
    bundle.write_text(dump_bundle(workloads.course_schema(),
                                  workloads.course_sigma(),
                                  workloads.course_instance()))
    script = (
        "import json, sys\n"
        "from repro.cli import main\n"
        "bundle = sys.argv[1]\n"
        "codes = [main(argv) for argv in (\n"
        "    ['implies', bundle, 'Course:[cnum -> time]'],\n"
        "    ['closure', bundle, 'Course', 'cnum'],\n"
        "    ['keys', bundle], ['check', bundle])]\n"
        "loaded = sorted(name for name in sys.modules\n"
        "                if name == 'asyncio'\n"
        "                or name.startswith('repro.server'))\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded}))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]]
                      if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script, str(bundle)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    verdict = json.loads(proc.stdout.strip().splitlines()[-1])
    assert verdict == {"codes": [0, 0, 0, 0], "loaded": []}


def test_check_of_an_nfd_on_no_relation_is_typed():
    """An NFD naming a relation the schema lacks is a typed error, not a
    lookup failure on the instance rows."""
    schema, sigma, rows = load_bundle_rows(json.dumps({
        "schema": {"R": "{<a: int, b: int>}"}, "nfds": ["S:[a -> b]"],
        "instance": {"R": [{"a": 1, "b": 2}]}}))
    with pytest.raises(ReproError, match="S:\\[a -> b\\]"):
        check(schema, sigma, rows)
