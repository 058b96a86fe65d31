"""A cold ``repro`` process pays only for the command it runs.

Every check here starts a fresh interpreter, because what matters is
which modules a new process imports:

* ``implies`` without a cache directory loads no streaming engine, no
  store (nor ``sqlite3``), no daemon (nor ``asyncio``), and none of the
  design, chase, view or generator layers;
* every package's exports are lazy (:mod:`repro._lazy`) yet complete:
  each name in ``__all__`` resolves and ``from package import *``
  binds them all, and the two exports that share a name with their
  submodule stay the exported functions whichever import ran first;
* ``main`` builds only the named command's subparser, and help and
  usage errors read exactly as the full parser prints them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.generators import workloads
from repro.io import dump_bundle

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules (or module prefixes, ending in ``*``) a cold ``implies``
#: must not import.
NOT_FOR_IMPLIES = ("repro.nfd.stream_validate", "repro.store*",
                   "repro.server*", "repro.design*", "repro.chase*",
                   "repro.views*", "repro.generators*", "sqlite3",
                   "asyncio*")

#: How many ``repro`` modules a cold ``implies`` may load, without and
#: with an instance in the bundle (reading rows loads the value layer).
IMPLIES_MODULES = {False: 27, True: 32}

PACKAGES = ("repro", "repro.analysis", "repro.chase", "repro.design",
            "repro.generators", "repro.incremental", "repro.inference",
            "repro.io", "repro.nfd", "repro.obs", "repro.paths",
            "repro.server", "repro.store", "repro.types", "repro.values",
            "repro.views")


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run *code* in a fresh interpreter with ``repro`` importable, no
    cache directory configured and a fixed terminal width."""
    env = {key: value for key, value in os.environ.items()
           if key != "REPRO_CACHE_DIR"}
    env["PYTHONPATH"] = SRC
    env["COLUMNS"] = "80"
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          timeout=60)


def _loaded_by(argv: list[str]) -> tuple[int, set[str]]:
    """``(exit code, sys.modules)`` after ``python -m repro ARGV``."""
    code = (
        "import json, runpy, sys\n"
        "sys.argv = ['repro'] + sys.argv[1:]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "print(json.dumps([status, sorted(sys.modules)]))\n")
    run = _python(code, *argv)
    status, modules = json.loads(run.stdout.splitlines()[-1])
    return status, set(modules)


def _forbidden(modules: set[str]) -> list[str]:
    hits = []
    for pattern in NOT_FOR_IMPLIES:
        if pattern.endswith("*"):
            stem = pattern[:-1]
            hits += [m for m in modules
                     if m == stem or m.startswith(stem + ".")]
        elif pattern in modules:
            hits.append(pattern)
    return sorted(hits)


@pytest.mark.parametrize("with_instance", [False, True],
                         ids=["sigma-only", "with-instance"])
def test_implies_loads_only_its_layers(with_instance, tmp_path):
    bundle = tmp_path / "course.json"
    instance = workloads.course_instance() if with_instance else None
    bundle.write_text(dump_bundle(workloads.course_schema(),
                                  workloads.course_sigma(), instance))
    for candidate, expected in (("Course:[cnum -> time]", 0),
                                ("Course:[time -> cnum]", 1)):
        status, modules = _loaded_by(["implies", str(bundle), candidate])
        assert status == expected
        assert _forbidden(modules) == []
        # the closure layer did run
        assert "repro.inference.session" in modules
        loaded = sorted(m for m in modules
                        if m == "repro" or m.startswith("repro."))
        assert len(loaded) <= IMPLIES_MODULES[with_instance], loaded


def test_importing_the_package_imports_nothing_else():
    run = _python("import sys, repro\n"
                  "print(sorted(m for m in sys.modules "
                  "if m.startswith('repro')))")
    assert run.stdout.strip() == "['repro', 'repro._lazy']"


def test_every_export_resolves():
    code = (
        "import importlib, sys\n"
        "for name in sys.argv[1:]:\n"
        "    package = importlib.import_module(name)\n"
        "    assert package.__all__, name\n"
        "    for export in package.__all__:\n"
        "        getattr(package, export)\n"
        "    namespace = {}\n"
        "    exec(f'from {name} import *', namespace)\n"
        "    missing = set(package.__all__) - set(namespace)\n"
        "    assert not missing, (name, missing)\n"
        "    assert set(package.__all__) <= set(dir(package)), name\n"
        "print('ok')\n")
    run = _python(code, *PACKAGES)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"


@pytest.mark.parametrize(("package", "name"), [
    ("repro.nfd", "stream_validate"),
    ("repro.inference", "closure"),
])
@pytest.mark.parametrize("submodule_first", [True, False],
                         ids=["submodule-first", "export-first"])
def test_export_wins_over_its_submodule(package, name, submodule_first):
    """A submodule import binds the package attribute to the module;
    the package keeps its exported function instead."""
    imports = [f"import {package}.{name}",
               f"from {package} import {name} as first"]
    if not submodule_first:
        imports.reverse()
    code = "\n".join([
        "import importlib, types",
        *imports,
        f"from {package} import {name} as export",
        f"package = importlib.import_module({package!r})",
        "assert callable(export), export",
        "assert not isinstance(export, types.ModuleType), export",
        f"assert package.{name} is export is first",
        f"module = importlib.import_module('{package}.{name}')",
        "assert isinstance(module, types.ModuleType), module",
        "print('ok')",
    ])
    run = _python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"


#: Argument lists that end inside argparse: help, and usage errors
#: raised by the top-level parser and by a command's subparser.
PARSER_ONLY = [
    [], ["-h"], ["--help"], ["bogus"],
    *([command, "--help"] for command in (
        "check", "implies", "closure", "explain", "prove", "counter",
        "render", "keys", "diff", "analyze", "normalize", "report",
        "repair", "cache", "serve", "client")),
    ["check"], ["implies", "b.json"], ["implies", "b.json", "n", "--bogus"],
    ["check", "b.json", "--jobs", "abc"], ["check", "b.json", "--shards"],
    ["cache", "nope"], ["keys", "a", "b", "c"], ["client", "stats"],
    ["normalize", "--sweep"], ["serve", "--port", "x"],
]

_CAPTURE = (
    "import contextlib, io, json, sys\n"
    "from repro import cli\n"
    "results = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    out, err = io.StringIO(), io.StringIO()\n"
    "    with contextlib.redirect_stdout(out), "
    "contextlib.redirect_stderr(err):\n"
    "        try:\n"
    "            {call}\n"
    "            status = None\n"
    "        except SystemExit as exc:\n"
    "            status = exc.code\n"
    "    results.append([out.getvalue(), err.getvalue(), status])\n"
    "print(json.dumps(results))\n")


def _captured(call: str) -> list:
    run = _python(_CAPTURE.replace("{call}", call), json.dumps(PARSER_ONLY))
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_help_and_usage_errors_read_as_the_full_parser_prints_them():
    """``main`` against ``build_parser().parse_args``, which every run
    went through before ``main`` learned to build one subparser."""
    reference = _captured("cli.build_parser().parse_args(argv)")
    actual = _captured("cli.main(argv)")
    for argv, expected, got in zip(PARSER_ONLY, reference, actual):
        assert got == expected, argv
        assert expected[2] in (0, 2), argv
    by_argv = dict(zip(map(tuple, PARSER_ONLY), actual))
    assert by_argv[()][1].startswith("usage: repro [-h]\n")
    assert by_argv[("check", "--help")][0].startswith(
        "usage: repro check [-h] [--stats] [--stream FILE]")
    assert "invalid choice: 'bogus'" in by_argv[("bogus",)][1] \
        or "invalid choice: bogus" in by_argv[("bogus",)][1]
