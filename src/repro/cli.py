"""Command-line interface: ``python -m repro <command> ...``.

All commands operate on JSON *bundle* files as produced by
:func:`repro.io.dump_bundle` — a schema, an NFD set, and optionally an
instance::

    {"schema": {"Course": "{<cnum: string, ...>}"},
     "nfds": ["Course:[cnum -> time]", ...],
     "instance": {"Course": [...]}}

Commands:

========  ==========================================================
check     validate the bundle's instance; print violation witnesses
implies   decide whether the bundle's NFDs imply a candidate
closure   print the closure of a path set at a base path
explain   print the justification tree for an implied candidate
prove     compile a machine-checked derivation of an implication
counter   build the Appendix-A countermodel for a non-implied NFD
render    pretty-print the instance as nested tables
keys      list the minimal keys of a relation
diff      semantic diff of two constraint sets
analyze   keys / singletons / redundancy / minimal-cover report
normalize synthesize a nested normal-form design (or sweep many)
report    render the whole bundle as a Markdown document
repair    chase the instance into consistency, write a new bundle
cache     persistent cache maintenance (stats / clear / vacuum)
serve     run the constraint-checking daemon (see repro.server)
client    administer a running daemon (ping / stats / shutdown)
========  ==========================================================

Commands that reason under the Section 3.2 empty-set rules accept
``--nonempty PATH`` declarations (repeatable); a bundle may persist its
own declarations under ``"nonempty"``, which explicit flags override.
The ``counter`` command is the exception: the Appendix-A construction
lives in the Section 3.1 setting, so it rejects a restrictive spec
instead of silently ignoring it.

Every closure computation runs on the engine's one saturation, the
interned bitset kernel; ``explain``/``prove`` rebuild the derivation by
replaying the naive reference saturation (see
:mod:`repro.inference.closure`).

``repro normalize BUNDLE`` runs the nested normalization pipeline
(see :mod:`repro.design.synthesize`): minimal cover, 3NF-style nest
candidates, scoring by enforceability and residual BCNF redundancy,
and a dependency-preservation verdict for the winner — exit 0 when the
design preserves Sigma and the round-trip validation is clean.
``repro normalize --sweep N --jobs J`` normalizes N generated flat
schemas instead (byte-identical stdout for every J) and gates on
``--min-preserved RATE``.

Commands that build a closure engine accept ``--stats``, which prints
the engine's saturation counters (see
:class:`repro.inference.EngineStats`) to stderr after the normal
output, so scripted stdout consumers are unaffected.  ``check --stats``
does the same with the stream engine's counters
(:class:`repro.nfd.StreamStats`); exit codes are unchanged either
way.

Query commands additionally accept ``--cache-stats``, printing the
closure engine's query counters (closure queries answered, and those
it already held; :meth:`repro.inference.EngineStats.query_text`) to
stderr.  ``normalize --sweep`` accepts ``--jobs N`` (``N >= 1``) to fan
the sweep out across *N* worker processes — stdout is byte-identical
to the serial run (deterministic result ordering), only wall-clock
changes.  Every implication query runs in one process on one engine.

Every ``check`` runs one engine, the stream engine of
:mod:`repro.nfd.stream_validate`: in memory it walks each constrained
relation's rows as the bundle holds them, in the set's iteration order
(:func:`repro.service.check`).  ``check``, ``implies``, ``closure``,
``keys``, ``explain``, ``prove``, ``counter`` and ``diff`` read the
bundle's instance as JSON rows held to the schema
(:func:`repro.io.json_io.read_bundle`) and build no value tree of
it, so an ill-typed instance exits 2 with one ``error:`` line under
each of them, in process and through ``--server`` alike.
``check --stream`` reads only the bundle's schema and Σ.

Each command imports only the layers it runs, inside its handler, and
:func:`main` builds only the named command's subparser (``repro``,
``repro -h`` and an unknown command get the full parser), so a cold
process pays for one command, not sixteen.

``check --stream FILE`` validates a JSONL dump of one relation
out-of-core in one stream engine (see
:mod:`repro.nfd.stream_validate`): elements are consumed one at a time,
group tables spill to disk under ``--max-rows``, and ``--deadline`` /
``--max-elements`` bound the run cooperatively — a budget-exhausted run
prints what it found, notes the partial verdict on stderr, and exits 2
when no violation was seen.

The observability commands — ``check``, ``implies``, ``closure``,
``keys``, ``analyze``, ``normalize`` — additionally accept ``--trace FILE`` (write a
JSON Lines span trace of the run; see :class:`repro.obs.Tracer`) and
``--metrics-json FILE`` (write one consolidated
:class:`repro.obs.RunReport`).  Each command builds exactly one report;
the ``--stats`` / ``--cache-stats`` stderr text and the metrics JSON
render from the same frozen snapshots, so their numbers always
reconcile.  Neither flag changes stdout or the exit code.

``check`` accepts ``--cache-dir DIR`` (default: the ``REPRO_CACHE_DIR``
environment variable) naming a directory that holds two things and
nothing else (see :mod:`repro.store`): the stream checkpoints of
``check --stream FILE --incremental``, in a SQLite database, so a
re-validation of an appended JSONL file folds only the new lines, and
the spill root ``tmp/`` of ``check --stream``.  An in-memory ``check``
keeps nothing there and opens no database.  Implications are computed,
never stored.  The cache is purely an accelerator: a missing, corrupt,
or version-mismatched database degrades to the cold computation with
identical stdout and exit codes (a corrupt one warns on stderr).
``repro cache stats|clear|vacuum`` maintains the database.

``repro serve`` runs the long-lived constraint-checking daemon (see
:mod:`repro.server`): a line-delimited JSON protocol over TCP, a warm
pool of closure engines shared by every client, one thread that
runs each request to completion, and cooperative deadlines.
``check``, ``implies``, ``closure``, and ``keys`` accept ``--server
HOST:PORT`` to route the query through a running daemon instead of
computing in-process — stdout and exit codes are identical either way,
because both paths parse, answer and render through
:mod:`repro.service` (the local observability and ``--cache-dir``
flags are ignored with a note: query the daemon with ``repro client
stats``).  ``repro client ping|stats|shutdown`` administer a daemon.

Every command returns a conventional exit status (0 success / holds,
1 violation / does not hold, 2 usage error), so the CLI composes with
shell scripting.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path as FilePath
from typing import TYPE_CHECKING

from .errors import ReproError

if TYPE_CHECKING:
    from .inference.empty_sets import NonEmptySpec
    from .obs import RunReport, Tracer

__all__ = ["main", "build_parser"]


def _read(path_text: str) -> str:
    try:
        return FilePath(path_text).read_text()
    except OSError as exc:
        raise ReproError(f"cannot read bundle {path_text!r}: {exc}") \
            from exc


def _load(path_text: str, *, values: bool = False):
    """``(schema, sigma, instance, spec)`` of a bundle file, from one
    read and one parse (:func:`repro.io.json_io.read_bundle`): the
    instance as type-checked JSON rows, or with *values* as a value
    tree; *spec* is the bundle's own, for :func:`_spec_from_args`."""
    from .io.json_io import read_bundle

    return read_bundle(_read(path_text), values=values)


def _spec_from_args(args, persisted=None) -> NonEmptySpec | None:
    """The NON-NULL spec: --nonempty flags win over the bundle's own.

    Bundles may persist their declarations (see
    :func:`repro.io.dump_bundle`), read as *persisted* by
    :func:`repro.io.json_io.bundle_parts`, the daemon's reader too;
    explicit flags override them — as ``--server`` replaces them on
    the wire — so a what-if query never requires editing the file.
    """
    declared = getattr(args, "nonempty", None)
    if declared:
        from .inference.empty_sets import NonEmptySpec
        from .paths.path import parse_path

        return NonEmptySpec({parse_path(text) for text in declared})
    return persisted


def _tracer_from_args(args) -> Tracer | None:
    """A :class:`Tracer` when ``--trace`` was given, else ``None``.

    ``None`` keeps every instrumented call site on its exact pre-obs
    code path (a single ``is None`` check); no tracer object exists
    unless the user asked for one.
    """
    if getattr(args, "trace", None):
        from .obs.tracer import Tracer

        return Tracer()
    return None


def _obs_finish(args, report: RunReport, tracer: Tracer | None) -> None:
    """Emit every observability output of a command from one report.

    The ``--stats`` / ``--cache-stats`` stderr blocks and the
    ``--metrics-json`` file all render from the *same* frozen
    :class:`RunReport` snapshots, so their numbers reconcile by
    construction; ``--trace`` dumps the tracer's span log as JSONL.
    """
    if getattr(args, "stats", False):
        for name in ("closure", "validator", "stream", "cache"):
            if name in report:
                print(report.section_text(name), file=sys.stderr)
    if getattr(args, "cache_stats", False) and "closure" in report:
        print(report.snapshot("closure").query_text(), file=sys.stderr)
    path = getattr(args, "metrics_json", None)
    if path:
        report.write_json(path)
    if tracer is not None:
        tracer.write_jsonl(args.trace)


def _emit_stats(args, engine) -> None:
    """Print an engine's counters to stderr when ``--stats`` was
    given."""
    if getattr(args, "stats", False):
        print(engine.stats.to_text(), file=sys.stderr)


def _obs_note(args) -> None:
    """The daemon computes under its own configuration: note the local
    observability and ``--cache-dir`` flags it ignores."""
    ignored = [flag for flag, name in (
        ("--stats", "stats"), ("--cache-stats", "cache_stats"),
        ("--trace", "trace"), ("--metrics-json", "metrics_json"),
        ("--cache-dir", "cache_dir"),
    ) if getattr(args, name, None)]
    if ignored:
        print(f"note: {', '.join(ignored)} ignored with --server "
              "(configure the daemon with `repro serve`, query it with "
              "`repro client stats`)", file=sys.stderr)


def _query_params(args) -> dict:
    """A query command's parameters, exactly as the wire carries them."""
    if args.command == "implies":
        return {"nfd": args.nfd}
    if args.command == "closure":
        return {"base": args.base, "paths": list(args.paths)}
    if args.command == "keys":
        return {"relation": args.relation}
    return {}


#: ``check``'s stream-only options: dest -> flag.
_STREAM_ONLY = {"relation": "--relation", "max_rows": "--max-rows",
                "max_elements": "--max-elements", "deadline": "--deadline",
                "incremental": "--incremental", "cache_dir": "--cache-dir"}


def _cmd_query(args) -> int:
    """``check``, ``implies``, ``closure`` and ``keys``: one result dict,
    from the daemon under ``--server`` or computed in-process, rendered
    by :func:`repro.service.render` either way.  A ``check`` without
    ``--stream`` that would ignore a stream-only flag exits 2 naming
    it."""
    if args.command == "check":
        if args.stream:
            if args.server:
                print("error: --stream runs locally; drop --server",
                      file=sys.stderr)
                return 2
            return _cmd_check_stream(args)
        # unset: None, or False for the --incremental switch
        ignored = [flag for name, flag in _STREAM_ONLY.items()
                   if getattr(args, name) is not None
                   and getattr(args, name) is not False]
        if ignored:
            print("error: without --stream, check would ignore "
                  f"{', '.join(ignored)}", file=sys.stderr)
            return 2
    from .service import render

    params = _query_params(args)
    if args.server:
        from .io.json_io import bundle_spec, parse_bundle_json
        from .server import ReproClient, parse_endpoint

        _obs_note(args)
        bundle = parse_bundle_json(_read(args.bundle))
        if getattr(args, "nonempty", None):
            # the flags override the persisted declarations, as they
            # do in-process (see _spec_from_args); a malformed one is
            # still refused first, as the in-process read refuses it
            bundle_spec(bundle)
            bundle["nonempty"] = list(args.nonempty)
        with ReproClient(*parse_endpoint(args.server)) as client:
            result = client.request(args.command, bundle=bundle, **params)
    else:
        result = _answer_locally(args, params)
    text, status = render(args.command, params, result)
    sys.stdout.write(text)
    return status


def _answer_locally(args, params: dict) -> dict:
    """The in-process result dict of a query command.

    Runs :func:`repro.service.check`, or builds the engine, and
    handles every local-only flag: ``--stats``, ``--cache-stats``,
    ``--trace`` and ``--metrics-json``.
    """
    from .obs.report import RunReport
    from .service import answer, check, parse_query

    kind = args.command
    schema, sigma, rows, spec = _load(args.bundle)
    spec = _spec_from_args(args, spec)
    query = parse_query(kind, params, schema, rows)
    tracer = _tracer_from_args(args)
    report = RunReport(command=kind)
    if kind == "check":
        outcome = check(schema, sigma, rows, tracer=tracer)
        report.add("stream", outcome.stats)
    else:
        from .inference.closure import ClosureEngine

        engine = ClosureEngine(schema, sigma, spec, tracer=tracer)
        if kind == "keys":
            from .analysis.keys import minimal_keys

            outcome = minimal_keys(schema, sigma, query.relation,
                                   engine=engine)
        else:
            outcome = [engine.closure(base, lhs)
                       for base, lhs in query.closures]
        report.add("closure", engine.stats)
    _obs_finish(args, report, tracer)
    return answer(query, outcome)


def _cmd_check_stream(args) -> int:
    """``check --stream FILE``: out-of-core validation of a JSONL dump.

    The bundle supplies the schema and Σ; the instance (if any) is
    ignored in favour of the streamed relation: it is neither built nor
    type-checked.  Exit codes match the
    in-memory path — 0 satisfied, 1 violations, 2 errors — with one
    addition: a run cut short by its resource budget that found no
    violation exits 2 (the verdict is unknown, not "satisfied").
    """
    from .io.json_io import load_bundle_sigma
    from .io.stream import iter_jsonl_elements
    from .nfd.stream_validate import ResourceBudget, stream_validate
    from .obs.report import RunReport
    from .service import Query, answer, render

    schema, sigma = load_bundle_sigma(_read(args.bundle))
    relation = args.relation
    if relation is None:
        constrained = sorted({nfd.relation for nfd in sigma})
        if len(constrained) == 1:
            relation = constrained[0]
        elif len(schema.relation_names) == 1:
            relation = schema.relation_names[0]
        else:
            print("error: --relation is required when the bundle "
                  "constrains several relations", file=sys.stderr)
            return 2
    schema.relation_type(relation)  # an unknown relation is an error
    streamed = [nfd for nfd in sigma if nfd.relation == relation]
    skipped = len(sigma) - len(streamed)
    if skipped:
        print(f"note: {skipped} constraint(s) on other relations "
              f"not checked against the stream", file=sys.stderr)
    budget = None
    if args.max_rows is not None or args.deadline is not None \
            or args.max_elements is not None:
        budget = ResourceBudget(max_resident_rows=args.max_rows,
                                deadline=args.deadline,
                                max_elements=args.max_elements)
    tracer = _tracer_from_args(args)
    # the cache directory is resolved here, as
    # repro.store.resolve_cache_dir does, so that a run without one
    # never imports the store (or sqlite3); an unusable directory
    # yields a store that warns once and misses everywhere
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    store = spill_root = None
    if cache_dir:
        from .store import default_spill_root, open_store
        store = open_store(cache_dir)
        spill_root = default_spill_root(cache_dir)
    if getattr(args, "incremental", False):
        if store is None:
            print("error: --incremental requires a cache directory "
                  "(--cache-dir or REPRO_CACHE_DIR)", file=sys.stderr)
            return 2
        from .store import incremental_stream_validate
        result, info = incremental_stream_validate(
            schema, streamed, relation, args.stream, store=store,
            budget=budget, tracer=tracer, spill_root=spill_root)
        print(f"incremental: {info['mode']} at line "
              f"{info['start_line']}/{info['total_lines']}, "
              f"{info['elements_folded']} element(s) folded",
              file=sys.stderr)
    else:
        reader = iter_jsonl_elements(args.stream, schema, relation)
        result = stream_validate(schema, streamed, {relation: reader},
                                 budget=budget, tracer=tracer,
                                 spill_root=spill_root)
    answered = answer(Query("check"), result)
    report = RunReport(command="check").add("stream", result.stats)
    if store is not None:
        report.add("cache", store.stats)
        store.close()
    _obs_finish(args, report, tracer)
    if result.budget_exhausted is not None:
        print(f"budget exhausted ({result.budget_exhausted}) after "
              f"{result.elements_seen} element(s); partial result",
              file=sys.stderr)
    text, status = render("check", {}, answered)
    sys.stdout.write(text)
    return status


def _cmd_explain(args) -> int:
    from .inference.closure import ClosureEngine
    from .nfd.parser import parse_nfd

    schema, sigma, _, spec = _load(args.bundle)
    candidate = parse_nfd(args.nfd)
    engine = ClosureEngine(schema, sigma,
                           nonempty=_spec_from_args(args, spec))
    if not engine.implies(candidate):
        print(f"not implied: {candidate}", file=sys.stderr)
        return 1
    print(engine.explain(candidate).to_text())
    _emit_stats(args, engine)
    return 0


def _cmd_prove(args) -> int:
    from .inference.closure import ClosureEngine
    from .inference.proof_compiler import compile_proof
    from .nfd.parser import parse_nfd

    schema, sigma, _, spec = _load(args.bundle)
    candidate = parse_nfd(args.nfd)
    engine = ClosureEngine(schema, sigma,
                           nonempty=_spec_from_args(args, spec))
    if not engine.implies(candidate):
        print(f"not implied: {candidate}", file=sys.stderr)
        return 1
    proof = compile_proof(engine, candidate)
    print("hypotheses:")
    for index, nfd in enumerate(sigma):
        print(f"  s{index + 1}. {nfd}")
    print(proof.to_text())
    _emit_stats(args, engine)
    return 0


def _cmd_counter(args) -> int:
    from .inference.closure import ClosureEngine
    from .inference.countermodel import build_countermodel
    from .io.json_io import dump_bundle
    from .io.tables import render_instance
    from .nfd.parser import parse_nfd

    schema, sigma, _, spec = _load(args.bundle)
    candidate = parse_nfd(args.nfd)
    spec = _spec_from_args(args, spec)
    if spec is not None and not spec.declares_everything:
        # the Appendix-A construction assumes Section 3.1 (no empty
        # sets); honouring a restrictive spec would need a different
        # witness builder, so refuse rather than silently drop it
        print("error: countermodels require the Section 3.1 setting "
              "(no empty sets); drop --nonempty and the bundle's "
              '"nonempty" declarations, or use `implies` for the gated '
              "question", file=sys.stderr)
        return 2
    engine = ClosureEngine(schema, sigma)
    if engine.implies(candidate):
        print(f"implied — no countermodel exists: {candidate}",
              file=sys.stderr)
        _emit_stats(args, engine)
        return 1
    witness = build_countermodel(engine, candidate.base, candidate.lhs)
    if args.output:
        FilePath(args.output).write_text(
            dump_bundle(schema, sigma, witness))
        print(f"countermodel written to {args.output}")
    else:
        print(render_instance(witness))
    _emit_stats(args, engine)
    return 0


def _cmd_render(args) -> int:
    from .io.tables import render_instance

    _, _, instance, _ = _load(args.bundle, values=True)
    if instance is None:
        print("bundle has no instance to render", file=sys.stderr)
        return 2
    print(render_instance(instance))
    return 0


def _cmd_diff(args) -> int:
    from .analysis.diff import diff_sigmas
    from .inference.closure import ClosureEngine

    schema, old_sigma, _, _ = _load(args.old_bundle)
    new_schema, new_sigma, _, _ = _load(args.new_bundle)
    if new_schema != schema:
        print("error: the two bundles declare different schemas",
              file=sys.stderr)
        return 2
    spec = _spec_from_args(args)
    engines = (ClosureEngine(schema, old_sigma, spec),
               ClosureEngine(schema, new_sigma, spec))
    diff = diff_sigmas(schema, old_sigma, new_sigma, nonempty=spec,
                       old_session=engines[0], new_session=engines[1])
    print(diff.to_text())
    if args.cache_stats:
        for engine in engines:
            print(engine.stats.query_text(), file=sys.stderr)
    return 0 if diff.equivalent else 1


def _cmd_analyze(args) -> int:
    from .analysis.report import analyze_constraints
    from .inference.closure import ClosureEngine
    from .nfd.batch_validate import ValidatorEngine
    from .obs.report import RunReport

    schema, sigma, instance, spec = _load(args.bundle, values=True)
    spec = _spec_from_args(args, spec)
    tracer = _tracer_from_args(args)
    engine = ClosureEngine(schema, list(sigma), spec, tracer=tracer)
    analysis = analyze_constraints(schema, sigma, nonempty=spec,
                                   session=engine)
    print(analysis.to_text())
    report = RunReport(command="analyze").add("closure", engine.stats)
    if instance is not None:
        # one run, one report: when the bundle carries an instance,
        # validate it too so the analyze report consolidates closure
        # AND validator metrics (the exit code stays 0 —
        # `check` is the verdict command)
        validator = ValidatorEngine(schema, sigma, tracer=tracer)
        validator.validate(instance, all_violations=True)
        report.add("validator", validator.stats)
    _obs_finish(args, report, tracer)
    return 0


#: ``normalize``'s sweep-only options: dest -> flag.
_SWEEP_ONLY = {"jobs": "--jobs", "seed": "--seed", "rules": "--rules",
               "max_fields": "--max-fields",
               "min_preserved": "--min-preserved"}


def _cmd_normalize(args) -> int:
    """``repro normalize``: synthesize a nested normal-form design.

    With a bundle, normalize its (or ``--relation``'s) relation and
    print the :class:`~repro.design.DesignReport`; exit 0 when the
    winning design preserves Sigma and the round-trip validation found
    no violations, 1 otherwise.  With ``--sweep N``, normalize N
    generated flat schemas (deterministic in ``--seed``, fanned out
    over ``--jobs``) and gate on ``--min-preserved``.  The sweep-only
    flags (``--jobs``, ``--seed``, ``--rules``, ``--max-fields``,
    ``--min-preserved``) default to None, so a bundle run that would
    ignore one of them exits 2 naming it.
    """
    from .design.synthesize import sweep_normalize, synthesize_design
    from .obs.report import RunReport

    tracer = _tracer_from_args(args)
    report = RunReport(command="normalize")
    # a sweep-only flag left at None takes the library's own default
    given = {name: getattr(args, name) for name in _SWEEP_ONLY
             if getattr(args, name) is not None}
    if args.sweep is not None:
        if args.sweep < 1:
            print("error: --sweep needs a positive count",
                  file=sys.stderr)
            return 2
        ignored = [name for name, given in (
            ("the bundle argument", args.bundle),
            ("--relation", args.relation),
            ("--nonempty", args.nonempty)) if given is not None]
        if ignored:
            print("error: --sweep normalizes generated schemas and "
                  f"would ignore {', '.join(ignored)}", file=sys.stderr)
            return 2
        gate = given.pop("min_preserved", None)
        summary = sweep_normalize(args.sweep, **given)
        print(summary.to_text())
        report.add("design", summary)
        _obs_finish(args, report, tracer)
        ok = summary.ok() if gate is None else summary.ok(gate)
        return 0 if ok else 1
    if args.bundle is None:
        print("error: pass a bundle file or --sweep N",
              file=sys.stderr)
        return 2
    if given:
        print("error: without --sweep, normalize would ignore "
              f"{', '.join(map(_SWEEP_ONLY.get, given))}", file=sys.stderr)
        return 2
    schema, sigma, instance, spec = _load(args.bundle, values=True)
    spec = _spec_from_args(args, spec)
    design = synthesize_design(schema, sigma, args.relation,
                               nonempty=spec, instance=instance,
                               tracer=tracer)
    print(design.to_text())
    report.add("design", design)
    _obs_finish(args, report, tracer)
    ok = design.preserved and not design.roundtrip.startswith("violations")
    return 0 if ok else 1


def _cmd_report(args) -> int:
    from .io.report_md import markdown_report

    schema, sigma, instance, spec = _load(args.bundle, values=True)
    text = markdown_report(schema, sigma, instance,
                           title=args.title,
                           nonempty=_spec_from_args(args, spec))
    if args.output:
        FilePath(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_repair(args) -> int:
    from .chase.nested_repair import repair as chase_repair
    from .io.json_io import dump_bundle

    schema, sigma, instance, _ = _load(args.bundle, values=True)
    if instance is None:
        print("bundle has no instance to repair", file=sys.stderr)
        return 2
    fixed = chase_repair(instance, sigma)
    output = args.output or args.bundle
    FilePath(output).write_text(dump_bundle(schema, sigma, fixed))
    changed = "unchanged" if fixed == instance else "repaired"
    print(f"{changed}; written to {output}")
    return 0


def _cmd_cache(args) -> int:
    """``repro cache stats|clear|vacuum``: maintain the persistent
    cache database.  Needs an explicit directory — there is no implicit
    default to clear by accident."""
    from .store.cache_store import CacheStore, resolve_cache_dir

    cache_dir = resolve_cache_dir(getattr(args, "cache_dir", None))
    if cache_dir is None:
        print("error: no cache directory configured (pass --cache-dir "
              "or set REPRO_CACHE_DIR)", file=sys.stderr)
        return 2
    store = CacheStore(cache_dir)
    try:
        if not store.available:
            print(f"error: cannot open cache database under "
                  f"{cache_dir!r}", file=sys.stderr)
            return 2
        if args.action == "stats":
            for key, value in store.summary().items():
                print(f"{key}: {value}")
            return 0
        if args.action == "clear":
            if not store.clear():
                print("error: clearing the cache failed",
                      file=sys.stderr)
                return 2
            print("cache cleared")
            return 0
        if not store.vacuum():
            print("error: vacuum failed", file=sys.stderr)
            return 2
        print("cache vacuumed")
        return 0
    finally:
        store.close()


def _cmd_serve(args) -> int:
    """``repro serve``: run the daemon until SIGINT/SIGTERM.

    Prints one readiness line — ``repro daemon listening on
    HOST:PORT`` — once the listener is bound (with ``--port 0`` the
    line carries the actual ephemeral port), so supervisors and test
    harnesses can wait on it instead of polling.
    """
    from .server.daemon import ServerConfig, run_server

    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        connection_deadline=args.deadline,
        allow_debug=args.allow_debug,
        allow_shutdown=args.allow_shutdown,
    )
    tracer = _tracer_from_args(args)

    def announce(server) -> None:
        print(f"repro daemon listening on {server.host}:{server.port}",
              flush=True)

    report = run_server(config, tracer=tracer, ready=announce)
    path = getattr(args, "metrics_json", None)
    if path:
        report.write_json(path)
    if tracer is not None:
        tracer.write_jsonl(args.trace)
    print("repro daemon stopped", flush=True)
    return 0


def _cmd_client(args) -> int:
    """``repro client ping|stats|shutdown``: daemon administration."""
    from .server import ReproClient, parse_endpoint

    host, port = parse_endpoint(args.server)
    with ReproClient(host, port, timeout=args.timeout) as client:
        if args.action == "ping":
            client.ping()
            print(f"pong from {host}:{port}")
            return 0
        if args.action == "stats":
            import json as json_module
            print(json_module.dumps(client.stats(), indent=2,
                                    sort_keys=True))
            return 0
        client.shutdown()
        print("server stopping")
        return 0


def _bundle_arg(sub) -> None:
    sub.add_argument("bundle", help="JSON bundle file")


def _nonempty_arg(sub) -> None:
    sub.add_argument(
        "--nonempty", action="append", metavar="PATH",
        help="declare a set path (e.g. Course:students) non-empty; "
             "omit entirely to assume no empty sets (Section 3.1)",
    )


def _stats_arg(sub) -> None:
    sub.add_argument(
        "--stats", action="store_true",
        help="print the closure engine's saturation counters to "
             "stderr",
    )


def _cache_stats_arg(sub) -> None:
    sub.add_argument(
        "--cache-stats", action="store_true", dest="cache_stats",
        help="print the closure engine's query counters (queries "
             "answered, and those it already held) to stderr",
    )


def _cache_dir_arg(sub) -> None:
    sub.add_argument(
        "--cache-dir", metavar="DIR", dest="cache_dir",
        help="the cache directory: --stream --incremental checkpoints "
             "in its SQLite database, --stream spills under its tmp/, "
             "nothing else (default: the REPRO_CACHE_DIR environment "
             "variable; neither set = no persistence)",
    )


def _server_arg(sub) -> None:
    sub.add_argument(
        "--server", metavar="HOST:PORT",
        help="answer through a running `repro serve` daemon "
             "instead of computing in-process (same stdout and "
             "exit codes; observability stays server-side)",
    )


def _obs_args(sub) -> None:
    sub.add_argument(
        "--trace", metavar="FILE",
        help="record a span trace of the run and write it to FILE "
             "as JSON Lines (stdout and exit code are unchanged)",
    )
    sub.add_argument(
        "--metrics-json", metavar="FILE", dest="metrics_json",
        help="write the run's consolidated metrics report (the "
             "same numbers --stats/--cache-stats print) to FILE",
    )


def _add_check(sub) -> None:
    _bundle_arg(sub)
    sub.add_argument(
        "--stats", action="store_true",
        help="print the validation engine's counters to stderr",
    )
    sub.add_argument(
        "--stream", metavar="FILE",
        help="validate a JSONL element dump out-of-core instead of the "
             "bundle's in-memory instance (bounded memory; same "
             "witnesses and exit codes)",
    )
    sub.add_argument(
        "--relation", metavar="NAME",
        help="the relation the streamed file holds (default: the one "
             "relation Σ constrains)",
    )
    sub.add_argument(
        "--max-rows", type=int, default=None, metavar="R",
        dest="max_rows",
        help="spill group tables to disk beyond R resident rows",
    )
    sub.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="stop consuming after S wall-clock seconds and report a "
             "partial result",
    )
    sub.add_argument(
        "--max-elements", type=int, default=None, metavar="M",
        dest="max_elements",
        help="stop after M elements (partial result)",
    )
    sub.add_argument(
        "--incremental", action="store_true",
        help="with --stream: resume from the cache's checkpoint for "
             "this file and fold only appended lines (requires a cache "
             "directory; witnesses match a full cold re-stream)",
    )
    _cache_dir_arg(sub)
    _server_arg(sub)
    _obs_args(sub)
    sub.set_defaults(handler=_cmd_query)


def _add_implies(sub) -> None:
    _bundle_arg(sub)
    sub.add_argument("nfd", help='candidate, e.g. "Course:[cnum -> time]"')
    _nonempty_arg(sub)
    _stats_arg(sub)
    _cache_stats_arg(sub)
    _server_arg(sub)
    _obs_args(sub)
    sub.set_defaults(handler=_cmd_query)


def _add_closure(sub) -> None:
    _bundle_arg(sub)
    sub.add_argument("base", help="base path, e.g. Course or R:A")
    sub.add_argument("paths", nargs="*", help="LHS paths")
    _nonempty_arg(sub)
    _stats_arg(sub)
    _cache_stats_arg(sub)
    _server_arg(sub)
    _obs_args(sub)
    sub.set_defaults(handler=_cmd_query)


def _add_explain(sub) -> None:
    _bundle_arg(sub)
    sub.add_argument("nfd")
    _nonempty_arg(sub)
    _stats_arg(sub)
    sub.set_defaults(handler=_cmd_explain)


def _add_prove(sub) -> None:
    _bundle_arg(sub)
    sub.add_argument("nfd")
    _nonempty_arg(sub)
    _stats_arg(sub)
    sub.set_defaults(handler=_cmd_prove)


def _add_counter(sub) -> None:
    _bundle_arg(sub)
    sub.add_argument("nfd")
    sub.add_argument("-o", "--output", help="write a bundle instead of "
                                            "printing tables")
    _nonempty_arg(sub)
    _stats_arg(sub)
    sub.set_defaults(handler=_cmd_counter)


def _add_render(sub) -> None:
    _bundle_arg(sub)
    sub.set_defaults(handler=_cmd_render)


def _add_keys(sub) -> None:
    _bundle_arg(sub)
    sub.add_argument("relation", nargs="?", default=None)
    _nonempty_arg(sub)
    _cache_stats_arg(sub)
    _server_arg(sub)
    _obs_args(sub)
    sub.set_defaults(handler=_cmd_query)


def _add_diff(sub) -> None:
    sub.add_argument("old_bundle")
    sub.add_argument("new_bundle")
    _nonempty_arg(sub)
    _cache_stats_arg(sub)
    sub.set_defaults(handler=_cmd_diff)


def _add_analyze(sub) -> None:
    _bundle_arg(sub)
    _nonempty_arg(sub)
    _stats_arg(sub)
    _cache_stats_arg(sub)
    _obs_args(sub)
    sub.set_defaults(handler=_cmd_analyze)


def _add_normalize(sub) -> None:
    sub.add_argument("bundle", nargs="?", default=None,
                     help="JSON bundle file (omit with --sweep)")
    sub.add_argument("--relation", metavar="NAME", default=None,
                     help="the relation to normalize (default: the "
                          "bundle's only relation)")
    sub.add_argument("--sweep", type=int, default=None, metavar="N",
                     help="normalize N generated flat schemas instead "
                          "of a bundle (deterministic in --seed; "
                          "output is identical for every --jobs)")
    sub.add_argument("--seed", type=int, default=None, metavar="S",
                     help="sweep generator seed (default 0)")
    sub.add_argument("--rules", type=int, default=None, metavar="K",
                     help="Sigma size for sweep schemas too small to "
                          "carry the design shape (default 4)")
    sub.add_argument("--max-fields", type=int, default=None,
                     metavar="F", dest="max_fields",
                     help="attribute bound for sweep schemas "
                          "(default 5)")
    sub.add_argument("--min-preserved", type=float, default=None,
                     metavar="RATE", dest="min_preserved",
                     help="sweep gate: minimum fraction of designs "
                          "that preserve their Sigma (default 0.95)")
    sub.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="fan the sweep out across N >= 1 worker "
                          "processes (default 1: serial; output is "
                          "identical either way)")
    _nonempty_arg(sub)
    _obs_args(sub)
    sub.set_defaults(handler=_cmd_normalize)


def _add_report(sub) -> None:
    _bundle_arg(sub)
    sub.add_argument("--title", default="Constraint report")
    sub.add_argument("-o", "--output", help="write to a file")
    _nonempty_arg(sub)
    sub.set_defaults(handler=_cmd_report)


def _add_repair(sub) -> None:
    _bundle_arg(sub)
    sub.add_argument("-o", "--output", help="output bundle "
                                            "(default: in place)")
    sub.set_defaults(handler=_cmd_repair)


def _add_cache(sub) -> None:
    sub.add_argument("action", choices=("stats", "clear", "vacuum"),
                     help="stats: row counts and size; clear: drop "
                          "every entry; vacuum: reclaim disk space")
    _cache_dir_arg(sub)
    sub.set_defaults(handler=_cmd_cache)


def _add_serve(sub) -> None:
    sub.add_argument("--host", default="127.0.0.1",
                     help="interface to bind (default 127.0.0.1)")
    sub.add_argument("--port", type=int, default=0, metavar="N",
                     help="port to bind (default 0: an ephemeral port, "
                          "reported on the readiness line)")
    sub.add_argument("--max-sessions", type=int, default=32,
                     dest="max_sessions", metavar="N",
                     help="warm-engine pool bound: distinct Σ "
                          "fingerprints kept live (LRU eviction)")
    sub.add_argument("--deadline", type=float, default=None,
                     metavar="S",
                     help="per-connection wall-clock budget in "
                          "seconds; check requests stop cooperatively "
                          "at the deadline (stream-engine budget)")
    sub.add_argument("--allow-debug", action="store_true",
                     dest="allow_debug",
                     help="honour ping sleep_ms (testing aid)")
    sub.add_argument("--allow-shutdown", action="store_true",
                     dest="allow_shutdown",
                     help="honour the remote shutdown request")
    _obs_args(sub)
    sub.set_defaults(handler=_cmd_serve)


def _add_client(sub) -> None:
    sub.add_argument("action", choices=("ping", "stats", "shutdown"),
                     help="ping: round-trip check; stats: dump the "
                          "daemon's metrics as JSON; shutdown: stop "
                          "it (needs --allow-shutdown server-side)")
    sub.add_argument("--server", metavar="HOST:PORT", required=True,
                     help="the daemon's endpoint")
    sub.add_argument("--timeout", type=float, default=30.0,
                     metavar="S", help="socket timeout in seconds")
    sub.set_defaults(handler=_cmd_client)


#: Each command's one-line help and its argument adder, in the order
#: ``repro -h`` lists them.
_COMMANDS = {
    "check": ("validate the instance", _add_check),
    "implies": ("decide implication", _add_implies),
    "closure": ("compute (x0, X, Sigma)*", _add_closure),
    "explain": ("justify an implication", _add_explain),
    "prove": ("compile a machine-checked derivation", _add_prove),
    "counter": ("build an Appendix-A countermodel", _add_counter),
    "render": ("print nested tables", _add_render),
    "keys": ("minimal keys of a relation", _add_keys),
    "diff": ("semantic diff of two constraint sets", _add_diff),
    "analyze": ("keys, singletons, redundancy report", _add_analyze),
    "normalize": ("synthesize a nested normal-form design",
                  _add_normalize),
    "report": ("render a Markdown report", _add_report),
    "repair": ("chase the instance into consistency", _add_repair),
    "cache": ("persistent cache maintenance", _add_cache),
    "serve": ("run the constraint-checking daemon", _add_serve),
    "client": ("administer a running daemon", _add_client),
}


class _Reparse(Exception):
    """A one-command parse failed; the full parser reports it."""


class _OneCommandParser(argparse.ArgumentParser):
    """The parser of a single command's run: any error re-parses with
    the full parser, so usage and messages are the full parser's."""

    def error(self, message):
        raise _Reparse(message)


def _parser(command: str | None = None,
            parser_class=argparse.ArgumentParser) \
        -> argparse.ArgumentParser:
    parser = parser_class(
        prog="repro",
        description="Nested functional dependencies: checking, "
                    "implication, countermodels (Hara & Davidson, "
                    "PODS 1999).",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        if command is None or name == command:
            add_arguments(commands.add_parser(name, help=help_text))
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser, every command's subparser registered."""
    return _parser()


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """*argv* parsed; only the named command's subparser is built when
    the first token names one (help and errors read the same)."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _COMMANDS:
        try:
            return _parser(argv[0], _OneCommandParser).parse_args(argv)
        except _Reparse:
            pass
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        print(f"error: --jobs must be >= 1, got {jobs}", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader (e.g. `| head`) closed the pipe: exit quietly, and
        # detach stdout so the interpreter's final flush cannot raise
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except OSError:  # pragma: no cover - best effort
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
