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

Query commands that run through an implication session additionally
accept ``--cache-stats``, printing the session's memoization counters
(:class:`repro.inference.SessionStats`) to stderr, and ``keys`` and
``normalize`` accept ``--jobs N`` (``N >= 1``) to fan their work out
across *N* worker processes — stdout is byte-identical to the serial
run (deterministic result ordering), only wall-clock changes.

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

``check --stream``, ``implies``, ``closure``, and ``keys`` accept
``--cache-dir DIR`` (default: the ``REPRO_CACHE_DIR`` environment
variable) naming a directory whose SQLite database persists derived
state across runs (see :mod:`repro.store`): closure memos, dense
closure tables, and — with ``check --stream FILE --incremental`` —
stream checkpoints, so a re-validation of an appended JSONL file folds
only the new lines; ``check --stream`` also spills under the
directory's ``tmp/``.  An in-memory ``check`` keeps nothing there and
opens no database.  The cache is purely an accelerator: a missing,
corrupt, or version-mismatched database degrades to the cold
computation with identical stdout and exit codes (a corrupt one warns
on stderr).  ``repro cache stats|clear|vacuum`` maintains the database.

``repro serve`` runs the long-lived constraint-checking daemon (see
:mod:`repro.server`): a line-delimited JSON protocol over TCP, a warm
pool of implication sessions shared by every client, admission
control, and cooperative deadlines.  ``check``, ``implies``,
``closure``, and ``keys`` accept ``--server HOST:PORT`` to route the
query through a running daemon instead of computing in-process —
stdout and exit codes are identical either way, because both paths
parse, answer and render through :mod:`repro.service` (the local
observability, ``--cache-dir`` and ``--jobs`` flags are ignored with a
note: query the daemon with ``repro client stats``).  ``repro client
ping|stats|shutdown`` administer a daemon.

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
    """``(schema, sigma, instance, payload)`` of a bundle file, from one
    read and one parse (:func:`repro.io.json_io.read_bundle`): the
    instance as type-checked JSON rows, or with *values* as a value
    tree; *payload* is for :func:`_spec_from_args`."""
    from .io.json_io import read_bundle

    return read_bundle(_read(path_text), values=values)


def _spec_from_args(args, payload=None) -> NonEmptySpec | None:
    """The NON-NULL spec: --nonempty flags win over the bundle's own.

    Bundles may persist their declarations (see
    :func:`repro.io.dump_bundle`), read from the decoded bundle
    *payload* by :func:`repro.io.json_io.bundle_spec`, the daemon's
    rule too; explicit flags override them — as ``--server`` replaces
    them on the wire — so a what-if query never requires editing the
    file.
    """
    declared = getattr(args, "nonempty", None)
    if declared:
        from .inference.empty_sets import NonEmptySpec
        from .paths.path import parse_path

        return NonEmptySpec({parse_path(text) for text in declared})
    if payload is None:
        return None
    from .io.json_io import bundle_spec

    return bundle_spec(payload)


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


def _store_from_args(args):
    """An open writable :class:`~repro.store.CacheStore` when a cache
    directory is configured (``--cache-dir`` flag, else the
    ``REPRO_CACHE_DIR`` environment variable), else ``None`` — the
    no-persistence default.  An unusable directory yields a store that
    warns once and misses everywhere; cold behavior is unchanged.
    """
    # resolved here, as repro.store.resolve_cache_dir does, so that a
    # run without a cache never imports the store (or sqlite3)
    cache_dir = getattr(args, "cache_dir", None) \
        or os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        return None
    from .store import open_store

    return open_store(cache_dir)


def _finish_store(report: RunReport, store) -> None:
    """Freeze the store's hit/miss counters into the report's ``cache``
    section and release the database handle."""
    if store is not None:
        report.add("cache", store.stats)
        store.close()


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
    if getattr(args, "cache_stats", False) and "session" in report:
        print(report.section_text("session"), file=sys.stderr)
    path = getattr(args, "metrics_json", None)
    if path:
        report.write_json(path)
    if tracer is not None:
        tracer.write_jsonl(args.trace)


def _emit_stats(args, engine, flag: str = "stats") -> None:
    """Print an engine's (or session's) counters to stderr when the
    ``--stats`` flag (or the one *flag* names, such as
    ``cache_stats``) was given."""
    if getattr(args, flag, False):
        print(engine.stats.to_text(), file=sys.stderr)


def _obs_note(args) -> None:
    """The daemon computes under its own configuration: note the local
    observability, ``--cache-dir`` and ``--jobs`` flags it ignores."""
    ignored = [flag for flag, name in (
        ("--stats", "stats"), ("--cache-stats", "cache_stats"),
        ("--trace", "trace"), ("--metrics-json", "metrics_json"),
        ("--cache-dir", "cache_dir"),
    ) if getattr(args, name, None)]
    if getattr(args, "jobs", 1) != 1:
        ignored.append("--jobs")
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


def _cmd_query(args) -> int:
    """``check``, ``implies``, ``closure`` and ``keys``: one result dict,
    from the daemon under ``--server`` or computed in-process, rendered
    by :func:`repro.service.render` either way."""
    if getattr(args, "stream", None):
        if args.server:
            print("error: --stream runs locally; drop --server",
                  file=sys.stderr)
            return 2
        return _cmd_check_stream(args)
    from .service import render

    params = _query_params(args)
    if args.server:
        from .io.json_io import parse_bundle_json
        from .server import ReproClient, parse_endpoint

        _obs_note(args)
        bundle = parse_bundle_json(_read(args.bundle))
        if getattr(args, "nonempty", None):
            # the flags override the persisted declarations, as they
            # do in-process (see _spec_from_args)
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

    Runs :func:`repro.service.check`, or builds the session and the
    store, and handles every local-only flag: ``--jobs`` and
    ``--cache-dir`` (``implies``, ``closure``, ``keys``), ``--stats``,
    ``--cache-stats``, ``--trace`` and ``--metrics-json``.
    """
    from .obs.report import RunReport
    from .service import answer, check, parse_query

    kind = args.command
    schema, sigma, rows, payload = _load(args.bundle)
    # read for every kind, so a malformed "nonempty" is refused by a
    # check too, as the daemon refuses it
    spec = _spec_from_args(args, payload)
    query = parse_query(kind, params, schema, rows)
    tracer = _tracer_from_args(args)
    report = RunReport(command=kind)
    if kind == "check":
        outcome = check(schema, sigma, rows, tracer=tracer)
        report.add("stream", outcome.stats)
    else:
        jobs = getattr(args, "jobs", 1)
        store = _store_from_args(args)
        session = None
        if jobs == 1:
            from .inference.session import ImplicationSession

            session = ImplicationSession(schema, sigma, spec,
                                         tracer=tracer, store=store)
        elif getattr(args, "cache_stats", False):
            print("cache stats unavailable with --jobs > 1 (each worker "
                  "process holds its own session)", file=sys.stderr)
        if kind == "keys":
            from .analysis.keys import minimal_keys

            outcome = minimal_keys(schema, sigma, query.relation,
                                   engine=session, nonempty=spec,
                                   jobs=jobs,
                                   cache_dir=store.cache_dir
                                   if store is not None else None)
        else:
            outcome = [session.closure(base, lhs)
                       for base, lhs in query.closures]
        if session is not None:
            report.add("closure", session.engine.stats)
            report.add("session", session.stats)
        _finish_store(report, store)
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
    store = _store_from_args(args)
    spill_root = None
    if store is not None:
        from .store import default_spill_root
        spill_root = default_spill_root(store.cache_dir)
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
    _finish_store(report, store)
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

    schema, sigma, _, payload = _load(args.bundle)
    candidate = parse_nfd(args.nfd)
    engine = ClosureEngine(schema, sigma,
                           nonempty=_spec_from_args(args, payload))
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

    schema, sigma, _, payload = _load(args.bundle)
    candidate = parse_nfd(args.nfd)
    engine = ClosureEngine(schema, sigma,
                           nonempty=_spec_from_args(args, payload))
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

    schema, sigma, _, payload = _load(args.bundle)
    candidate = parse_nfd(args.nfd)
    spec = _spec_from_args(args, payload)
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
    from .inference.session import ImplicationSession

    schema, old_sigma, _, _ = _load(args.old_bundle)
    new_schema, new_sigma, _, _ = _load(args.new_bundle)
    if new_schema != schema:
        print("error: the two bundles declare different schemas",
              file=sys.stderr)
        return 2
    spec = _spec_from_args(args)
    old_session = ImplicationSession(schema, old_sigma, spec)
    new_session = ImplicationSession(schema, new_sigma, spec)
    diff = diff_sigmas(schema, old_sigma, new_sigma, nonempty=spec,
                       old_session=old_session,
                       new_session=new_session)
    print(diff.to_text())
    _emit_stats(args, old_session, "cache_stats")
    _emit_stats(args, new_session, "cache_stats")
    return 0 if diff.equivalent else 1


def _cmd_analyze(args) -> int:
    from .analysis.report import analyze_constraints
    from .inference.session import ImplicationSession
    from .nfd.batch_validate import ValidatorEngine
    from .obs.report import RunReport

    schema, sigma, instance, payload = _load(args.bundle, values=True)
    spec = _spec_from_args(args, payload)
    tracer = _tracer_from_args(args)
    session = ImplicationSession(schema, list(sigma), spec,
                                 tracer=tracer)
    analysis = analyze_constraints(schema, sigma, nonempty=spec,
                                   session=session)
    print(analysis.to_text())
    report = (RunReport(command="analyze")
              .add("closure", session.engine.stats)
              .add("session", session.stats))
    if instance is not None:
        # one run, one report: when the bundle carries an instance,
        # validate it too so the analyze report consolidates closure,
        # session, AND validator metrics (the exit code stays 0 —
        # `check` is the verdict command)
        validator = ValidatorEngine(schema, sigma, tracer=tracer)
        validator.validate(instance, all_violations=True)
        report.add("validator", validator.stats)
    _obs_finish(args, report, tracer)
    return 0


def _cmd_normalize(args) -> int:
    """``repro normalize``: synthesize a nested normal-form design.

    With a bundle, normalize its (or ``--relation``'s) relation and
    print the :class:`~repro.design.DesignReport`; exit 0 when the
    winning design preserves Sigma and the round-trip validation found
    no violations, 1 otherwise.  With ``--sweep N``, normalize N
    generated flat schemas (deterministic in ``--seed``, fanned out
    over ``--jobs``) and gate on ``--min-preserved``.
    """
    from .design.synthesize import sweep_normalize, synthesize_design
    from .obs.report import RunReport

    tracer = _tracer_from_args(args)
    report = RunReport(command="normalize")
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
        summary = sweep_normalize(
            args.sweep, jobs=args.jobs, seed=args.seed,
            rules=args.rules, max_fields=args.max_fields)
        print(summary.to_text())
        report.add("design", summary)
        _obs_finish(args, report, tracer)
        return 0 if summary.ok(args.min_preserved) else 1
    if args.bundle is None:
        print("error: pass a bundle file or --sweep N",
              file=sys.stderr)
        return 2
    schema, sigma, instance, payload = _load(args.bundle, values=True)
    spec = _spec_from_args(args, payload)
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

    schema, sigma, instance, payload = _load(args.bundle, values=True)
    text = markdown_report(schema, sigma, instance,
                           title=args.title,
                           nonempty=_spec_from_args(args, payload))
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
    from .store.cache_store import resolve_cache_dir

    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        max_inflight=args.max_inflight,
        max_pending=args.max_pending,
        connection_deadline=args.deadline,
        cache_dir=resolve_cache_dir(getattr(args, "cache_dir", None)),
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
        help="print the implication session's memoization counters "
             "to stderr",
    )


def _jobs_arg(sub) -> None:
    sub.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="fan the work out across N >= 1 worker "
                          "processes (default 1: serial; output is "
                          "identical either way)")


def _cache_dir_arg(sub) -> None:
    sub.add_argument(
        "--cache-dir", metavar="DIR", dest="cache_dir",
        help="persist closure memos, dense closure tables, and "
             "stream checkpoints in DIR's SQLite database across runs "
             "(default: the REPRO_CACHE_DIR environment variable; "
             "neither set = no persistence)",
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
    _cache_dir_arg(sub)
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
    _cache_dir_arg(sub)
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
    _jobs_arg(sub)
    _cache_dir_arg(sub)
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
    sub.add_argument("--seed", type=int, default=0, metavar="S",
                     help="sweep generator seed (default 0)")
    sub.add_argument("--rules", type=int, default=4, metavar="K",
                     help="Sigma size for sweep schemas too small to "
                          "carry the design shape (default 4)")
    sub.add_argument("--max-fields", type=int, default=5, metavar="F",
                     dest="max_fields",
                     help="attribute bound for sweep schemas "
                          "(default 5)")
    sub.add_argument("--min-preserved", type=float, default=0.95,
                     metavar="RATE", dest="min_preserved",
                     help="sweep gate: minimum fraction of designs "
                          "that preserve their Sigma (default 0.95)")
    _nonempty_arg(sub)
    _jobs_arg(sub)
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
    sub.add_argument("--max-inflight", type=int, default=8,
                     dest="max_inflight", metavar="N",
                     help="requests executing concurrently before "
                          "admission control queues")
    sub.add_argument("--max-pending", type=int, default=32,
                     dest="max_pending", metavar="N",
                     help="queued requests before new ones are shed "
                          "with an overloaded response")
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
    _cache_dir_arg(sub)
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
    jobs = getattr(args, "jobs", 1)
    if jobs < 1:
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
