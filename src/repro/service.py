"""One query core for ``check``, ``implies``, ``closure`` and ``keys``.

The CLI (in-process and ``--server``) and the daemon answer these four
queries through this module alone, so the result format, the sort
orders and the exit codes are decided here once:

* :func:`parse_query` validates a request's wire parameters (which the
  CLI builds from its arguments) into a :class:`Query`, raising a typed
  :class:`~repro.errors.ReproError` on bad input — ``invalid_query``
  on the wire, exit 2 in the CLI;
* :func:`check` is the one in-memory Definition 2.4 check: the stream
  engine over the bundle's JSON rows, put in set order;
* :func:`answer` turns what the caller computed — locally, or on the
  daemon's warm pool and closure batcher — into the wire result dict;
* :func:`render` turns a result dict into CLI stdout and exit status.

The bundle's instance arrives as ``{relation: rows}`` — parsed JSON,
held to the schema row by row when the bundle was read
(:func:`repro.io.json_io.instance_rows`, which the daemon's
:func:`~repro.server.protocol.parse_bundle_payload` and the CLI's
loader both run).  An ill-typed instance is refused there, for every
query kind alike, and no value tree of the instance is built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import ReproError
from .nfd.nfd import NFD
from .nfd.parser import parse_nfd
from .paths.path import parse_path

if TYPE_CHECKING:
    from .nfd.stream_validate import StreamResult

__all__ = ["QueryError", "Query", "parse_query", "check", "answer",
           "render"]


class QueryError(ReproError):
    """A query parameter is missing or has the wrong shape."""


class Query(NamedTuple):
    """A validated query.  ``closures`` holds the ``(base, lhs)`` pairs
    whose closures answer ``implies`` and ``closure``; ``single`` marks
    a ``closure`` asked by ``base``/``paths`` rather than ``queries``.

    A named tuple rather than a dataclass: ``dataclasses`` imports
    ``inspect``, which every cold query process would then pay for.
    """

    kind: str
    closures: tuple = ()
    nfd: NFD | None = None
    single: bool = True
    relation: str | None = None


def parse_query(kind: str, params: dict, schema, rows=None) -> Query:
    """Validate *params* of a *kind* query against *schema*.

    ``check`` needs the bundle's instance *rows* (type-checked when the
    bundle was read); the other kinds ignore them.
    """
    if kind == "implies":
        text = params.get("nfd")
        if not isinstance(text, str):
            raise QueryError('"implies" requires an "nfd" string')
        nfd = parse_nfd(text)
        nfd.check_well_formed(schema)
        return Query(kind, closures=((nfd.base, nfd.lhs),), nfd=nfd)
    if kind == "closure":
        single = "queries" not in params
        if single:
            specs = [(params.get("base"), params.get("paths", []))]
        else:
            specs = params["queries"]
            if not isinstance(specs, list) or not all(
                    isinstance(q, (list, tuple)) and len(q) == 2
                    for q in specs):
                raise QueryError('"queries" must be a list of '
                                 "[base, [paths]] pairs")
        closures = []
        for base, paths in specs:
            if not isinstance(base, str):
                raise QueryError('"closure" requires a "base" path string')
            if not isinstance(paths, (list, tuple)) or not all(
                    isinstance(p, str) for p in paths):
                raise QueryError('"paths" must be a list of path strings')
            closures.append((parse_path(base),
                             frozenset(parse_path(p) for p in paths)))
        return Query(kind, closures=tuple(closures), single=single)
    if kind == "keys":
        relation = params.get("relation")
        if relation is None:
            relation = schema.relation_names[0]
        if not isinstance(relation, str):
            raise QueryError('"relation" must be a string')
        return Query(kind, relation=relation)
    if rows is None:
        raise QueryError('bundle has no "instance" to check')
    return Query(kind)


def check(schema, sigma, rows, *, deadline: float | None = None,
          tracer=None) -> StreamResult:
    """Σ's witnesses on the instance *rows* (``{relation: rows}``, each
    row type-checked JSON): the stream engine over each constrained
    relation's rows in set order (:func:`~repro.io.stream.set_order`) —
    the order :class:`~repro.nfd.ValidatorEngine` walks the set, so the
    witnesses come back in its order too.  A *deadline* in seconds
    bounds the run cooperatively; without one no budget is set."""
    from .io.stream import set_order
    from .nfd.stream_validate import ResourceBudget, stream_validate

    sources = {relation: set_order(rows[relation])
               for relation in {nfd.relation for nfd in sigma}
               if relation in rows}
    budget = None if deadline is None else ResourceBudget(deadline=deadline)
    return stream_validate(schema, sigma, sources, budget=budget,
                           tracer=tracer)


def answer(query: Query, outcome, *, bounded: bool = False) -> dict:
    """The result dict of *query*, given what the caller computed.

    *outcome* is the list of closures of ``query.closures`` for
    ``implies`` and ``closure``, the minimal keys for ``keys``, and a
    :class:`~repro.nfd.StreamResult` for ``check``, whose ``partial``
    is the budget verdict; a *bounded* check (one run under a
    deadline) also reports ``elements_seen``.
    """
    if query.kind == "implies":
        return {"implied": query.nfd.rhs in outcome[0],
                "nfd": str(query.nfd)}
    if query.kind == "closure":
        # Path-tuple sort order, not string sort — the two differ once
        # labels mix digits and separators
        closures = [[str(p) for p in sorted(closed)]
                    for closed in outcome]
        result = {"closures": closures}
        if query.single:
            result["closure"] = closures[0]
        return result
    if query.kind == "keys":
        return {"relation": query.relation,
                "keys": [sorted(str(p) for p in key) for key in outcome]}
    result = {"satisfied": outcome.ok,
              "violations": [v.describe() for v in outcome.violations],
              "partial": outcome.budget_exhausted}
    if bounded:
        result["elements_seen"] = outcome.elements_seen
    return result


def render(kind: str, params: dict, result: dict) -> tuple[str, int]:
    """``(stdout text, exit status)`` of one result dict.

    Exit 0 when the property holds, 1 when it fails; a ``check`` cut
    short by its budget before finding a violation exits 2, because
    its verdict is unknown.
    """
    if kind == "implies":
        implied = result["implied"]
        verdict = "implied" if implied else "not implied"
        return f"{verdict}: {result['nfd']}\n", 0 if implied else 1
    if kind == "closure":
        lhs = ", ".join(sorted({str(parse_path(p))
                                for p in params.get("paths", ())}))
        lines = [f"({parse_path(params['base'])}, {{{lhs or '∅'}}})* =",
                 *(f"  {path}" for path in result["closure"])]
        return "".join(line + "\n" for line in lines), 0
    if kind == "keys":
        relation, keys = result["relation"], result["keys"]
        if not keys:
            return f"{relation}: no key among the top-level attributes\n", 1
        return "".join(f"{relation}: {{{', '.join(key)}}}\n"
                       for key in keys), 0
    violations = result["violations"]
    text = "".join(f"{violation}\n\n" for violation in violations)
    if violations:
        return text + f"{len(violations)} violation(s)\n", 1
    if result["partial"] is not None:
        return "", 2
    return "instance satisfies all constraints\n", 0
