"""Minimal covers and redundancy for NFD sets.

The classical uses of an axiomatization (Section 1: database design,
dependency-preserving decompositions) start from a non-redundant cover.
This module lifts the standard constructions to NFDs:

* :func:`minimal_cover` — drop members implied by the rest, then shrink
  each LHS path set to a minimal one;
* :func:`is_redundant` / :func:`non_redundant` — member-wise redundancy;
* :func:`covers` — does one set imply another?

Every probe ("is this member implied by the others?", "does the set
still imply the member with a smaller LHS?") concerns a one-member
perturbation of the same Sigma, so the whole module runs on
:class:`~repro.inference.session.ImplicationSession` copy-on-write
probes: one compiled Sigma pool serves the entire minimal-cover
computation (the O(1)-engines property is asserted by
``tests/test_analysis_cover.py`` via
:func:`repro.inference.closure.pool_build_count`).
"""

from __future__ import annotations

from typing import Iterable

from ..inference.empty_sets import NonEmptySpec
from ..inference.session import ImplicationSession
from ..nfd.nfd import NFD
from ..types.schema import Schema

__all__ = ["covers", "is_redundant", "non_redundant", "minimal_cover"]

def covers(schema: Schema, sigma: Iterable[NFD],
           others: Iterable[NFD],
           nonempty: NonEmptySpec | None = None) -> bool:
    """True iff *sigma* implies every member of *others* (answered as
    one subset-ordered closure batch)."""
    session = ImplicationSession(schema, list(sigma), nonempty)
    return session.implies_all(others)


def is_redundant(schema: Schema, sigma: list[NFD], index: int,
                 nonempty: NonEmptySpec | None = None,
                 engine=None) -> bool:
    """Is ``sigma[index]`` implied by the other members?

    Pass the *engine* (a :class:`~repro.inference.closure.ClosureEngine`
    or :class:`ImplicationSession`) built over the full *sigma* when
    probing several members: each rest-probe then shares its compiled
    Sigma pool via ``without`` instead of rebuilding it each time.
    """
    if engine is None:
        engine = ImplicationSession(schema, list(sigma), nonempty)
    return engine.without(index).implies(sigma[index])


def non_redundant(schema: Schema, sigma: Iterable[NFD],
                  nonempty: NonEmptySpec | None = None, *,
                  session: ImplicationSession | None = None) -> list[NFD]:
    """A non-redundant subset equivalent to *sigma*.

    Greedy removal in order; the result depends on member order (all
    non-redundant covers of the same set are equivalent, not equal).
    Each probe session comes from :meth:`ImplicationSession.without`,
    and a successful removal keeps the probe as the new baseline, so
    the compiled Sigma pool is built at most once (zero times when a
    *session* over *sigma* is supplied).
    """
    remaining = list(sigma)
    if not remaining:
        return remaining
    if session is None:
        session = ImplicationSession(schema, remaining, nonempty)
    tracer = session.tracer
    if tracer is not None:
        with tracer.span("analysis.non_redundant",
                         members=len(remaining)) as span:
            return _drop_redundant(remaining, session, span)
    return _drop_redundant(remaining, session, None)


def _drop_redundant(remaining: list[NFD],
                    session: ImplicationSession, span) -> list[NFD]:
    index = 0
    while index < len(remaining):
        probe = session.without(index)
        if probe.implies(remaining[index]):
            del remaining[index]
            session = probe
            if span is not None:
                span.add("dropped")
        else:
            index += 1
    return remaining


def _shrink_lhs(session: ImplicationSession, sigma: list[NFD],
                index: int) -> tuple[NFD, ImplicationSession]:
    """Minimize the LHS of ``sigma[index]`` keeping equivalence.

    A path is dropped when the strengthened NFD (smaller LHS) is still
    implied by the *current* whole set; strengthening never weakens the
    set, so equivalence is preserved.  Each accepted shrink swaps the
    member in place via a copy-on-write :meth:`ImplicationSession.replaced`
    probe — Sigma order is preserved and nothing is recompiled, where
    this loop used to construct a fresh engine per candidate
    (O(|Sigma| * |LHS|) engines for the whole cover).

    Note the candidate must be tested against the *current* Sigma (with
    the member already shrunk in place), not the original one: under the
    gated Section 3.2 semantics derivability is not closed under cutting
    a just-proven member back in — the nested-base pull-out gate can
    reject an LHS augmented with a path that is not always defined — so
    the two baselines can genuinely differ.
    """
    current = sigma[index]
    for path in sorted(current.lhs, reverse=True):
        if path not in current.lhs:  # pragma: no cover - defensive
            continue
        candidate = current.with_lhs(current.lhs - {path})
        if session.implies(candidate):
            current = candidate
            sigma[index] = current
            session = session.replaced(index, current)
    return current, session


def minimal_cover(schema: Schema, sigma: Iterable[NFD],
                  nonempty: NonEmptySpec | None = None, *,
                  session: ImplicationSession | None = None) -> list[NFD]:
    """A minimal cover: shrunken LHSs, then no redundant members.

    The result is equivalent to *sigma* (tests verify via
    :func:`repro.inference.implication.equivalent_sets`) and no member
    can be removed or have its LHS shrunk further.  The whole
    computation — every shrink probe and every redundancy probe — runs
    against one compiled Sigma pool through copy-on-write sessions.
    """
    working = list(sigma)
    if session is None:
        session = ImplicationSession(schema, working, nonempty)
    tracer = session.tracer
    if tracer is None:
        for index in range(len(working)):
            working[index], session = _shrink_lhs(session, working, index)
        return non_redundant(schema, working, nonempty, session=session)
    with tracer.span("analysis.cover", members=len(working)) as span:
        for index in range(len(working)):
            before = len(working[index].lhs)
            working[index], session = _shrink_lhs(session, working, index)
            span.add("lhs_dropped", before - len(working[index].lhs))
        return non_redundant(schema, working, nonempty, session=session)
