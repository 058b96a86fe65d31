"""Key discovery for nested relations.

The introduction's first constraint ("cnum is a key") is the conjunction
of one NFD per sibling attribute.  This module finds minimal keys — both
at the top level of a relation and locally inside any set-valued path —
by querying the closure engine, and offers the converse construction:
the NFDs declaring a chosen key.

The combination sweep is the library's heaviest query stream: adjacent
combinations share most of their members, so it runs through an
:class:`~repro.inference.session.ImplicationSession`, one
:meth:`~repro.inference.session.ImplicationSession.covers_batch` per
size-level.  The sweep is indexed by masks: each combination is a
bitmask over the scope's attributes, a found key prunes every
combination it is a submask of, and only the survivors are built as
path sets, once each; the engine then seeds each candidate from its
drop-one subqueries through a ``keymask -> key`` index
(:meth:`ClosureEngine.covers_many`).  Each size-level is one batch in
one process: a process fan-out answered one ``is_key`` per candidate
and lost to the batched sweep at every measured width.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from ..inference.empty_sets import NonEmptySpec
from ..inference.session import ImplicationSession
from ..nfd.nfd import NFD
from ..paths.path import Path
from ..paths.typing import resolve_base_path
from ..types.schema import Schema

__all__ = ["minimal_keys", "is_key", "key_nfds", "local_minimal_keys"]


def key_nfds(base: Path, key: Iterable[Path],
             scope_labels: Iterable[str]) -> list[NFD]:
    """The NFDs asserting that *key* is a key at *base*.

    One NFD per attribute of the scope: ``base:[key -> attribute]``.
    Attributes inside the key are skipped (they are trivial).
    """
    key_set = frozenset(key)
    result = []
    for label in scope_labels:
        rhs = Path((label,))
        if rhs in key_set:
            continue
        result.append(NFD(base, key_set, rhs))
    return result


def is_key(engine, base: Path, candidate: Iterable[Path]) -> bool:
    """Does *candidate* determine every top-level attribute at *base*?

    Determining all top-level attributes pins the whole element: deeper
    paths are reached through their top-level set, which is itself
    determined.  *engine* is a :class:`ClosureEngine` or an
    :class:`ImplicationSession` (anything with ``schema``/``closure``).
    """
    scope = resolve_base_path(engine.schema, base)
    closed = engine.closure(base, candidate)
    return all(Path((label,)) in closed for label in scope.labels)


def minimal_keys(schema: Schema, sigma: Iterable[NFD], relation: str,
                 engine=None, *, nonempty: NonEmptySpec | None = None) \
        -> list[frozenset[Path]]:
    """All minimal keys of *relation* over its top-level attributes.

    Exponential in attribute count (key discovery is NP-hard in general);
    practical for the schema sizes of the paper's setting.  *nonempty*
    selects the gated (Section 3.2) semantics.
    """
    return local_minimal_keys(schema, sigma, Path((relation,)), engine,
                              nonempty=nonempty)


def local_minimal_keys(schema: Schema, sigma: Iterable[NFD], base: Path,
                       engine=None, *,
                       nonempty: NonEmptySpec | None = None) \
        -> list[frozenset[Path]]:
    """Minimal keys at an arbitrary base path (local keys).

    For ``base = Course:students`` this answers "which attribute sets
    identify a student within one course" — e.g. ``{sid}`` under the
    constraint of Example 2.3.

    When *engine* is given (an :class:`ImplicationSession`, or any
    object with its ``schema``, ``tracer`` and ``covers_batch``) its
    Sigma and nonempty spec are authoritative; otherwise a session over
    ``(schema, sigma, nonempty)`` is built.  Each size-level of the
    sweep is answered as one ``covers_batch`` call, so neighbouring
    candidates share their subset closures.
    """
    working = engine if engine is not None \
        else ImplicationSession(schema, sigma, nonempty)
    scope = resolve_base_path(schema, base)
    attributes = [Path((label,)) for label in scope.labels]
    tracer = working.tracer
    if tracer is not None:
        with tracer.span("analysis.keys", base=str(base),
                         attributes=len(attributes)) as span:
            return _sweep(working, base, scope.labels, attributes, span)
    return _sweep(working, base, scope.labels, attributes, None)


def _sweep(working, base, labels, attributes, span):
    keys: list[frozenset[Path]] = []
    targets = [Path((label,)) for label in labels]
    # combos are bitmasks over the attribute list: a found key prunes a
    # combo when its mask is a submask, and only the survivors become
    # path sets (once each)
    key_masks: list[int] = []
    bits = [(1 << index, path) for index, path in enumerate(attributes)]
    for size in range(1, len(attributes) + 1):
        masks: list[int] = []
        candidates: list[frozenset[Path]] = []
        for combo in combinations(bits, size):
            mask = 0
            for bit, _ in combo:
                mask |= bit
            if any(key & mask == key for key in key_masks):
                continue
            masks.append(mask)
            candidates.append(frozenset([path for _, path in combo]))
        if not candidates:
            continue
        if span is not None:
            span.add("candidates", len(candidates))
        verdicts = working.covers_batch(base, candidates, targets)
        for mask, candidate, verdict in zip(masks, candidates, verdicts):
            if verdict:
                keys.append(candidate)
                key_masks.append(mask)
                if span is not None:
                    span.add("keys")
    return sorted(keys, key=lambda key: (len(key), sorted(map(str, key))))
