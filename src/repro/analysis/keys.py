"""Key discovery for nested relations.

The introduction's first constraint ("cnum is a key") is the conjunction
of one NFD per sibling attribute.  This module finds minimal keys — both
at the top level of a relation and locally inside any set-valued path —
by querying the closure engine, and offers the converse construction:
the NFDs declaring a chosen key.

The combination sweep is the library's heaviest query stream: adjacent
combinations share most of their members, so it runs through one
:class:`~repro.inference.closure.ClosureEngine`, one
:meth:`~repro.inference.closure.ClosureEngine.covers_batch` per
size-level.  The sweep is indexed by masks: each combination is a
bitmask over the scope's attributes, a found key prunes every
combination it is a submask of, and only the survivors are built as
path sets, once each; the engine then seeds each candidate from its
drop-one subqueries through a ``keymask -> key`` index.  Each
size-level is one batch in one process: a process fan-out answered one
``is_key`` per candidate and lost to the batched sweep at every
measured width.

Before a level would ask more candidates than the scope has
attributes, the sweep finds the *core*, the attributes every key holds
(Lucchesi & Osborn 1978): one batch of drop-one probes ``U - {A}``,
and ``A`` is in the core iff its probe is no key.  From then on a
level enumerates only ``core + S`` for ``S`` over the other
attributes, so the cost is exponential in the non-core attributes
alone; a sweep whose pruned levels are never wider than the scope (the
paper's four-attribute Course) never probes.  A level left empty by
pruning ends the sweep: every larger combination holds one of its
pruned ones.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from ..inference.empty_sets import NonEmptySpec
from ..inference.closure import ClosureEngine
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
    determined.  *engine* is a :class:`ClosureEngine` (anything with
    ``schema``/``closure``).
    """
    scope = resolve_base_path(engine.schema, base)
    closed = engine.closure(base, candidate)
    return all(Path((label,)) in closed for label in scope.labels)


def minimal_keys(schema: Schema, sigma: Iterable[NFD], relation: str,
                 engine=None, *, nonempty: NonEmptySpec | None = None) \
        -> list[frozenset[Path]]:
    """All minimal keys of *relation* over its top-level attributes.

    Exponential in the attributes outside the core, the attributes
    every key holds (key discovery is NP-hard in general); practical
    for the schema sizes of the paper's setting.  *nonempty* selects
    the gated (Section 3.2) semantics.
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

    When *engine* is given (a :class:`ClosureEngine`, or any object
    with its ``tracer`` and ``covers_batch``) its Sigma and nonempty
    spec are authoritative; otherwise an engine over ``(schema, sigma,
    nonempty)`` is built.  Each size-level of the
    sweep, and the core's drop-one probes, is answered as one
    ``covers_batch`` call, so neighbouring candidates share their
    subset closures.
    """
    working = engine if engine is not None \
        else ClosureEngine(schema, sigma, nonempty)
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
    # the core is found once a level would be wider than the scope;
    # from then on a level is the core plus combos of the free rest
    core: list[tuple[int, Path]] | None = None
    free = bits
    for size in range(1, len(bits) + 1):
        level = _level(core or [], free, size, key_masks)
        if core is None and len(level) > len(bits):
            core = _core(working, base, bits, targets, span)
            free = [pair for pair in bits if pair not in core]
            level = _level(core, free, size, key_masks)
        if not level:
            if size < len(core or ()):
                continue
            break   # every larger combo holds a pruned one of this size
        if span is not None:
            span.add("candidates", len(level))
        verdicts = working.covers_batch(
            base, [candidate for _, candidate in level], targets)
        for (mask, candidate), verdict in zip(level, verdicts):
            if verdict:
                keys.append(candidate)
                key_masks.append(mask)
                if span is not None:
                    span.add("keys")
    return sorted(keys, key=lambda key: (len(key), sorted(map(str, key))))


def _level(core, free, size, key_masks):
    """The ``(mask, path set)`` candidates of one size-level: *core*
    plus ``size - len(core)`` members of *free*, minus every superset
    of a found key."""
    if size < len(core):
        return []
    core_mask = 0
    for bit, _ in core:
        core_mask |= bit
    level = []
    for combo in combinations(free, size - len(core)):
        mask = core_mask
        for bit, _ in combo:
            mask |= bit
        if any(key & mask == key for key in key_masks):
            continue
        level.append((mask, frozenset(
            [path for _, path in core] + [path for _, path in combo])))
    return level


def _core(working, base, bits, targets, span):
    """The attributes every key holds, from one batch of drop-one
    probes: ``A`` belongs to every key iff ``U - {A}`` is no key, since
    a key inside ``U - {A}`` would make it one and, by monotonicity of
    the closure, no subset of a non-key is a key (Lucchesi & Osborn
    1978)."""
    probes = [frozenset([path for other, path in bits if other != bit])
              for bit, _ in bits]
    if span is not None:
        span.add("probes", len(probes))
    verdicts = working.covers_batch(base, probes, targets)
    return [pair for pair, verdict in zip(bits, verdicts) if not verdict]
