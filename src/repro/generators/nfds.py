"""Random NFDs over a schema.

Used by the property-based tests (soundness/completeness sweeps) and the
scaling benchmarks.  Generation picks a base path (biased toward the
relation name, like most of the paper's examples), then LHS/RHS paths
well-typed for that base.
"""

from __future__ import annotations

import random

from ..inference.armstrong import FD, fd_to_nfd
from ..nfd.nfd import NFD
from ..paths.path import Path
from ..paths.typing import relation_paths, set_paths
from ..types.schema import Schema

__all__ = ["random_nfd", "random_sigma", "random_design_sigma",
           "candidate_paths"]


def candidate_paths(schema: Schema, relation: str,
                    base_tail: Path) -> list[Path]:
    """The non-empty paths usable in an NFD at base ``relation:base_tail``.

    These are the relation's paths that properly extend the base tail,
    re-expressed relative to it.
    """
    result = []
    for path in relation_paths(schema, relation):
        if base_tail.is_proper_prefix_of(path):
            result.append(path.strip_prefix(base_tail))
    return result


class _PathPools:
    """The set paths and NFD path pools of one schema, each computed
    once: :func:`random_sigma` draws many NFDs over the same few bases,
    and rebuilding a pool walks every path of the relation."""

    __slots__ = ("schema", "_nested", "_pools")

    def __init__(self, schema: Schema):
        self.schema = schema
        self._nested: dict[str, list[Path]] = {}
        self._pools: dict[tuple[str, Path], list[Path]] = {}

    def nested(self, relation: str) -> list[Path]:
        paths = self._nested.get(relation)
        if paths is None:
            paths = self._nested[relation] = set_paths(self.schema,
                                                       relation)
        return paths

    def pool(self, relation: str, base_tail: Path) -> list[Path]:
        paths = self._pools.get((relation, base_tail))
        if paths is None:
            paths = self._pools[relation, base_tail] = candidate_paths(
                self.schema, relation, base_tail)
        return paths


def random_nfd(rng: random.Random, schema: Schema,
               relation: str | None = None,
               max_lhs: int = 3,
               local_probability: float = 0.3,
               allow_degenerate: bool = True) -> NFD:
    """One random well-formed NFD.

    With probability *local_probability* the base descends into a random
    set-valued path (a local dependency); otherwise the base is the bare
    relation name (a global dependency).
    """
    return _draw_nfd(rng, _PathPools(schema), relation, max_lhs,
                     local_probability, allow_degenerate)


def _draw_nfd(rng: random.Random, pools: _PathPools,
              relation: str | None, max_lhs: int,
              local_probability: float, allow_degenerate: bool) -> NFD:
    name = relation if relation is not None \
        else rng.choice(pools.schema.relation_names)
    base_tail = Path(())
    if rng.random() < local_probability:
        nested = pools.nested(name)
        if nested:
            base_tail = rng.choice(nested)
    pool = pools.pool(name, base_tail)
    if not pool:
        # The chosen base scopes no paths (cannot happen for the bare
        # relation of a non-trivial schema); fall back to global.
        base_tail = Path(())
        pool = pools.pool(name, base_tail)
    rhs = rng.choice(pool)
    low = 0 if allow_degenerate else 1
    lhs_size = min(rng.randint(low, max_lhs), len(pool))
    lhs = rng.sample(pool, lhs_size) if lhs_size else []
    return NFD(Path((name,)).concat(base_tail), lhs, rhs)


def random_design_sigma(rng: random.Random, schema: Schema,
                        relation: str | None = None, *,
                        max_group: int = 3,
                        fallback_count: int = 3) -> list[NFD]:
    """Flat FDs in the shape 3NF synthesis rewards.

    One *anchor* attribute functionally determines a few top-level
    attributes (``anchor -> t``); the remaining attributes split into
    groups hanging off the anchor plus a per-group key
    (``anchor, z -> w`` — partial dependencies, the classical
    normalization trigger).  This is the Course/enrollment shape of the
    paper's running example: the normalization sweep uses it so nest
    plans have genuine redundancy to remove.  Schemas too small to
    carry the shape (< 4 attributes) fall back to *fallback_count*
    members of :func:`random_sigma`.
    """
    name = relation if relation is not None \
        else rng.choice(schema.relation_names)
    attributes = [label for label, _ in schema.element_type(name).fields]
    if len(attributes) < 4:
        return random_sigma(rng, schema, fallback_count,
                            local_probability=0.0)
    shuffled = rng.sample(attributes, len(attributes))
    anchor = shuffled[0]
    top_count = rng.randint(1, max(1, len(shuffled) - 3))
    top, remainder = shuffled[1:1 + top_count], shuffled[1 + top_count:]
    fds = [FD({anchor}, attribute) for attribute in top]
    while remainder:
        size = min(len(remainder), rng.randint(2, max(2, max_group)))
        group, remainder = remainder[:size], remainder[size:]
        if len(group) == 1:
            # a leftover singleton cannot form a group; determine it
            # from the anchor like a top attribute
            fds.append(FD({anchor}, group[0]))
            continue
        group_key = group[0]
        fds.extend(FD({anchor, group_key}, dependent)
                   for dependent in group[1:])
    return [fd_to_nfd(name, fd) for fd in fds]


def random_sigma(rng: random.Random, schema: Schema, count: int,
                 max_lhs: int = 3, local_probability: float = 0.3,
                 allow_degenerate: bool = False) -> list[NFD]:
    """A list of *count* random NFDs (duplicates filtered, best effort).

    Draws exactly what repeated :func:`random_nfd` calls draw; the path
    pools are computed once per ``(relation, base)`` instead of once
    per draw."""
    pools = _PathPools(schema)
    seen: set[NFD] = set()
    result: list[NFD] = []
    attempts = 0
    while len(result) < count and attempts < count * 20:
        attempts += 1
        nfd = _draw_nfd(rng, pools, None, max_lhs, local_probability,
                        allow_degenerate)
        if nfd in seen or nfd.is_trivial():
            continue
        seen.add(nfd)
        result.append(nfd)
    return result
