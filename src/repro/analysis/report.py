"""Constraint-set analysis reports.

One call summarizes everything the library can derive about a
``(schema, Sigma)`` pair: per-relation minimal keys, implied singleton
sets, equal-or-disjoint sets, trivial and redundant members, and a
minimal cover.  Backing for the CLI's ``analyze`` command and a handy
overview for humans adopting a constraint set.
"""

from __future__ import annotations

from typing import Iterable

from ..inference.empty_sets import NonEmptySpec
from ..inference.closure import ClosureEngine
from ..nfd.nfd import NFD
from ..paths.path import Path
from ..paths.typing import set_paths
from ..types.schema import Schema
from .cover import non_redundant
from .keys import minimal_keys
from .singletons import implied_disjoint_or_equal, implied_singletons

__all__ = ["ConstraintReport", "analyze_constraints"]


class ConstraintReport:
    """The findings for one schema + NFD set."""

    __slots__ = ("schema", "sigma", "keys", "singletons",
                 "disjoint_or_equal", "trivial", "redundant", "cover")

    def __init__(self, schema: Schema, sigma: list[NFD],
                 keys: dict[str, list[frozenset[Path]]],
                 singletons: dict[str, list[Path]],
                 disjoint_or_equal: dict[str, list[Path]],
                 trivial: list[NFD], redundant: list[NFD],
                 cover: list[NFD]):
        self.schema = schema
        self.sigma = sigma
        self.keys = keys
        self.singletons = singletons
        self.disjoint_or_equal = disjoint_or_equal
        self.trivial = trivial
        self.redundant = redundant
        self.cover = cover

    def to_text(self) -> str:
        lines: list[str] = []
        lines.append(f"constraints: {len(self.sigma)}")
        for relation in self.schema.relation_names:
            lines.append(f"relation {relation}:")
            keys = self.keys.get(relation, [])
            if keys:
                rendered = ", ".join(
                    "{" + ", ".join(sorted(map(str, key))) + "}"
                    for key in keys
                )
                lines.append(f"  minimal keys: {rendered}")
            else:
                lines.append("  minimal keys: none among top-level "
                             "attributes")
            singles = self.singletons.get(relation, [])
            if singles:
                lines.append(
                    "  singleton sets: " +
                    ", ".join(str(p) for p in singles))
            disjoint = self.disjoint_or_equal.get(relation, [])
            if disjoint:
                lines.append(
                    "  equal-or-disjoint sets: " +
                    ", ".join(str(p) for p in disjoint))
        if self.trivial:
            lines.append("trivial members:")
            lines.extend(f"  {nfd}" for nfd in self.trivial)
        if self.redundant:
            lines.append("redundant members (implied by the others):")
            lines.extend(f"  {nfd}" for nfd in self.redundant)
        lines.append(f"minimal cover ({len(self.cover)} of "
                     f"{len(self.sigma)}):")
        lines.extend(f"  {nfd}" for nfd in self.cover)
        return "\n".join(lines)


def analyze_constraints(schema: Schema, sigma: Iterable[NFD],
                        nonempty: NonEmptySpec | None = None, *,
                        session: ClosureEngine | None = None) \
        -> ConstraintReport:
    """Run every analysis over the constraint set; see
    :class:`ConstraintReport`.

    All sub-analyses share one :class:`ClosureEngine` (pass it as
    *session* to reuse an existing one and read its statistics
    afterwards): the key sweeps, singleton probes, redundancy scan, and
    cover all draw on the same held closures and compiled pool.
    """
    sigma_list = list(sigma)
    engine = session if session is not None \
        else ClosureEngine(schema, sigma_list, nonempty)

    keys: dict[str, list[frozenset[Path]]] = {}
    singletons: dict[str, list[Path]] = {}
    disjoint: dict[str, list[Path]] = {}
    for relation in schema.relation_names:
        keys[relation] = minimal_keys(schema, sigma_list, relation,
                                      engine=engine)
        singletons[relation] = implied_singletons(
            schema, sigma_list, relation, engine=engine)
        base = Path((relation,))
        disjoint[relation] = [
            p for p in set_paths(schema, relation)
            if implied_disjoint_or_equal(engine, base, p)
        ]

    trivial = [nfd for nfd in sigma_list if nfd.is_trivial()]
    redundant = [
        sigma_list[index]
        for index in range(len(sigma_list))
        if engine.without(index).implies(sigma_list[index])
    ]
    cover = non_redundant(schema, sigma_list, nonempty, session=engine)
    return ConstraintReport(schema, sigma_list, keys, singletons,
                            disjoint, trivial, redundant, cover)
