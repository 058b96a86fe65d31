"""Convenience API for implication questions.

Thin functional wrappers around :class:`~repro.inference.closure.ClosureEngine`
plus derived notions: equivalence of NFD sets, redundancy, and the set of
all implied dependencies over a bounded syntactic space.
"""

from __future__ import annotations

from typing import Iterable

from ..nfd.nfd import NFD
from ..paths.path import Path
from ..types.schema import Schema
from .closure import ClosureEngine
from .empty_sets import NonEmptySpec

__all__ = [
    "implies",
    "closure",
    "equivalent_sets",
    "redundant_members",
    "implied_keys",
]


def implies(schema: Schema, sigma: Iterable[NFD], nfd: NFD,
            nonempty: NonEmptySpec | None = None) -> bool:
    """Decide ``Sigma |= nfd`` under *schema* (Definition 3.1).

    With the default *nonempty* (everything non-empty) this is the
    Section 3.1 problem; pass an explicit spec for the Section 3.2
    variant.  Build a :class:`ClosureEngine` directly when asking many
    questions against the same ``Sigma``.
    """
    return ClosureEngine(schema, sigma, nonempty).implies(nfd)


def closure(schema: Schema, sigma: Iterable[NFD], base: Path,
            lhs: Iterable[Path],
            nonempty: NonEmptySpec | None = None) -> frozenset[Path]:
    """Compute ``(x0, X, Sigma)*`` relative to *base*."""
    return ClosureEngine(schema, sigma, nonempty).closure(base, lhs)


def equivalent_sets(schema: Schema, sigma1: Iterable[NFD],
                    sigma2: Iterable[NFD],
                    nonempty: NonEmptySpec | None = None) -> bool:
    """True iff the two NFD sets imply each other."""
    first = list(sigma1)
    second = list(sigma2)
    engine1 = ClosureEngine(schema, first, nonempty)
    engine2 = ClosureEngine(schema, second, nonempty)
    return engine1.implies_all(second) and engine2.implies_all(first)


def redundant_members(schema: Schema, sigma: Iterable[NFD],
                      nonempty: NonEmptySpec | None = None) -> list[NFD]:
    """The members of *sigma* implied by the others.

    Note that redundancy is not monotone: removing one redundant member
    can make another non-redundant.  Use
    :func:`repro.analysis.cover.minimal_cover` to actually shrink a set.
    """
    members = list(sigma)
    if not members:
        return []
    engine = ClosureEngine(schema, members, nonempty)
    return [
        candidate
        for index, candidate in enumerate(members)
        if engine.without(index).implies(candidate)
    ]


def implied_keys(schema: Schema, sigma: Iterable[NFD], relation: str,
                 nonempty: NonEmptySpec | None = None) \
        -> list[frozenset[Path]]:
    """All minimal keys of *relation* among its top-level attributes,
    smallest first: :func:`repro.analysis.keys.minimal_keys`."""
    from ..analysis.keys import minimal_keys

    return minimal_keys(schema, sigma, relation, nonempty=nonempty)
