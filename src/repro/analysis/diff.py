"""Semantic diffing of constraint sets.

When a schema's constraint set evolves, the interesting question is not
which *strings* changed but which *requirements* did: a reformulated NFD
(local vs simple form, shuffled LHS) is no change at all, while dropping
one member may silently weaken several others' consequences.
:func:`diff_sigmas` classifies each member semantically, via the
closure engine:

* ``strengthened`` — new members not implied by the old set: fresh
  requirements existing data may violate;
* ``weakened`` — old members not implied by the new set: guarantees
  downstream consumers may have relied on;
* ``carried`` — members of either set implied by both: no migration
  impact, however they are now spelled.
"""

from __future__ import annotations

from typing import Iterable

from ..inference.empty_sets import NonEmptySpec
from ..inference.closure import ClosureEngine
from ..nfd.nfd import NFD
from ..types.schema import Schema

__all__ = ["SigmaDiff", "diff_sigmas"]


class SigmaDiff:
    """The semantic difference between two constraint sets."""

    __slots__ = ("strengthened", "weakened", "carried", "equivalent")

    def __init__(self, strengthened: list[NFD], weakened: list[NFD],
                 carried: list[NFD]):
        self.strengthened = strengthened
        self.weakened = weakened
        self.carried = carried
        #: True when the two sets imply each other: a pure refactoring.
        self.equivalent = not strengthened and not weakened

    def to_text(self) -> str:
        if self.equivalent:
            return ("the two constraint sets are equivalent "
                    "(pure refactoring)")
        lines: list[str] = []
        if self.strengthened:
            lines.append("new requirements (existing data may violate "
                         "them):")
            lines.extend(f"  + {nfd}" for nfd in self.strengthened)
        if self.weakened:
            lines.append("dropped guarantees (consumers may rely on "
                         "them):")
            lines.extend(f"  - {nfd}" for nfd in self.weakened)
        if self.carried:
            lines.append("carried (implied by both sets):")
            lines.extend(f"    {nfd}" for nfd in self.carried)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"SigmaDiff(+{len(self.strengthened)} "
                f"-{len(self.weakened)} ={len(self.carried)})")


def diff_sigmas(schema: Schema, old: Iterable[NFD], new: Iterable[NFD],
                nonempty: NonEmptySpec | None = None, *,
                old_session: ClosureEngine | None = None,
                new_session: ClosureEngine | None = None) \
        -> SigmaDiff:
    """Classify the semantic difference between *old* and *new*.

    Each side queries its engine twice per member (once for the
    strengthened/weakened scan, once for the carried scan), so the
    second scan reads the closures the engine already holds.  Pass the
    engines as *old_session* / *new_session* to read their statistics
    afterwards.
    """
    old_list = list(old)
    new_list = list(new)
    old_engine = old_session if old_session is not None \
        else ClosureEngine(schema, old_list, nonempty)
    new_engine = new_session if new_session is not None \
        else ClosureEngine(schema, new_list, nonempty)
    strengthened = [nfd for nfd in new_list
                    if not old_engine.implies(nfd)]
    weakened = [nfd for nfd in old_list
                if not new_engine.implies(nfd)]
    carried_candidates = {nfd for nfd in old_list + new_list}
    carried = sorted(
        nfd for nfd in carried_candidates
        if old_engine.implies(nfd) and new_engine.implies(nfd)
    )
    return SigmaDiff(strengthened, weakened, carried)
