"""Reasoning in the presence of empty sets (Section 3.2).

Empty sets make formulas like ``forall x in R. P(x)`` trivially true, so
transitivity and the prefix rule are unsound in general (Example 3.2).
The paper's remedy — analogous to NON-NULL declarations — is to let the
user declare which set-valued positions are known to be non-empty, and to
gate the two rules on those declarations plus the *follows* relation
(Definition 3.2).

:class:`NonEmptySpec` holds the declarations.  The modified rules:

* **transitivity** — every intermediate path ``p`` not already in ``X``
  must either *follow* the conclusion's RHS ``y`` (so wherever ``y`` is
  defined, ``p`` is too) or be *always defined*: every set the path
  traverses is declared non-empty.  The paper phrases the second
  disjunct as "p is known not to be an empty set"; traversal through
  ``p``'s set-valued proper prefixes is what can actually fail, so that
  is what we require.

* **prefix** — shortening ``x1:A`` to ``x1`` requires the set at ``x1``
  (and at every intermediate shortening result) to be declared non-empty.

Both gated rules coincide with the plain Section 3.1 rules under
:meth:`NonEmptySpec.all_nonempty`, which models the no-empty-sets
assumption.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..errors import RuleApplicationError
from ..nfd.nfd import NFD
from ..paths.path import Path
from ..paths.typing import set_paths
from ..types.schema import Schema
from . import rules

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..values.build import Instance

__all__ = [
    "NonEmptySpec",
    "transitivity_nonempty",
    "prefix_nonempty",
]


class NonEmptySpec:
    """Declarations of set-valued positions known to be non-empty.

    Positions are absolute paths starting with a relation name, e.g.
    ``Course:students``.  The special *all* spec declares every position
    (the Section 3.1 assumption); the empty spec declares none (fully
    pessimistic).
    """

    __slots__ = ("_declared", "_all")

    def __init__(self, declared: Iterable[Path] = (), all_nonempty: bool = False):
        object.__setattr__(self, "_declared", frozenset(declared))
        object.__setattr__(self, "_all", bool(all_nonempty))

    def __setattr__(self, key, value):  # pragma: no cover - immutability
        raise AttributeError("NonEmptySpec is immutable")

    def __reduce__(self):
        # the immutability guard defeats pickle's default slot-state
        # restore, so rebuild through the constructor
        return (NonEmptySpec, (self._declared, self._all))

    @staticmethod
    def all_nonempty() -> "NonEmptySpec":
        """The spec modeling the paper's no-empty-sets assumption."""
        return NonEmptySpec(all_nonempty=True)

    @staticmethod
    def none() -> "NonEmptySpec":
        """No position is known non-empty."""
        return NonEmptySpec()

    @staticmethod
    def for_schema(schema: Schema, except_paths: Iterable[Path] = ()) \
            -> "NonEmptySpec":
        """Declare every set position of *schema* except the given ones.

        Handy for tests that poke a single hole into the no-empty-sets
        assumption.  *except_paths* are absolute (``R:B``) paths.
        """
        excluded = frozenset(except_paths)
        declared: set[Path] = set()
        for relation in schema.relation_names:
            declared.add(Path((relation,)))
            for rel_path in set_paths(schema, relation):
                declared.add(Path((relation,)).concat(rel_path))
        return NonEmptySpec(declared - excluded)

    @property
    def declares_everything(self) -> bool:
        return self._all

    @property
    def declared(self) -> frozenset[Path]:
        return self._declared

    def is_declared(self, relation: str, relative_path: Path) -> bool:
        """Is the set at ``relation:relative_path`` declared non-empty?"""
        if self._all:
            return True
        return Path((relation,)).concat(relative_path) in self._declared

    def always_defined(self, relation: str, path: Path,
                       base_tail: Path | None = None) -> bool:
        """Is *path* guaranteed to be defined on every declared instance?

        True when every set-valued proper prefix the path traverses is
        declared non-empty.  Single labels traverse nothing and are
        always defined.  When the path is relative to a nested base
        ``R:base_tail``, pass *base_tail*: definedness on an element of
        the base set involves only the prefixes *inside* the element, but
        their declared positions are the base-tail-qualified ones.
        """
        if self._all:
            return True
        prefix = base_tail if base_tail is not None else Path(())
        for length in range(1, len(path)):
            if not self.is_declared(relation, prefix.concat(path[:length])):
                return False
        return True

    def admits(self, instance: Instance) -> bool:
        """Does *instance* respect every declaration?

        The empty relation itself counts against a declaration of the
        bare relation name.
        """
        from ..values.inspect import empty_set_positions

        if not self._all and not self._declared:
            return True
        empty_positions = set(empty_set_positions(instance))
        for name, relation_value in instance.relations():
            if relation_value.is_empty:
                empty_positions.add(Path((name,)))
        if self._all:
            return not empty_positions
        return not (empty_positions & self._declared)

    def __repr__(self) -> str:
        if self._all:
            return "NonEmptySpec.all_nonempty()"
        inner = ", ".join(str(path) for path in sorted(self._declared))
        return f"NonEmptySpec({{{inner}}})"


def transitivity_nonempty(premises, bridge: NFD,
                          spec: NonEmptySpec) -> NFD:
    """The Section 3.2 transitivity rule, gated by *spec*.

    In addition to the plain pattern match, every path of the bridge's
    LHS that is not already in the shared LHS ``X`` must follow the
    conclusion's RHS or be always defined under *spec*.
    """
    concluded = rules.transitivity(premises, bridge)
    shared_lhs = concluded.lhs
    relation = concluded.relation
    base_tail = concluded.base.tail
    for intermediate in bridge.lhs - shared_lhs:
        if intermediate.follows(bridge.rhs):
            continue
        if spec.always_defined(relation, intermediate,
                               base_tail=base_tail):
            continue
        raise RuleApplicationError(
            "transitivity (non-empty)",
            f"intermediate {intermediate} neither follows {bridge.rhs} "
            "nor traverses only sets declared non-empty"
        )
    return concluded


def prefix_nonempty(premise: NFD, long_path: Path,
                    spec: NonEmptySpec) -> NFD:
    """The Section 3.2 prefix rule, gated by *spec*.

    Shortening ``x1:A`` to ``x1`` additionally requires the set at ``x1``
    to be declared non-empty.
    """
    concluded = rules.prefix(premise, long_path)
    shortened = long_path.parent
    relation = premise.relation
    absolute = premise.base.tail.concat(shortened)
    if not spec.is_declared(relation, absolute):
        raise RuleApplicationError(
            "prefix (non-empty)",
            f"{shortened} is not declared non-empty; the shortening is "
            "unsound in the presence of empty sets"
        )
    return concluded
