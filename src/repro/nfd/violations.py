"""Violation witnesses: *why* an instance fails an NFD.

:func:`find_violation` returns the first witness found;
:func:`find_violations` enumerates all of them (useful for constraint
repair and for the warehouse-integration example).  A witness pins down
the base-set binding, the two compared elements, the agreeing LHS values,
and the two differing RHS values — enough for a human to audit the claim
and for tests to assert precisely which rows clash.

Both functions ride :class:`repro.nfd.batch_validate.ValidatorEngine`
(hash-group tables, one witness per conflicting antecedent key per base
set), so enumeration is one linear pass instead of the quadratic
pairwise scan of :mod:`repro.nfd.satisfy`.
The engine import is deferred to call time because ``batch_validate``
itself imports :class:`Violation` from this module.
"""

from __future__ import annotations

from typing import Iterator

from ..values.build import Instance
from ..values.value import Record, Value
from .nfd import NFD

__all__ = ["Violation", "find_violation", "find_violations"]


class Violation:
    """A single witness that an instance violates an NFD."""

    __slots__ = ("nfd", "base_index", "element1", "element2",
                 "lhs_values", "rhs_value1", "rhs_value2")

    def __init__(self, nfd: NFD, base_index: int, element1: Record,
                 element2: Record, lhs_values: tuple[Value, ...],
                 rhs_value1: Value, rhs_value2: Value):
        self.nfd = nfd
        #: Index of the base set (in base-chain enumeration order) in
        #: which the clash occurs; 0 for simple NFDs.
        self.base_index = base_index
        self.element1 = element1
        self.element2 = element2
        #: The agreed values of the (sorted) LHS paths.
        self.lhs_values = lhs_values
        self.rhs_value1 = rhs_value1
        self.rhs_value2 = rhs_value2

    def describe(self) -> str:
        """A human-readable account of the clash."""
        lhs_paths = self.nfd.sorted_lhs()
        agreed = ", ".join(
            f"{path} = {value}"
            for path, value in zip(lhs_paths, self.lhs_values)
        ) or "(empty antecedent)"
        return (
            f"violation of {self.nfd}:\n"
            f"  antecedent: {agreed}\n"
            f"  but {self.nfd.rhs} = {self.rhs_value1} in one binding and "
            f"{self.rhs_value2} in another\n"
            f"  elements: {self.element1}\n"
            f"         vs {self.element2}"
        )

    def __repr__(self) -> str:
        return (f"Violation(nfd={self.nfd}, rhs {self.rhs_value1} != "
                f"{self.rhs_value2})")


def find_violations(instance: Instance, nfd: NFD) -> Iterator[Violation]:
    """Yield every violation witness, grouped per base set.

    Within one base set, each conflicting antecedent key yields one
    witness (the first clashing RHS pair discovered for that key, to keep
    the output proportional to the number of distinct problems rather
    than quadratic in duplicates).  Output order is deterministic: base
    sets in base-chain enumeration order, keys in discovery order within
    each base set.
    """
    from .batch_validate import ValidatorEngine

    engine = ValidatorEngine(instance.schema, (nfd,))
    yield from engine.validate(instance, all_violations=True).violations


def find_violation(instance: Instance, nfd: NFD) -> Violation | None:
    """Return the first violation witness, or None if the NFD holds.

    Short-circuits: the underlying engine stops walking as soon as one
    disagreement for *nfd* is found.
    """
    from .batch_validate import ValidatorEngine

    engine = ValidatorEngine(instance.schema, (nfd,))
    result = engine.validate(instance)
    return result.violations[0] if result.violations else None
