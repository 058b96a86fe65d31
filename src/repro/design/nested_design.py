"""Nesting plans: designing a nested schema from a flat one.

A :class:`NestPlan` is a sequence of nest operations applied to a flat
relation.  The planner tracks, for every original attribute, the path it
ends up at, translates the flat FDs into NFDs over the final nested
schema (exactly — see :mod:`repro.analysis.carryover`), and classifies
each dependency as *intra-set* (all paths inside one set), *inter-set*
(spanning nesting levels), or *top-level* (untouched by the plan) —
systematizing the case analysis of Fischer et al. that Section 4
discusses.

Two further analyses make the report actionable:

* :meth:`PlanReport.structural_nfds` — nesting itself induces
  constraints: each nest step groups by the remaining attributes, so
  those attributes jointly determine the new set (one tuple per group);
* :meth:`PlanReport.locally_enforceable` — whether checking a carried
  NFD *per base set* (its pulled-out local form) suffices, given the
  other carried and structural constraints; decided with the closure
  engine.  This is where Fischer et al.'s singleton-set case analyses
  reappear as implication queries.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import InferenceError
from ..inference.armstrong import FD
from ..nfd.nfd import NFD
from ..paths.path import Path, common_prefix
from ..types.base import SetType
from ..types.schema import Schema
from ..values.build import Instance
from ..values.restructure import nest, nest_type
from ..values.value import SetValue

__all__ = ["NestPlan", "PlanReport", "DependencyPlacement"]


class DependencyPlacement:
    """Where one flat FD lives in the nested design."""

    __slots__ = ("fd", "nfd", "kind", "local_base")

    INTRA = "intra-set"
    INTER = "inter-set"
    TOP = "top-level"

    def __init__(self, fd: FD, nfd: NFD, kind: str,
                 local_base: Path | None):
        self.fd = fd
        self.nfd = nfd
        self.kind = kind
        #: For intra-set dependencies: the base path of the equivalent
        #: local NFD form (None otherwise).
        self.local_base = local_base

    def __repr__(self) -> str:
        return f"DependencyPlacement({self.fd} -> {self.nfd}, " \
            f"{self.kind})"


class PlanReport:
    """The outcome of applying a plan: schema, NFDs, classification."""

    __slots__ = ("schema", "placements", "_structural")

    def __init__(self, schema: Schema,
                 placements: list[DependencyPlacement],
                 structural: list[NFD]):
        self.schema = schema
        self.placements = placements
        self._structural = structural

    def nfds(self) -> list[NFD]:
        return [placement.nfd for placement in self.placements]

    def structural_nfds(self) -> list[NFD]:
        """The constraints nesting induces by construction.

        Each nest step groups on the attributes it leaves in place, so
        in the nested instance those attributes jointly determine the
        new set attribute — one NFD per step, expressed over the final
        schema.  These hold on *every* output of the plan regardless of
        the flat FDs, and they are what makes some carried dependencies
        locally enforceable.
        """
        return list(self._structural)

    def all_nfds(self) -> list[NFD]:
        return self.nfds() + self.structural_nfds()

    def by_kind(self, kind: str) -> list[DependencyPlacement]:
        return [p for p in self.placements if p.kind == kind]

    def local_form(self, placement: DependencyPlacement) -> NFD | None:
        """The per-set (local NFD) form of a carried dependency.

        Localizes at the common set prefix of the dependency's nested
        paths, dropping top-level LHS labels the way the paper's
        locality rule does (they are constant within one tuple).
        Returns None when no local form exists: the RHS is top-level,
        or some LHS path is nested *outside* the RHS's set.
        """
        nfd = placement.nfd
        if len(nfd.rhs) < 2:
            return None
        deep_paths = [p for p in nfd.all_paths if len(p) >= 2]
        shared: Path | None = None
        for p in deep_paths:
            shared = p.parent if shared is None else \
                common_prefix(shared, p.parent)
        if shared is None or shared.is_empty:
            return None
        if not all(len(shared) < len(p) for p in deep_paths):
            return None  # some deep path escapes the shared set
        inner_lhs = {
            p.strip_prefix(shared) for p in nfd.lhs if len(p) >= 2
        }
        return NFD(nfd.base.concat(shared), inner_lhs,
                   nfd.rhs.strip_prefix(shared))

    def make_session(self, nonempty=None, *, tracer=None):
        """An :class:`~repro.inference.session.ImplicationSession` over
        ``all_nfds()`` (carried NFDs in placement order, then the
        structural ones) — the layout :meth:`locally_enforceable`
        expects when given a *session*, so one compiled Sigma pool
        serves every per-placement probe via copy-on-write."""
        from ..inference.session import ImplicationSession

        return ImplicationSession(self.schema, self.all_nfds(), nonempty,
                                  tracer=tracer)

    def locally_enforceable(self, placement: DependencyPlacement, *,
                            session=None) -> bool:
        """Can this dependency be checked one base set at a time?

        True when replacing the carried (global) NFD by its local form
        still implies the global one, given the other carried NFDs plus
        the structural constraints.  Top-level dependencies are
        trivially local; a purely inter-set dependency like
        ``sid -> age`` (nothing pins the set) is not.

        Each probe is a copy-on-write
        :meth:`~repro.inference.session.ImplicationSession.replaced`
        perturbation of one compiled pool; pass *session* (from
        :meth:`make_session`) to share that pool across placements.
        """
        if placement.kind == DependencyPlacement.TOP:
            return True
        local = self.local_form(placement)
        if local is None:
            return False
        if session is None:
            session = self.make_session()
        index = self.placements.index(placement)
        return session.replaced(index, local).implies(placement.nfd)

    def to_text(self) -> str:
        lines = []
        session = self.make_session()
        for placement in self.placements:
            local = " (locally enforceable)" \
                if self.locally_enforceable(placement, session=session) \
                else ""
            lines.append(
                f"{placement.fd}  ~>  {placement.nfd}  "
                f"[{placement.kind}]{local}"
            )
        for nfd in self.structural_nfds():
            lines.append(f"(structural)  {nfd}")
        return "\n".join(lines)


class NestPlan:
    """An ordered sequence of nest operations on a flat relation.

    Example — build the Course shape from a flat enrollment feed::

        plan = NestPlan("Course", ["cnum", "time", "sid", "grade"])
        plan.nest("students", ["sid", "grade"])

    Steps apply in order; a later step may nest a set attribute created
    by an earlier one (producing depth > 2 schemas).
    """

    def __init__(self, relation: str, attributes: Sequence[str]):
        self.relation = relation
        self.attributes = tuple(dict.fromkeys(attributes))
        if len(self.attributes) != len(tuple(attributes)):
            raise InferenceError("flat attributes must be unique")
        self.steps: list[tuple[str, tuple[str, ...]]] = []

    def nest(self, new_label: str, nested: Iterable[str]) -> "NestPlan":
        """Append one nest step; returns self for chaining."""
        self.steps.append((new_label, tuple(nested)))
        return self

    # -- application -------------------------------------------------------

    def apply_type(self, flat_type: SetType) -> SetType:
        current = flat_type
        for new_label, nested in self.steps:
            current = nest_type(current, new_label, nested)
        return current

    def apply_value(self, relation_value: SetValue) -> SetValue:
        current = relation_value
        for new_label, nested in self.steps:
            current = nest(current, new_label, nested)
        return current

    def apply_instance(self, flat: Instance) -> Instance:
        """Nest the plan's relation of a flat instance."""
        flat_type = flat.schema.relation_type(self.relation)
        nested_type = self.apply_type(flat_type)
        relations = {
            name: rel_type
            for name, rel_type in flat.schema.items()
        }
        relations[self.relation] = nested_type
        nested_schema = Schema(relations)
        values = {name: value for name, value in flat.relations()}
        values[self.relation] = self.apply_value(
            flat.relation(self.relation))
        return Instance(nested_schema, values)

    # -- attribute tracking --------------------------------------------------

    def _tracked(self) -> tuple[dict[str, Path],
                                list[tuple[frozenset[str], str]]]:
        """Final paths of every name (attributes and created labels),
        plus each step's grouping names."""
        paths = {attribute: Path((attribute,))
                 for attribute in self.attributes}
        top: set[str] = set(self.attributes)
        groupings: list[tuple[frozenset[str], str]] = []
        for new_label, nested in self.steps:
            nested_set = set(nested)
            unknown = nested_set - top
            if unknown:
                raise InferenceError(
                    f"nest step {new_label!r} references "
                    f"{sorted(unknown)}, which are not top-level at "
                    "that point in the plan"
                )
            if new_label in paths:
                raise InferenceError(
                    f"nest step label {new_label!r} is already in use"
                )
            groupings.append((frozenset(top - nested_set), new_label))
            prefix = Path((new_label,))
            for name, path in paths.items():
                if path.first in nested_set:
                    paths[name] = prefix.concat(path)
            paths[new_label] = prefix
            top -= nested_set
            top.add(new_label)
        return paths, groupings

    def attribute_paths(self) -> dict[str, Path]:
        """The final path of every original attribute."""
        paths, _ = self._tracked()
        return {attribute: paths[attribute]
                for attribute in self.attributes}

    # -- reporting -------------------------------------------------------------

    def report(self, flat_type: SetType, fds: Iterable[FD]) -> PlanReport:
        """Translate and classify every flat FD under this plan."""
        nested_type = self.apply_type(flat_type)
        schema = Schema({self.relation: nested_type})
        all_paths, groupings = self._tracked()
        paths = {attribute: all_paths[attribute]
                 for attribute in self.attributes}
        placements: list[DependencyPlacement] = []
        base = Path((self.relation,))
        structural = [
            NFD(base, {all_paths[name] for name in grouping},
                all_paths[new_label])
            for grouping, new_label in groupings
            if grouping
        ]
        for fd in fds:
            for attribute in fd.lhs | {fd.rhs}:
                if attribute not in paths:
                    raise InferenceError(
                        f"FD {fd} mentions unknown attribute "
                        f"{attribute!r}"
                    )
            lhs_paths = {paths[a] for a in fd.lhs}
            rhs_path = paths[fd.rhs]
            nfd = NFD(base, lhs_paths, rhs_path)
            all_paths = lhs_paths | {rhs_path}
            if all(len(p) == 1 for p in all_paths):
                kind = DependencyPlacement.TOP
                local_base = None
            else:
                shared = None
                for p in all_paths:
                    shared = p.parent if shared is None else \
                        common_prefix(shared, p.parent)
                if shared and len(shared) >= 1 and \
                        all(len(p) > len(shared) for p in all_paths):
                    kind = DependencyPlacement.INTRA
                    local_base = base.concat(shared)
                else:
                    kind = DependencyPlacement.INTER
                    local_base = None
            placements.append(
                DependencyPlacement(fd, nfd, kind, local_base))
        return PlanReport(schema, placements, structural)
