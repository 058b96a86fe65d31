"""Single-pass batch validation: one walk per relation for a whole Σ.

Every checker in the repo ultimately evaluates Definition 2.4, and the
naive way to validate a set Σ of NFDs is to traverse the instance once
per dependency (a one-member engine per NFD, in a loop).  On a
production validation path that repeats the expensive part —
navigating base sets and enumerating bindings — |Σ| times, even
though the dependencies overwhelmingly share base paths, traversed
prefixes, and leaf paths.

:class:`ValidatorEngine` compiles, per relation, a **path-trie plan**:

* a *scope tree* merging the base paths of every NFD on the relation,
  so nested base sets are enumerated once no matter how many
  dependencies anchor below a shared prefix;
* at each anchor (distinct base path), a *binding trie* — the union of
  all traversed set-valued prefixes and all LHS/RHS leaf paths of the
  NFDs anchored there, deduplicated node by node.

Validation then walks each relation **once**: every base-set element is
navigated a single time, the binding trie is materialized into per-branch
row tables, and each NFD's ``(antecedent key, RHS value)`` bindings are
projected out of the shared rows and emitted into that NFD's hash-group
table.  The first disagreement per NFD (or per antecedent key, in
exhaustive mode) is materialized as a structured
:class:`~repro.nfd.violations.Violation`, so ``check``,
``find_violations``, and batch satisfaction all ride the same engine.

Definition 2.4's escape clause is honoured exactly as in
:mod:`repro.nfd.satisfy`: while building the row tables the engine
records which leaf paths ran into an empty set, and an NFD simply skips
any base element on which one of *its own* paths is undefined.  Within
the shared rows, positions under an empty set hold an ``undefined``
sentinel that no active NFD ever projects.

:class:`ValidatorStats` mirrors the closure engine's
:class:`~repro.inference.EngineStats`: elements walked, bindings
emitted, trie size, and per-NFD hash-group counts, so the single-pass
claim is measurable (see ``benchmarks/bench_batch_validate.py``).
"""

from __future__ import annotations

import time
from itertools import chain, product
from typing import Iterable, Iterator, Sequence

from ..errors import PathError
from ..obs.report import Stats
from ..paths.path import Path
from ..types.schema import Schema
from ..values.build import Instance
from ..values.value import Record, SetValue, Value
from .nfd import NFD
from .violations import Violation

__all__ = ["ValidatorEngine", "ValidatorStats", "ValidationResult"]


class _Undefined:
    """Sentinel for a leaf below an empty set (Definition 2.4's escape)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<undefined>"


_UNDEFINED = _Undefined()


class ValidatorStats(Stats):
    """A snapshot of the validation engine's counters.

    Totals accumulate across every validation (and per-row query) the
    engine has served; ``trie_nodes`` is fixed at compile time.

    * ``validations`` — calls to :meth:`ValidatorEngine.validate`;
    * ``elements_walked`` — set elements navigated: base-chain descents,
      base-set elements, and binding-trie traversals all count once;
    * ``bindings_emitted`` — ``(key, rhs)`` pairs probed into hash-group
      tables;
    * ``base_sets`` — base sets opened (one per anchor binding);
    * ``trie_nodes`` — compiled plan size: scope-tree plus binding-trie
      nodes across all relations;
    * ``plan_compilations`` — how many times this engine compiled its
      plans: always 1, since plans are compiled once in the
      constructor (summed over engines, it counts engine builds);
    * ``groups`` — distinct antecedent keys seen per NFD;
    * ``wall_time`` — seconds spent inside validation walks.
    """

    __slots__ = ("validations", "elements_walked", "bindings_emitted",
                 "base_sets", "trie_nodes", "plan_compilations", "groups",
                 "wall_time")
    STATE = ("trie_nodes", "plan_compilations")
    TEXT = ("validator stats (single-pass batch engine):",
            "  validations: {validations}  trie nodes: {trie_nodes}  "
            "plan compilations: {plan_compilations}",
            "  elements walked: {elements_walked}  "
            "base sets: {base_sets}",
            "  bindings emitted: {bindings_emitted}",
            "  validation wall time: {wall_time:.6f}s")

    def _extra_lines(self) -> list[str]:
        return [f"  {name}: {self.groups[name]} group(s)"
                for name in sorted(self.groups)]


class ValidationResult:
    """The outcome of one engine pass over an instance.

    ``violations`` is ordered deterministically: by the violated NFD's
    position in Σ, then by base-set order, then by discovery order
    within the walk.
    """

    __slots__ = ("ok", "violations")

    def __init__(self, ok: bool, violations: tuple[Violation, ...]):
        self.ok = ok
        self.violations = violations

    @property
    def failed(self) -> tuple[NFD, ...]:
        """The violated NFDs, deduplicated, in Σ order."""
        seen: dict[NFD, None] = {}
        for violation in self.violations:
            seen.setdefault(violation.nfd, None)
        return tuple(seen)

    def by_nfd(self) -> dict[NFD, list[Violation]]:
        """Violations grouped by NFD (violated NFDs only)."""
        grouped: dict[NFD, list[Violation]] = {}
        for violation in self.violations:
            grouped.setdefault(violation.nfd, []).append(violation)
        return grouped

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return (f"ValidationResult(ok={self.ok}, "
                f"violations={len(self.violations)})")


# ---------------------------------------------------------------- plans


class _TrieNode:
    """One node of an anchor's binding trie (a relative path position).

    ``is_leaf`` marks an LHS/RHS path ending here (its value is
    collected); a node with children is a set-valued position whose
    elements are traversed.  A node can be both — a path may end at a
    set that other paths traverse into.
    """

    __slots__ = ("path", "label", "is_leaf", "children", "child_list",
                 "below_width", "sub_leaves")

    def __init__(self, path: Path, label: str):
        self.path = path
        self.label = label
        self.is_leaf = False
        self.children: dict[str, _TrieNode] = {}
        self.child_list: tuple[_TrieNode, ...] = ()
        self.below_width = 0
        self.sub_leaves: tuple[Path, ...] = ()

    def finalize(self) -> tuple[int, list[Path]]:
        """Freeze child order; return (row width, leaf slots in order).

        Leaf slots are assigned depth-first — own leaf first, then
        children in label order — so every subtree owns a contiguous
        slot range and rows compose by tuple concatenation.
        """
        self.child_list = tuple(
            self.children[label] for label in sorted(self.children))
        slots: list[Path] = [self.path] if self.is_leaf else []
        below: list[Path] = []
        for child in self.child_list:
            child_width, child_slots = child.finalize()
            below.extend(child_slots)
        self.below_width = len(below)
        self.sub_leaves = tuple(below)
        slots.extend(below)
        return len(slots), slots

    def node_count(self) -> int:
        return 1 + sum(child.node_count() for child in self.child_list)


class _PlanExec:
    """Compiled evaluation data for one NFD at its anchor.

    ``branch_proj`` lists, per top-level branch the NFD touches, the
    branch's position in the anchor's branch list and the slot indices
    of the NFD's leaf paths inside that branch's rows.  ``lhs_pos`` and
    ``rhs_pos`` address the concatenation of those projections.
    """

    __slots__ = ("nfd", "index", "paths", "branch_proj", "lhs_pos",
                 "rhs_pos")

    def __init__(self, nfd: NFD, index: int,
                 branches: Sequence[_TrieNode],
                 branch_slots: dict[str, list[Path]]):
        self.nfd = nfd
        self.index = index
        self.paths = tuple(sorted(nfd.all_paths))
        by_branch: dict[str, list[Path]] = {}
        for path in self.paths:
            by_branch.setdefault(path.first, []).append(path)
        branch_pos = {node.label: pos for pos, node in enumerate(branches)}
        proj: list[tuple[int, tuple[int, ...]]] = []
        flat_pos: dict[Path, int] = {}
        offset = 0
        for label in sorted(by_branch):
            slots = branch_slots[label]
            indices = []
            for path in by_branch[label]:
                indices.append(slots.index(path))
                flat_pos[path] = offset
                offset += 1
            proj.append((branch_pos[label], tuple(indices)))
        self.branch_proj = tuple(proj)
        self.lhs_pos = tuple(flat_pos[p] for p in nfd.sorted_lhs())
        self.rhs_pos = flat_pos[nfd.rhs]


class _Anchor:
    """All NFDs sharing one base path, with their merged binding trie."""

    __slots__ = ("base", "plans", "branches", "branch_slots")

    def __init__(self, base: Path, indexed_nfds: list[tuple[int, NFD]]):
        self.base = base
        # Merge every traversed prefix and leaf path into one trie.
        roots: dict[str, _TrieNode] = {}
        for _, nfd in indexed_nfds:
            for path in nfd.all_paths:
                node = roots.get(path.first)
                if node is None:
                    node = roots[path.first] = _TrieNode(
                        Path((path.first,)), path.first)
                for depth in range(2, len(path) + 1):
                    prefix = path[:depth]
                    child = node.children.get(prefix.last)
                    if child is None:
                        child = node.children[prefix.last] = \
                            _TrieNode(prefix, prefix.last)
                    node = child
                node.is_leaf = True
        self.branches = tuple(roots[label] for label in sorted(roots))
        self.branch_slots: dict[str, list[Path]] = {}
        for branch in self.branches:
            _, slots = branch.finalize()
            self.branch_slots[branch.label] = slots
        self.plans = tuple(
            _PlanExec(nfd, index, self.branches, self.branch_slots)
            for index, nfd in indexed_nfds
        )

    def node_count(self) -> int:
        return sum(branch.node_count() for branch in self.branches)


class _ScopeNode:
    """One node of a relation's base-path scope tree.

    The root corresponds to the relation set itself; each child label
    descends one set-valued base step.  ``anchor`` is non-None when some
    NFDs use exactly this base path, and ``plan_indices`` covers every
    plan anchored at or below the node (used to prune masked walks).
    """

    __slots__ = ("children", "anchor", "plan_indices")

    def __init__(self):
        self.children: dict[str, _ScopeNode] = {}
        self.anchor: _Anchor | None = None
        self.plan_indices: frozenset[int] = frozenset()

    def finalize(self) -> frozenset[int]:
        covered = set()
        if self.anchor is not None:
            covered.update(plan.index for plan in self.anchor.plans)
        for child in self.children.values():
            covered.update(child.finalize())
        self.plan_indices = frozenset(covered)
        return self.plan_indices

    def node_count(self) -> int:
        total = 1 + sum(c.node_count() for c in self.children.values())
        if self.anchor is not None:
            total += self.anchor.node_count()
        return total


class _EarlyStop(Exception):
    """Internal: every NFD already has a violation; abandon the walk."""


class _Run:
    """Mutable state of one walk: mode, per-NFD tables, and ordering."""

    __slots__ = ("first_only", "mask", "violations", "done", "remaining",
                 "base_counter")

    def __init__(self, plan_count: int, first_only: bool,
                 mask: frozenset[int] | None):
        self.first_only = first_only
        self.mask = mask
        self.violations: list[tuple[int, int, Violation]] = []
        self.done = [False] * plan_count
        self.remaining = plan_count if mask is None else len(mask)
        # Per-anchor base-set indices (base-chain enumeration order).
        self.base_counter: dict[int, int] = {}


# ---------------------------------------------------------------- engine


class ValidatorEngine:
    """Batch Definition-2.4 validation for a schema and a set Σ of NFDs.

    Example::

        engine = ValidatorEngine(schema, sigma)
        engine.check(instance)                   # bool, short-circuits
        engine.validate(instance).violations     # every witness
        engine.stats.to_text()                   # counters

    Plans are compiled once in the constructor and reused across
    validations; the incremental checker also reuses them for per-row
    updates via :meth:`bindings_of` and :meth:`row_violates`.
    """

    def __init__(self, schema: Schema, sigma: Iterable[NFD], *,
                 tracer=None):
        self.schema = schema
        self.sigma = tuple(sigma)
        # Observability: a repro.obs.Tracer, or None for the untraced
        # fast path (a single `is None` check per walk boundary).
        self.tracer = tracer
        for nfd in self.sigma:
            nfd.check_well_formed(schema)
        # relation -> scope tree; relations in Σ first-mention order.
        self._relations: dict[str, _ScopeNode] = {}
        by_base: dict[Path, list[tuple[int, NFD]]] = {}
        for index, nfd in enumerate(self.sigma):
            by_base.setdefault(nfd.base, []).append((index, nfd))
        for base, members in by_base.items():
            root = self._relations.get(base.first)
            if root is None:
                root = self._relations[base.first] = _ScopeNode()
            node = root
            for label in base.tail:
                child = node.children.get(label)
                if child is None:
                    child = node.children[label] = _ScopeNode()
                node = child
            node.anchor = _Anchor(base, members)
        self._trie_nodes = 0
        for root in self._relations.values():
            root.finalize()
            self._trie_nodes += root.node_count()
        self._plan_of = {plan.nfd: plan
                         for root in self._relations.values()
                         for plan in _iter_plans(root)}
        # Cumulative counters (see ValidatorStats).
        self._validations = 0
        self._elements_walked = 0
        self._bindings_emitted = 0
        self._base_sets = 0
        self._groups: dict[str, int] = {str(nfd): 0 for nfd in self.sigma}
        self._wall_time = 0.0

    # -- public API -------------------------------------------------------

    def validate(self, instance: Instance, *,
                 all_violations: bool = False) -> ValidationResult:
        """Walk the instance once and report violations.

        With ``all_violations=False`` (the default) the walk
        short-circuits: each NFD contributes at most its *first*
        disagreement, and the walk stops entirely once every NFD is
        violated.  With ``all_violations=True`` the walk is exhaustive
        and yields one witness per conflicting antecedent key per base
        set, matching :func:`repro.nfd.violations.find_violations`.
        """
        run = _Run(len(self.sigma), first_only=not all_violations,
                   mask=None)
        tracer = self.tracer
        if tracer is None:
            self._execute(instance, run)
            return self._result(run)
        with tracer.span("validate.run", all_violations=all_violations,
                         nfds=len(self.sigma)) as span:
            self._execute(instance, run)
            result = self._result(run)
            span.add("violations", len(result.violations))
            return result

    def check(self, instance: Instance) -> bool:
        """``I |= Σ`` in one short-circuiting pass."""
        return self.validate(instance).ok

    def find_violations(self, instance: Instance) -> list[Violation]:
        """Every violation witness, deterministically ordered."""
        return list(self.validate(instance,
                                  all_violations=True).violations)

    def bindings_of(self, relation: str, element: Record) \
            -> list[tuple[NFD, list[tuple[tuple, Value]]]]:
        """Per-NFD ``(key, rhs)`` bindings of one base-set element.

        Covers the *global* NFDs of *relation* (those whose base path is
        the bare relation name) — the cross-tuple dependencies an
        incremental checker must index.  An NFD on which the element has
        an undefined path contributes an empty list (Definition 2.4: the
        element constrains nothing).  The shared binding trie is
        materialized once for the element, however many NFDs read it.
        """
        root = self._relations.get(relation)
        if root is None or root.anchor is None:
            return []
        anchor = root.anchor
        undefined: set[Path] = set()
        branch_rows = self._element_rows(anchor, element, undefined)
        result = []
        for plan in anchor.plans:
            entries: list[tuple[tuple, Value]] = []
            if not (undefined and
                    any(p in undefined for p in plan.paths)):
                entries = self._plan_bindings_list(plan, branch_rows)
            result.append((plan.nfd, entries))
        return result

    def row_violates(self, nfd: NFD, element: Record) -> bool:
        """Does a relation holding only *element* violate *nfd*?

        The per-tuple question local (nested-base) NFDs reduce to: a
        local dependency never relates two different tuples, so checking
        the inserted tuple in isolation is exact.
        """
        plan = self._plan_of.get(nfd)
        if plan is None:
            raise KeyError(f"{nfd} is not part of this engine's sigma")
        run = _Run(len(self.sigma), first_only=True,
                   mask=frozenset((plan.index,)))
        start = time.perf_counter()
        try:
            self._walk_scope(self._relations[nfd.relation],
                             SetValue((element,)), run)
        except _EarlyStop:
            pass
        self._wall_time += time.perf_counter() - start
        return bool(run.violations)

    def snapshot(self) -> ValidatorStats:
        """An explicit alias of :attr:`stats`: counters are cumulative
        and never reset in place; measure windows with a snapshot
        before / after and :meth:`~repro.obs.Stats.diff`."""
        return self.stats

    @property
    def stats(self) -> ValidatorStats:
        """A point-in-time :class:`ValidatorStats` snapshot."""
        return ValidatorStats(
            validations=self._validations,
            elements_walked=self._elements_walked,
            bindings_emitted=self._bindings_emitted,
            base_sets=self._base_sets,
            trie_nodes=self._trie_nodes,
            groups=dict(self._groups),
            wall_time=self._wall_time,
            plan_compilations=1,
        )

    # -- the walk ---------------------------------------------------------

    def _execute(self, instance: Instance, run: _Run) -> None:
        self._validations += 1
        tracer = self.tracer
        start = time.perf_counter()
        try:
            for relation, root in self._relations.items():
                if run.remaining == 0 and run.first_only:
                    break
                if tracer is None:
                    self._walk_scope(root, instance.relation(relation),
                                     run)
                elif self._walk_traced(tracer, relation, root, instance,
                                       run):
                    break
        except _EarlyStop:
            pass
        finally:
            self._wall_time += time.perf_counter() - start

    def _walk_traced(self, tracer, relation: str, root: _ScopeNode,
                     instance: Instance, run: _Run) -> bool:
        """One relation walk under a span; True when the walk stopped
        early (every NFD violated) and the relation loop should end."""
        before = (self._elements_walked, self._bindings_emitted,
                  self._base_sets)
        stopped = False
        with tracer.span("validate.relation", relation=relation) as span:
            try:
                self._walk_scope(root, instance.relation(relation), run)
            except _EarlyStop:
                stopped = True
                span.attrs["early_stop"] = True
            span.add("elements_walked",
                     self._elements_walked - before[0])
            span.add("bindings_emitted",
                     self._bindings_emitted - before[1])
            span.add("base_sets", self._base_sets - before[2])
        return stopped

    def _result(self, run: _Run) -> ValidationResult:
        ordered = sorted(run.violations, key=lambda v: (v[0], v[1]))
        violations = tuple(v for _, _, v in ordered)
        return ValidationResult(not violations, violations)

    def _walk_scope(self, node: _ScopeNode, set_value: SetValue,
                    run: _Run) -> None:
        """Process one base set: anchored NFDs, then deeper scopes."""
        anchor = node.anchor
        if anchor is not None and not self._anchor_live(anchor, run):
            anchor = None
        if anchor is not None:
            self._base_sets += 1
            slot = id(anchor)
            base_index = run.base_counter.get(slot, 0)
            run.base_counter[slot] = base_index + 1
            tables: list[dict] = [{} for _ in anchor.plans]
            reported: list[set] = [set() for _ in anchor.plans]
        descend = [
            (label, child) for label, child in
            sorted(node.children.items())
            if run.mask is None or (child.plan_indices & run.mask)
        ]
        if anchor is None and not descend:
            return
        for element in set_value:
            self._elements_walked += 1
            if not isinstance(element, Record):
                raise PathError(
                    f"expected a record while validating, got {element}"
                )
            if anchor is not None:
                self._process_element(anchor, element, tables, reported,
                                      base_index, run)
            for label, child in descend:
                projected = element.get(label)
                if not isinstance(projected, SetValue):
                    raise PathError(
                        f"base path label {label!r} must be set-valued, "
                        f"got {projected}"
                    )
                self._walk_scope(child, projected, run)
        if anchor is not None:
            for plan, table in zip(anchor.plans, tables):
                self._groups[str(plan.nfd)] += len(table)

    def _anchor_live(self, anchor: _Anchor, run: _Run) -> bool:
        for plan in anchor.plans:
            if run.mask is not None and plan.index not in run.mask:
                continue
            if not (run.first_only and run.done[plan.index]):
                return True
        return False

    def _process_element(self, anchor: _Anchor, element: Record,
                         tables: list[dict], reported: list[set],
                         base_index: int, run: _Run) -> None:
        undefined: set[Path] = set()
        branch_rows = self._element_rows(anchor, element, undefined)
        for position, plan in enumerate(anchor.plans):
            if run.mask is not None and plan.index not in run.mask:
                continue
            if run.first_only and run.done[plan.index]:
                continue
            if undefined and any(p in undefined for p in plan.paths):
                continue  # Definition 2.4: undefined => unconstrained
            table = tables[position]
            bindings = self._plan_bindings_list(plan, branch_rows)
            for probed, (key, rhs) in enumerate(bindings, 1):
                seen = table.get(key)
                if seen is None:
                    table[key] = (rhs, element)
                elif seen[0] != rhs:
                    if run.first_only:
                        # the stop leaves the rest unprobed: count only
                        # the pairs probed (recording may raise the stop)
                        self._bindings_emitted -= len(bindings) - probed
                    self._record_violation(
                        plan, position, key, seen, rhs, element,
                        reported, base_index, run)
                    if run.first_only:
                        break

    def _record_violation(self, plan: _PlanExec, position: int,
                          key: tuple, seen: tuple[Value, Record],
                          rhs: Value, element: Record,
                          reported: list[set], base_index: int,
                          run: _Run) -> None:
        if run.first_only:
            run.done[plan.index] = True
            run.remaining -= 1
        elif key in reported[position]:
            return
        else:
            reported[position].add(key)
        violation = Violation(plan.nfd, base_index, seen[1],
                              element, key, seen[0], rhs)
        run.violations.append(
            (plan.index, len(run.violations), violation))
        if run.first_only and run.remaining == 0:
            raise _EarlyStop

    # -- shared row materialization --------------------------------------

    def _element_rows(self, anchor: _Anchor, element: Record,
                      undefined: set[Path]) -> list[list[tuple]]:
        """One row table per top-level branch of the binding trie.

        A row assigns every leaf path of the branch a value (or the
        undefined sentinel), one row per combination of set-element
        choices within the branch.  Choices in *different* branches are
        independent, so the full binding space is the cross product of
        the branch tables — taken lazily, per NFD, over the branches
        that NFD actually reads.
        """
        return [
            self._rows_for(branch, element.get(branch.label), undefined)
            for branch in anchor.branches
        ]

    def _rows_for(self, node: _TrieNode, value: Value,
                  undefined: set[Path]) -> list[tuple]:
        own = (value,) if node.is_leaf else ()
        children = node.child_list
        if not children:
            return [own]
        if not isinstance(value, SetValue):
            raise PathError(
                f"cannot traverse path {node.path} into {value}"
            )
        if value.is_empty:
            undefined.update(node.sub_leaves)
            return [own + (_UNDEFINED,) * node.below_width]
        rows: list[tuple] = []
        walked = 0
        for element in value:
            walked += 1
            if not isinstance(element, Record):
                raise PathError(
                    f"expected a record at {node.path}, got {element}"
                )
            if len(children) == 1:
                child = children[0]
                for sub in self._rows_for(
                        child, element.get(child.label), undefined):
                    rows.append(own + sub)
            else:
                child_rows = [
                    self._rows_for(child, element.get(child.label),
                                   undefined)
                    for child in children
                ]
                for combo in product(*child_rows):
                    rows.append(own + tuple(chain.from_iterable(combo)))
        self._elements_walked += walked
        return rows

    def _plan_bindings_list(self, plan: _PlanExec,
                            branch_rows: list[list[tuple]]) \
            -> list[tuple[tuple, Value]]:
        """Project one NFD's ``(key, rhs)`` bindings out of shared rows.

        Per branch the rows are projected to the NFD's own leaf slots
        and deduplicated (choices belonging to *other* NFDs in the union
        trie multiply rows but not distinct values); the NFD's binding
        space is the cross product of the deduplicated projections.
        Every binding counts as emitted; a caller that stops early gives
        back the ones it did not probe.
        """
        factors: list[list[tuple]] = []
        for branch_pos, indices in plan.branch_proj:
            rows = branch_rows[branch_pos]
            if len(rows) == 1:
                row = rows[0]
                factors.append([tuple(row[i] for i in indices)])
                continue
            projected = dict.fromkeys(
                tuple(row[i] for i in indices) for row in rows)
            factors.append(list(projected))
        lhs_pos = plan.lhs_pos
        rhs_pos = plan.rhs_pos
        if len(factors) == 1:
            out = [(tuple(flat[i] for i in lhs_pos), flat[rhs_pos])
                   for flat in factors[0]]
        else:
            out = []
            for combo in product(*factors):
                flat = tuple(chain.from_iterable(combo))
                out.append((tuple(flat[i] for i in lhs_pos),
                            flat[rhs_pos]))
        self._bindings_emitted += len(out)
        return out


def _iter_plans(node: _ScopeNode) -> Iterator[_PlanExec]:
    if node.anchor is not None:
        yield from node.anchor.plans
    for child in node.children.values():
        yield from _iter_plans(child)

