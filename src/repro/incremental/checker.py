"""Incremental NFD checking under tuple inserts and removals.

The data-warehouse motivation of the paper's introduction: when a
materialized nested view is refreshed tuple by tuple, re-validating the
whole constraint set from scratch is wasteful.  This module maintains,
for every *global* NFD (relation-name base), the same antecedent-key
index the hash-grouped checker builds — keyed by the NFD's LHS values,
holding a multiset of RHS values — and updates it with the bindings of
just the inserted or removed tuple.  *Local* NFDs (nested base paths)
never relate two different tuples, so they are checked once per
inserted tuple and need no cross-tuple state.

Per-row binding extraction rides the compiled plans of
:class:`repro.nfd.batch_validate.ValidatorEngine`: one engine is built
for Σ at construction, ``engine.bindings_of`` materializes a tuple's
shared binding trie once for *all* global NFDs of its relation, and
``engine.row_violates`` answers the per-tuple question for local NFDs.
Bulk initialization (constructing with an ``instance=``) applies every
tuple's bindings first and collects conflicts once at the end, instead
of re-scanning conflict state after each row.

The checker tracks the exact conflict set, so consistency can be asked
at any time in O(1); the invariant

    checker.is_consistent()  ==  engine.check(checker.to_instance())

(with ``engine = ValidatorEngine(schema, sigma)``)

is enforced by randomized tests.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable

from ..errors import InferenceError, InstanceError
from ..nfd.batch_validate import ValidatorEngine
from ..nfd.nfd import NFD
from ..types.schema import Schema
from ..values.build import Instance, from_python
from ..values.value import Record, SetValue, Value

__all__ = ["Conflict", "IncrementalChecker"]


class Conflict:
    """A live inconsistency: one antecedent key with clashing RHS values."""

    __slots__ = ("nfd", "key", "rhs_values")

    def __init__(self, nfd: NFD, key: tuple, rhs_values: frozenset):
        self.nfd = nfd
        self.key = key
        self.rhs_values = rhs_values

    def describe(self) -> str:
        lhs = self.nfd.sorted_lhs()
        agreed = ", ".join(f"{p} = {v}" for p, v in zip(lhs, self.key)) \
            or "(empty antecedent)"
        values = ", ".join(str(v) for v in sorted(self.rhs_values,
                                                  key=repr))
        return (f"conflict on {self.nfd}: {agreed} maps {self.nfd.rhs} "
                f"to {{{values}}}")

    def __repr__(self) -> str:
        return f"Conflict({self.nfd}, key={self.key})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Conflict) and self.nfd == other.nfd and \
            self.key == other.key and self.rhs_values == other.rhs_values

    def __hash__(self) -> int:
        return hash((self.nfd, self.key, self.rhs_values))


class _GlobalState:
    """Cross-tuple index for one relation-based NFD.

    The bindings themselves come from the shared validation engine
    (:meth:`ValidatorEngine.bindings_of`); this class only owns the
    antecedent-key index they are applied to.
    """

    __slots__ = ("nfd", "index")

    def __init__(self, nfd: NFD):
        self.nfd = nfd
        # antecedent key -> Counter of rhs values
        self.index: dict[tuple, Counter] = {}

    def apply(self, entries: list[tuple[tuple, Value]], delta: int) -> None:
        for key, rhs_value in entries:
            counter = self.index.setdefault(key, Counter())
            counter[rhs_value] += delta
            if counter[rhs_value] <= 0:
                del counter[rhs_value]
            if not counter:
                del self.index[key]

    def conflicted_keys(self, keys: Iterable[tuple]) -> set[tuple]:
        result = set()
        for key in keys:
            counter = self.index.get(key)
            if counter is not None and len(counter) > 1:
                result.add(key)
        return result

    def conflict_for(self, key: tuple) -> Conflict:
        return Conflict(self.nfd, key,
                        frozenset(self.index[key].keys()))


class _LocalState:
    """Per-tuple state for one nested-base NFD.

    The per-tuple violation question itself is answered by
    :meth:`ValidatorEngine.row_violates` on the shared compiled plan;
    this class only remembers which live tuples are offenders.
    """

    __slots__ = ("nfd", "offenders")

    def __init__(self, nfd: NFD):
        self.nfd = nfd
        self.offenders: set[Record] = set()


class IncrementalChecker:
    """Maintains NFD consistency across tuple-level updates.

    Example::

        checker = IncrementalChecker(schema, sigma)
        checker.insert("Course", {...})        # [] — no conflicts
        checker.insert("Course", {...})        # [Conflict(...)] if bad
        checker.remove("Course", {...})        # conflicts may clear
        checker.is_consistent()

    ``insert``/``remove`` apply the change and return the *newly
    created* conflicts (a removal can only clear conflicts, so it
    returns the list of conflicts it resolved).  ``check_insert`` is the
    non-mutating dry run used for admission control.
    """

    def __init__(self, schema: Schema, sigma: Iterable[NFD],
                 instance: Instance | None = None):
        self.schema = schema
        self.sigma = tuple(sigma)
        # Compiles the shared path-trie plans and checks Σ's
        # well-formedness against the schema.
        self._engine = ValidatorEngine(schema, self.sigma)
        self._tuples: dict[str, set[Record]] = {
            name: set() for name in schema.relation_names
        }
        self._global: dict[str, list[_GlobalState]] = {
            name: [] for name in schema.relation_names
        }
        self._local: dict[str, list[_LocalState]] = {
            name: [] for name in schema.relation_names
        }
        self._global_by_nfd: dict[NFD, _GlobalState] = {}
        self._conflicts: dict[tuple, Conflict] = {}
        for nfd in self.sigma:
            if nfd.is_simple:
                state = _GlobalState(nfd)
                self._global[nfd.relation].append(state)
                self._global_by_nfd[nfd] = state
            else:
                self._local[nfd.relation].append(_LocalState(nfd))
        if instance is not None:
            if instance.schema != schema:
                raise InferenceError(
                    "the initial instance uses a different schema"
                )
            self._bulk_load(instance)

    def _bulk_load(self, instance: Instance) -> None:
        """Load an initial instance via :meth:`load_rows`."""
        for name, relation in instance.relations():
            self.load_rows(name, relation)

    def load_rows(self, relation: str, rows: Iterable[Any]) -> int:
        """Bulk-load rows of one relation from any iterable source.

        Equivalent to inserting every row, but the per-insert conflict
        bookkeeping (probing the touched keys after every row) is
        deferred to a single sweep over the relation's indexes at the
        end.  *rows* is consumed one element at a time and never
        materialized, so a chunked reader —
        :func:`repro.io.stream.iter_jsonl_elements` over a JSONL dump —
        loads a warehouse refresh without holding the batch in memory.
        Returns the number of (previously absent) rows loaded.
        """
        loaded = 0
        for row in rows:
            record = self._coerce(relation, row)
            if record in self._tuples[relation]:
                continue
            self._tuples[relation].add(record)
            loaded += 1
            for state in self._local[relation]:
                if self._engine.row_violates(state.nfd, record):
                    state.offenders.add(record)
                    self._conflicts[(id(state), record)] = \
                        Conflict(state.nfd, (record,), frozenset())
            for nfd, entries in self._engine.bindings_of(relation,
                                                         record):
                self._global_by_nfd[nfd].apply(entries, +1)
        for state in self._global[relation]:
            for key, counter in state.index.items():
                if len(counter) > 1:
                    conflict = state.conflict_for(key)
                    slot = (id(state), key)
                    if self._conflicts.get(slot) != conflict:
                        self._conflicts[slot] = conflict
        return loaded

    # -- updates -----------------------------------------------------------

    def _coerce(self, relation: str, row: Any) -> Record:
        if not isinstance(row, Value):
            row = from_python(row, self.schema.element_type(relation))
        if not isinstance(row, Record):
            raise InstanceError(
                f"a tuple of {relation!r} must be a record, got "
                f"{type(row).__name__}"
            )
        return row

    def insert(self, relation: str, row: Any) -> list[Conflict]:
        """Insert a tuple; returns the conflicts the insert created."""
        record = self._coerce(relation, row)
        if record in self._tuples[relation]:
            return []
        self._tuples[relation].add(record)
        created: list[Conflict] = []
        for state in self._local[relation]:
            if self._engine.row_violates(state.nfd, record):
                state.offenders.add(record)
                conflict = Conflict(state.nfd, (record,), frozenset())
                self._conflicts[(id(state), record)] = conflict
                created.append(conflict)
        for nfd, entries in self._engine.bindings_of(relation, record):
            state = self._global_by_nfd[nfd]
            state.apply(entries, +1)
            for key in state.conflicted_keys(key for key, _ in entries):
                conflict = state.conflict_for(key)
                slot = (id(state), key)
                if self._conflicts.get(slot) != conflict:
                    self._conflicts[slot] = conflict
                    created.append(conflict)
        return created

    def remove(self, relation: str, row: Any) -> list[Conflict]:
        """Remove a tuple; returns the conflicts the removal resolved."""
        record = self._coerce(relation, row)
        if record not in self._tuples[relation]:
            raise InstanceError(
                f"tuple is not present in {relation!r}; cannot remove"
            )
        self._tuples[relation].discard(record)
        resolved: list[Conflict] = []
        for state in self._local[relation]:
            if record in state.offenders:
                state.offenders.discard(record)
                resolved.append(
                    self._conflicts.pop((id(state), record)))
        for nfd, entries in self._engine.bindings_of(relation, record):
            state = self._global_by_nfd[nfd]
            state.apply(entries, -1)
            for key in {key for key, _ in entries}:
                slot = (id(state), key)
                if slot not in self._conflicts:
                    continue
                counter = state.index.get(key)
                if counter is None or len(counter) <= 1:
                    resolved.append(self._conflicts.pop(slot))
                else:
                    # still conflicted; refresh the recorded value set
                    self._conflicts[slot] = state.conflict_for(key)
        return resolved

    def check_insert(self, relation: str, row: Any) -> list[Conflict]:
        """Dry run: the conflicts an insert would create, without
        mutating any state."""
        record = self._coerce(relation, row)
        if record in self._tuples[relation]:
            return []
        found: list[Conflict] = []
        for state in self._local[relation]:
            if self._engine.row_violates(state.nfd, record):
                found.append(Conflict(state.nfd, (record,), frozenset()))
        for nfd, entries in self._engine.bindings_of(relation, record):
            state = self._global_by_nfd[nfd]
            staged: dict[tuple, set] = {}
            for key, rhs_value in entries:
                staged.setdefault(key, set()).add(rhs_value)
            for key, new_values in staged.items():
                existing = set(state.index.get(key, ()))
                combined = existing | new_values
                if len(combined) > 1:
                    found.append(Conflict(state.nfd, key,
                                          frozenset(combined)))
        return found

    # -- queries -----------------------------------------------------------

    def conflicts(self) -> list[Conflict]:
        """All live conflicts, deterministic order."""
        return sorted(self._conflicts.values(),
                      key=lambda c: (str(c.nfd), repr(c.key)))

    def is_consistent(self) -> bool:
        return not self._conflicts

    def to_instance(self) -> Instance:
        """Materialize the current state as an immutable Instance."""
        return Instance(self.schema, {
            name: SetValue(rows) for name, rows in self._tuples.items()
        })

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._tuples.values())
