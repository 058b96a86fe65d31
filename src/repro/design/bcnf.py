"""BCNF analysis and decomposition for flat relations.

The paper's introduction lists "lossless-join decomposition, and
dependency preserving decomposition, which lead to the definition of
normal forms" as the classical payoff of an FD axiomatization.  This
module supplies that payoff for the flat substrate: BCNF testing, the
standard violation-driven decomposition (lossless by construction,
verifiable with the chase), and FD projection onto components.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Sequence

from ..errors import InferenceError
from ..inference.armstrong import FD, attribute_closure

__all__ = [
    "is_superkey",
    "bcnf_violations",
    "is_bcnf",
    "project_fds",
    "bcnf_decompose",
]


def is_superkey(attributes: Sequence[str], fds: Iterable[FD],
                candidate: Iterable[str]) -> bool:
    """Does *candidate* determine every attribute?"""
    return attribute_closure(candidate, fds) >= set(attributes)


def bcnf_violations(attributes: Sequence[str],
                    fds: Iterable[FD]) -> list[FD]:
    """The FDs violating BCNF: non-trivial with a non-superkey LHS."""
    fd_list = list(fds)
    return [
        fd for fd in fd_list
        if fd.rhs not in fd.lhs and
        not is_superkey(attributes, fd_list, fd.lhs)
    ]


def is_bcnf(attributes: Sequence[str], fds: Iterable[FD]) -> bool:
    return not bcnf_violations(attributes, list(fds))


def project_fds(attributes: Sequence[str], fds: Iterable[FD],
                subset: Iterable[str], max_lhs: int | None = None,
                closure: Callable[[tuple[str, ...]], set[str]]
                | None = None) -> list[FD]:
    """The FDs implied on *subset*: ``X -> A`` with ``X, A ⊆ subset``.

    Computed by closing every LHS candidate within the subset —
    exponential in ``|subset|`` (inherently: FD projection has no
    polynomial enumeration), so *max_lhs* can cap the LHS size.  Trivial
    and redundant-by-reflexivity members are skipped.

    *closure*, when given, replaces the built-in
    :func:`attribute_closure` as the ``combo -> closed attributes``
    oracle; the normalization pipeline passes an engine-backed oracle
    here so projection work is spent (and counted) in the closure
    engine, memoized across components by its held queries.
    The oracle must agree with ``attribute_closure(combo, fds)``.
    """
    fd_list = list(fds)
    subset_tuple = tuple(dict.fromkeys(subset))
    limit = len(subset_tuple) if max_lhs is None else max_lhs
    projected: list[FD] = []
    # rhs -> the LHSs already projected for it
    derived: dict[str, list[frozenset[str]]] = {}
    for size in range(1, limit + 1):
        for combo in combinations(subset_tuple, size):
            closed = attribute_closure(combo, fd_list) \
                if closure is None else closure(combo)
            for attribute in subset_tuple:
                if attribute in combo or attribute not in closed:
                    continue
                candidate = FD(combo, attribute)
                # skip if a smaller LHS already derives it
                smaller = derived.setdefault(attribute, [])
                if not any(lhs < candidate.lhs for lhs in smaller):
                    projected.append(candidate)
                    smaller.append(candidate.lhs)
    return projected


def bcnf_decompose(attributes: Sequence[str], fds: Iterable[FD],
                   max_rounds: int = 100) -> list[tuple[str, ...]]:
    """The standard BCNF decomposition.

    Repeatedly split a component on a violating FD ``X -> A``:
    one part is ``X+ ∩ component``, the other ``X ∪ (component − X+)``.
    Every split is a lossless binary join (X determines one side), so
    the full decomposition is lossless; dependency preservation is NOT
    guaranteed (check with
    :func:`repro.design.preservation.preserves_dependencies`).

    Components are returned as attribute tuples in their original
    order, deterministic across runs.
    """
    fd_list = list(fds)
    original = tuple(dict.fromkeys(attributes))
    worklist: list[tuple[str, ...]] = [original]
    output: list[tuple[str, ...]] = []
    rounds = 0
    while worklist:
        rounds += 1
        if rounds > max_rounds:  # pragma: no cover - safety net
            raise InferenceError("BCNF decomposition did not converge")
        component = worklist.pop()
        local_fds = project_fds(original, fd_list, component)
        violations = bcnf_violations(component, local_fds)
        if not violations:
            output.append(component)
            continue
        violating = min(violations,
                        key=lambda fd: (len(fd.lhs), sorted(fd.lhs),
                                        fd.rhs))
        closed = attribute_closure(violating.lhs, local_fds)
        first = tuple(a for a in component if a in closed)
        second = tuple(a for a in component
                       if a in violating.lhs or a not in closed)
        worklist.append(first)
        worklist.append(second)
    # drop components subsumed by others, keep deterministic order
    output.sort(key=lambda c: (-len(c), c))
    kept: list[tuple[str, ...]] = []
    for component in output:
        if not any(set(component) <= set(other) for other in kept):
            kept.append(component)
    kept.sort(key=lambda c: tuple(original.index(a) for a in c))
    return kept
