"""NFD satisfaction (Definition 2.4) — the literal pairwise checker.

The checker follows the paper's logic translation (Section 2.2) literally:

* one variable chain binds the base path ``x0``, with *two* independent
  element choices ``v1, v2`` at the last level (from the same set);
* for each side, one variable is introduced per distinct set-valued
  *proper prefix* of the paths ``x1..xm``; paths sharing a prefix share
  the binding, which realizes condition (2) of Definition 2.4 ("xi and xj
  follow the same path up to x");
* the value of a path is the projection of its parent binding by its last
  label, so a path ending at a set compares whole sets extensionally.

Definition 2.4's escape clause is honoured exactly: a pair ``(v1, v2)``
for which some ``xi`` (including the RHS) is *undefined* — some choice
sequence runs into an empty set — is trivially satisfied and skipped.  On
instances without empty sets this coincides with the pure first-order
semantics of :mod:`repro.nfd.logic_eval`; on instances *with* empty sets
the two can differ, and the paper's definition (implemented here) is the
weaker one.

This module enumerates pairs and bindings explicitly, mirroring the
definition one-to-one: it is the oracle the tests hold the hash-grouped
:class:`repro.nfd.batch_validate.ValidatorEngine` to.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterable, Iterator

from ..paths.path import EPSILON, Path
from ..values.build import Instance
from ..values.navigate import iter_base_sets, path_defined
from ..values.value import Record, Value
from .nfd import NFD

__all__ = [
    "satisfies",
    "satisfies_all",
    "traversed_prefixes",
    "value_at_binding",
    "iter_bindings",
    "keyed_bindings",
    "defined_elements",
    "defined_elements_cached",
    "group_by_base",
]


def traversed_prefixes(paths: Iterable[Path]) -> list[Path]:
    """The distinct set-valued proper prefixes of *paths*, parents first.

    These are exactly the positions that receive a quantified variable per
    side in the logic translation.  Sorted by (length, labels) so a
    prefix's parent always precedes it.
    """
    prefixes: set[Path] = set()
    for path in paths:
        for length in range(1, len(path)):
            prefixes.add(path[:length])
    return sorted(prefixes, key=lambda p: (len(p), p.labels))


def iter_bindings(root: Record, prefixes: list[Path]) \
        -> Iterator[dict[Path, Value]]:
    """Enumerate all bindings of *prefixes* starting from *root*.

    A binding maps the empty path to *root* and each prefix to a chosen
    element of the set found at that prefix (given its parent's binding).
    *prefixes* must be sorted parents-first, as produced by
    :func:`traversed_prefixes`.  Branches that reach an empty set simply
    produce no bindings.
    """
    binding: dict[Path, Value] = {EPSILON: root}

    def recurse(index: int) -> Iterator[dict[Path, Value]]:
        if index == len(prefixes):
            yield dict(binding)
            return
        prefix = prefixes[index]
        parent_value = binding[prefix.parent]
        set_value = parent_value.get(prefix.last)  # type: ignore[union-attr]
        for element in set_value:
            binding[prefix] = element
            yield from recurse(index + 1)
        binding.pop(prefix, None)

    yield from recurse(0)


def value_at_binding(path: Path, binding: dict[Path, Value]) -> Value:
    """The value of *path* under *binding*: parent binding projected.

    For a path ending at a set, this is the whole set (the elements bound
    *inside* that set, if any, live under longer prefixes).
    """
    parent_value = binding[path.parent]
    return parent_value.get(path.last)  # type: ignore[union-attr]


def keyed_bindings(nfd: NFD, element: Record,
                   prefixes: list[Path]) -> list[tuple[tuple, Value]]:
    """All ``(antecedent key, rhs value)`` pairs for one base element.

    The antecedent key is the tuple of LHS path values in sorted-path
    order; together with the RHS value it is everything Definition 2.4
    compares across the two sides.
    """
    lhs = nfd.sorted_lhs()
    rhs = nfd.rhs
    return [
        (tuple(value_at_binding(p, b) for p in lhs),
         value_at_binding(rhs, b))
        for b in iter_bindings(element, prefixes)
    ]


def defined_elements(base_set, paths: list[Path]) -> list[Record]:
    """The elements of a base set on which every path is well defined.

    Definition 2.4 excuses any pair in which a path is undefined on either
    side, so a value with an undefined path never constrains anything.
    """
    return [
        v for v in base_set
        if all(path_defined(v, p) for p in paths)
    ]


def defined_elements_cached(base_set, paths: list[Path],
                            cache: dict[tuple[Value, Path], bool]) \
        -> list[Record]:
    """:func:`defined_elements` memoized per ``(element, path)``.

    When several NFDs share a base path, their path sets overlap heavily
    (shared prefixes, repeated LHS attributes); a cache shared across the
    NFDs of one base avoids re-walking the same element/path pairs.  The
    caller owns the cache and must not reuse it across instances.
    """
    out: list[Record] = []
    for v in base_set:
        ok = True
        for p in paths:
            key = (v, p)
            defined = cache.get(key)
            if defined is None:
                defined = path_defined(v, p)
                cache[key] = defined
            if not defined:
                ok = False
                break
        if ok:
            out.append(v)
    return out


def group_by_base(nfds: Iterable[NFD]) -> dict[Path, list[NFD]]:
    """Group *nfds* by base path, preserving first-mention order."""
    groups: dict[Path, list[NFD]] = {}
    for nfd in nfds:
        groups.setdefault(nfd.base, []).append(nfd)
    return groups


def _pair_respects(keyed1: list[tuple[tuple, Value]],
                   keyed2: list[tuple[tuple, Value]]) -> bool:
    """Definition 2.4 for one (v1, v2) pair: compare strictly across sides.

    Every binding of side 1 whose antecedent key matches a binding of
    side 2 must agree on the RHS value.
    """
    by_key: dict[tuple, set[Value]] = {}
    for key, rhs_value in keyed1:
        by_key.setdefault(key, set()).add(rhs_value)
    for key, rhs_value in keyed2:
        seen = by_key.get(key)
        if seen is None:
            continue
        if any(other != rhs_value for other in seen):
            return False
    return True


def satisfies(instance: Instance, nfd: NFD) -> bool:
    """Decide ``I |= f`` per Definition 2.4 by explicit pair enumeration.

    See :func:`repro.nfd.violations.find_violation` for a checker that
    also reports a witness, and ``ValidatorEngine.check`` for the
    hash-grouped equivalent.
    """
    paths = sorted(nfd.all_paths)
    prefixes = traversed_prefixes(paths)
    for base_set in iter_base_sets(instance, nfd.base):
        defined = defined_elements(base_set, paths)
        keyed = [keyed_bindings(nfd, v, prefixes) for v in defined]
        for i, j in combinations_with_replacement(range(len(defined)), 2):
            if not _pair_respects(keyed[i], keyed[j]):
                return False
    return True


def satisfies_all(instance: Instance, nfds: Iterable[NFD]) -> bool:
    """True iff the instance satisfies every NFD in *nfds*.

    NFDs are grouped by base path so that definedness checks over a
    shared base set are computed once (via
    :func:`defined_elements_cached`) instead of once per NFD.
    Short-circuits on the first violated NFD.
    """
    for base, members in group_by_base(nfds).items():
        plans = [(nfd, sorted(nfd.all_paths)) for nfd in members]
        plans = [(nfd, paths, traversed_prefixes(paths))
                 for nfd, paths in plans]
        cache: dict[tuple[Value, Path], bool] = {}
        for base_set in iter_base_sets(instance, base):
            for nfd, paths, prefixes in plans:
                defined = defined_elements_cached(base_set, paths, cache)
                keyed = [keyed_bindings(nfd, v, prefixes)
                         for v in defined]
                for i, j in combinations_with_replacement(
                        range(len(defined)), 2):
                    if not _pair_respects(keyed[i], keyed[j]):
                        return False
    return True
