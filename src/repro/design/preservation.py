"""Dependency preservation of decompositions.

A decomposition preserves a set of FDs when the union of the FDs
projected onto its components implies every original FD — the second
classical design criterion named in the paper's introduction.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..inference.armstrong import FD, fd_implies
from .bcnf import project_fds

__all__ = ["preserves_dependencies", "unpreserved_fds"]


def unpreserved_fds(attributes: Sequence[str], fds: Iterable[FD],
                    decomposition: Sequence[Iterable[str]],
                    closure: Callable[[tuple[str, ...]], set[str]]
                    | None = None) -> list[FD]:
    """The original FDs not implied by the projected union.

    *closure* is forwarded to :func:`~repro.design.bcnf.project_fds`;
    the normalization pipeline passes its engine-backed oracle so the
    winner's projections come from the memo instead of being recomputed.
    """
    fd_list = list(fds)
    projected: list[FD] = []
    for component in decomposition:
        projected.extend(project_fds(attributes, fd_list, component,
                                     closure=closure))
    return [fd for fd in fd_list if not fd_implies(projected, fd)]


def preserves_dependencies(attributes: Sequence[str], fds: Iterable[FD],
                           decomposition: Sequence[Iterable[str]],
                           closure: Callable[[tuple[str, ...]], set[str]]
                           | None = None) -> bool:
    """True iff every original FD follows from the projections."""
    return not unpreserved_fds(attributes, list(fds), decomposition,
                               closure=closure)
