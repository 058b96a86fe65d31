"""The chase: tableaux, FD chase, lossless joins, nested repair."""

from .. import _lazy

__all__ = _lazy.exports(__name__, {
    "flat_chase": "chase fd_implies_chase implication_tableau lossless_join",
    "nested_implication": "ChaseVerdict chase_implies",
    "nested_repair": "repair replace_value",
    "tableau": "Symbol Tableau distinguished nondistinguished",
})
