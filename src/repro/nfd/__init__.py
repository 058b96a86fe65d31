"""Nested functional dependencies: syntax, semantics, and logic form."""

from .. import _lazy

__all__ = _lazy.exports(__name__, {
    "batch_validate": "ValidationResult ValidatorEngine ValidatorStats",
    "logic": "Equality NFDFormula Quantifier Term translate",
    "logic_eval": "evaluate holds_fol",
    "nfd": "NFD",
    "parser": "parse_nfd parse_nfd_family parse_nfds",
    "satisfy": "satisfies satisfies_all",
    "simple_form": (
        "deepest_form equivalent_modulo_form pull_out push_in "
        "to_simple"
    ),
    "stream_validate": (
        "ResourceBudget StreamResult StreamStats "
        "StreamValidator shard_validate stream_validate"
    ),
    "violations": "Violation find_violation find_violations",
})
