"""Nested functional dependencies: syntax, semantics, and logic form."""

from .batch_validate import ValidationResult, ValidatorEngine, ValidatorStats
from .logic import Equality, NFDFormula, Quantifier, Term, translate
from .logic_eval import evaluate, holds_fol
from .nfd import NFD
from .parser import parse_nfd, parse_nfd_family, parse_nfds
from .satisfy import satisfies, satisfies_all
from .simple_form import (
    deepest_form,
    equivalent_modulo_form,
    pull_out,
    push_in,
    to_simple,
)
from .stream_validate import (
    ResourceBudget,
    StreamResult,
    StreamStats,
    StreamValidator,
    shard_validate,
    stream_validate,
)
from .violations import Violation, find_violation, find_violations

__all__ = [
    "NFD",
    "parse_nfd",
    "parse_nfds",
    "parse_nfd_family",
    "satisfies",
    "satisfies_all",
    "ValidatorEngine",
    "ValidatorStats",
    "ValidationResult",
    "ResourceBudget",
    "StreamResult",
    "StreamStats",
    "StreamValidator",
    "stream_validate",
    "shard_validate",
    "translate",
    "NFDFormula",
    "Quantifier",
    "Equality",
    "Term",
    "evaluate",
    "holds_fol",
    "Violation",
    "find_violation",
    "find_violations",
    "push_in",
    "pull_out",
    "to_simple",
    "deepest_form",
    "equivalent_modulo_form",
]
