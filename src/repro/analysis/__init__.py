"""Analyses built on the inference engine."""

from .. import _lazy

__all__ = _lazy.exports(__name__, {
    "carryover": (
        "fd_after_unnest fds_after_nest nfd_after_nest "
        "nfds_after_unnest"
    ),
    "cover": "covers is_redundant minimal_cover non_redundant",
    "diff": "SigmaDiff diff_sigmas",
    "keys": "is_key key_nfds local_minimal_keys minimal_keys",
    "migration": "MigrationReport migrate_sigma schema_changes",
    "report": "ConstraintReport analyze_constraints",
    "singletons": (
        "check_disjoint_or_equal implied_disjoint_or_equal "
        "implied_singletons is_implied_singleton"
    ),
})
