"""Inference: the eight rules, closure engine, and oracles."""

from .. import _lazy

__all__ = _lazy.exports(__name__, {
    "armstrong": (
        "FD armstrong_relation attribute_closure "
        "attribute_closure_many closed_sets fd_implies fd_to_nfd "
        "is_flat_relation nfd_to_fd"
    ),
    "brute_force": "BruteForceProver",
    "closure": "ClosureEngine EngineStats Explanation ImplicationSession",
    "dense": "DenseTables compile_tables",
    "countermodel": "CountermodelBuilder build_countermodel find_countermodel",
    "derivation": "Derivation Step",
    "empty_sets": "NonEmptySpec prefix_nonempty transitivity_nonempty",
    "implication": (
        "closure equivalent_sets implied_keys implies "
        "redundant_members"
    ),
    "model_search": "search_countermodel semantic_implication_verdict",
    "mvds": "MVD dependency_basis implies_fd_mixed implies_mvd satisfies_mvd",
    "proof_compiler": "compile_proof",
    "session": "sigma_fingerprint",
    "simple_rules": (
        "SIMPLE_RULE_NAMES full_locality to_simple_system "
        "uses_only_simple_rules"
    ),
}, modules=("rules",))
