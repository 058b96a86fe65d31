"""repro — Nested Functional Dependencies.

A from-scratch implementation of *"Reasoning about Nested Functional
Dependencies"* (Hara & Davidson, PODS 1999): the nested relational model,
NFD syntax and satisfaction semantics, the translation to first-order
logic, and a sound & complete inference engine with the paper's eight
rules, the six-rule simple system, empty-set-aware variants, and the
Appendix-A completeness construction.

Quickstart::

    from repro import parse_schema, parse_nfds, NFD, ClosureEngine

    schema = parse_schema("Course = {<cnum: string, time: int, "
                          "students: {<sid: int, grade: string>}>}")
    sigma = parse_nfds('''
        Course:[cnum -> time]
        Course:students:[sid -> grade]
    ''')
    engine = ClosureEngine(schema, sigma)
    engine.implies(NFD.parse("Course:students:[sid -> grade]"))

See README.md for the full tour and DESIGN.md for the paper mapping.
"""

from . import _lazy

__version__ = "1.0.0"

__all__ = _lazy.exports(__name__, {
    "errors": (
        "InferenceError InstanceError NFDError ParseError PathError "
        "ReproError RuleApplicationError SchemaError "
        "TypeConstructionError ValueError_"
    ),
    "inference": (
        "BruteForceProver ClosureEngine CountermodelBuilder "
        "Derivation ImplicationSession NonEmptySpec "
        "build_countermodel find_countermodel implies "
        "search_countermodel sigma_fingerprint"
    ),
    "nfd": (
        "NFD ValidationResult ValidatorEngine ValidatorStats "
        "find_violation find_violations holds_fol parse_nfd parse_nfds "
        "satisfies satisfies_all to_simple translate"
    ),
    "paths": "EPSILON Path parse_path",
    "types": (
        "BOOL INT STRING BaseType RecordType Schema SetType "
        "format_schema format_type parse_schema parse_type"
    ),
    "values": (
        "Atom Instance Record SetValue check_instance from_python "
        "to_python"
    ),
}) + ["__version__"]
