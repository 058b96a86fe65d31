"""Values, instances, and operations on them."""

from .. import _lazy

__all__ = _lazy.exports(__name__, {
    "build": "Instance from_python to_python",
    "canonical": (
        "InternPool canonical_bytes canonical_json_bytes "
        "canonical_key_bytes"
    ),
    "inspect": (
        "atom_domain empty_set_positions has_empty_sets max_int_atom "
        "set_cardinalities"
    ),
    "navigate": (
        "first_value iter_base_sets iter_values path_defined "
        "values_at"
    ),
    "restructure": "nest nest_type unnest unnest_type",
    "typecheck": "check_instance check_value conforms instance_conforms",
    "value": "EMPTY_SET Atom Record SetValue Value value_of_json",
})
