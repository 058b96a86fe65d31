"""Values, instances, and operations on them."""

from .build import Instance, from_python, to_python
from .canonical import (InternPool, canonical_bytes, canonical_json_bytes,
                        canonical_key_bytes)
from .inspect import (
    atom_domain,
    empty_set_positions,
    has_empty_sets,
    max_int_atom,
    set_cardinalities,
)
from .navigate import (
    first_value,
    iter_base_sets,
    iter_values,
    path_defined,
    values_at,
)
from .restructure import nest, nest_type, unnest, unnest_type
from .typecheck import (
    check_instance,
    check_value,
    conforms,
    instance_conforms,
)
from .value import (EMPTY_SET, Atom, Record, SetValue, Value,
                    value_of_json)

__all__ = [
    "Value",
    "Atom",
    "Record",
    "SetValue",
    "EMPTY_SET",
    "Instance",
    "from_python",
    "to_python",
    "canonical_bytes",
    "canonical_json_bytes",
    "canonical_key_bytes",
    "InternPool",
    "value_of_json",
    "check_value",
    "conforms",
    "check_instance",
    "instance_conforms",
    "iter_values",
    "values_at",
    "path_defined",
    "iter_base_sets",
    "first_value",
    "has_empty_sets",
    "empty_set_positions",
    "set_cardinalities",
    "atom_domain",
    "max_int_atom",
    "nest",
    "unnest",
    "nest_type",
    "unnest_type",
]
