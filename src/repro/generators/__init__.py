"""Generators: random schemas, NFDs, instances, and paper workloads."""

from .. import _lazy

__all__ = _lazy.exports(__name__, {
    "instances": "random_instance random_satisfying_instance random_value",
    "nfds": "candidate_paths random_design_sigma random_nfd random_sigma",
    "schemas": (
        "LabelSupply random_flat_schema random_record "
        "random_relation_type random_schema"
    ),
}, modules=("workloads",))
