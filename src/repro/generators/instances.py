"""Random instances: arbitrary, empty-set-free, and Sigma-satisfying.

Atoms are drawn from small domains so that random instances actually
collide on values (otherwise every NFD would hold vacuously).  Set sizes
and the empty-set probability are knobs; Sigma-satisfying instances are
produced by rejection sampling, which works well exactly in the regime
the tests need (few tuples, small domains).
"""

from __future__ import annotations

import random
from typing import Iterable

from ..nfd.batch_validate import ValidatorEngine
from ..nfd.nfd import NFD
from ..types.base import BaseType, RecordType, SetType, Type
from ..types.schema import Schema
from ..values.build import Instance
from ..values.value import Atom, Record, SetValue, Value

__all__ = ["random_value", "random_instance",
           "random_satisfying_instance"]


def random_value(rng: random.Random, value_type: Type,
                 domain: int = 3, max_set_size: int = 2,
                 empty_probability: float = 0.0) -> Value:
    """A random value of *value_type*.

    Int atoms come from ``0..domain-1``; strings from ``s0..s{domain-1}``;
    bools are fair coin flips.  Sets are empty with *empty_probability*,
    otherwise they get 1..max_set_size elements (duplicates may collapse,
    so the actual size can be smaller).
    """
    if isinstance(value_type, BaseType):
        if value_type.name == "int":
            return Atom(rng.randrange(domain))
        if value_type.name == "string":
            return Atom(f"s{rng.randrange(domain)}")
        return Atom(rng.random() < 0.5)
    if isinstance(value_type, SetType):
        if empty_probability and rng.random() < empty_probability:
            return SetValue(())
        size = rng.randint(1, max_set_size)
        return SetValue(
            random_value(rng, value_type.element, domain, max_set_size,
                         empty_probability)
            for _ in range(size)
        )
    if isinstance(value_type, RecordType):
        return Record([
            (label, random_value(rng, field_type, domain, max_set_size,
                                 empty_probability))
            for label, field_type in value_type.fields
        ])
    raise TypeError(f"not a Type: {value_type!r}")


def random_instance(rng: random.Random, schema: Schema,
                    tuples: int = 2, domain: int = 3,
                    max_set_size: int = 2,
                    empty_probability: float = 0.0) -> Instance:
    """A random instance with *tuples* elements per relation.

    With the default ``empty_probability=0`` the instance has no empty
    sets (the Section 3 assumption); raise it to exercise the empty-set
    semantics.
    """
    relations = {}
    for name in schema.relation_names:
        element = schema.element_type(name)
        relations[name] = SetValue(
            random_value(rng, element, domain, max_set_size,
                         empty_probability)
            for _ in range(tuples)
        )
    return Instance(schema, relations)


def random_satisfying_instance(rng: random.Random, schema: Schema,
                               sigma: Iterable[NFD],
                               tuples: int = 2, domain: int = 3,
                               max_set_size: int = 2,
                               empty_probability: float = 0.0,
                               max_attempts: int = 200) \
        -> Instance | None:
    """Rejection-sample an instance satisfying every NFD in *sigma*.

    Returns None when no satisfying instance is found within
    *max_attempts*; callers (property tests) typically skip in that
    case.  Rejection is effective here because the tests use few tuples
    and tiny domains.
    """
    engine = ValidatorEngine(schema, sigma)
    for _ in range(max_attempts):
        candidate = random_instance(rng, schema, tuples, domain,
                                    max_set_size, empty_probability)
        if engine.check(candidate):
            return candidate
    return None
