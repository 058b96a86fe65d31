"""Canonical encoding injectivity, with a numeric-heavy strategy.

The streaming group tables key on :func:`canonical_bytes`, so the
encoding must be a *bijection up to value equality*:

* **soundness** — equal values encode to identical bytes (otherwise a
  group splits and a real clash is missed);
* **injectivity** — distinct values encode to distinct bytes (otherwise
  two groups fuse and a phantom clash is reported).

The strategy is deliberately numeric-heavy: ``1`` vs ``1.0`` vs
``True``, ``0.0`` vs ``-0.0``, huge ints whose decimal widths collide,
and floats whose ``repr`` is a prefix of another's — exactly the
corners where an encoding that leans on Python's cross-type ``==`` or
on unframed string concatenation goes wrong.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.values import Atom, InternPool, Record, SetValue, to_python
from repro.values.canonical import (canonical_bytes, canonical_json_bytes,
                                    canonical_key_bytes)

# Numbers chosen to collide across types or widths: bool/int/float
# triples of the same magnitude, signed zeros, ints at float-precision
# boundaries, and floats that print as prefixes of other floats.
_TRICKY_NUMBERS = [
    0, 1, -1, True, False, 0.0, -0.0, 1.0, -1.0, 0.5, 1.5,
    2**31, 2**31 + 1, 2**53, 2**53 + 1, float(2**53), -2**63,
    10, 100, 1000, 10.0, 100.0, 1e2, 1e3, 1e300, -1e300,
    0.1, 0.10000000000000001, 1/3, 2/3,
]

_atoms = st.one_of(
    st.sampled_from(_TRICKY_NUMBERS),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=True),
    st.booleans(),
    st.sampled_from(["", "0", "1", "1.0", "True", "i", "f", "s", "R"]),
    st.text(max_size=6),
).map(Atom)

_labels = st.sampled_from(["A", "B", "C", "D"])


def _values(depth: int = 2):
    if depth == 0:
        return _atoms
    sub = _values(depth - 1)
    return st.one_of(
        _atoms,
        st.lists(st.tuples(_labels, sub), min_size=1, max_size=3,
                 unique_by=lambda pair: pair[0]).map(Record),
        st.lists(sub, max_size=3).map(SetValue),
    )


@settings(deadline=None)
@given(_values(), _values())
def test_bytes_equal_iff_values_equal(u, v):
    """Both directions of the grouping contract in one property."""
    assert (canonical_bytes(u) == canonical_bytes(v)) == (u == v)


@settings(deadline=None)
@given(_values())
def test_encoding_is_deterministic(value):
    assert canonical_bytes(value) == canonical_bytes(value)


@settings(deadline=None)
@given(st.lists(_values(1), min_size=1, max_size=3),
       st.lists(_values(1), min_size=1, max_size=3))
def test_key_bytes_equal_iff_key_tuples_equal(left, right):
    """Composite keys frame their parts: a 2-part key can never
    collide with a differently-split 2-part key or a 1-part key."""
    same = len(left) == len(right) and \
        all(a == b for a, b in zip(left, right))
    assert (canonical_key_bytes(tuple(left)) ==
            canonical_key_bytes(tuple(right))) == same


def _respelled(data, rng):
    """Plain data decoding to the same value: dict fields in a shuffled
    order, list elements shuffled and some repeated."""
    if isinstance(data, dict):
        items = list(data.items())
        rng.shuffle(items)
        return {label: _respelled(sub, rng) for label, sub in items}
    if isinstance(data, list):
        items = [_respelled(item, rng) for item in data]
        items += [_respelled(item, rng) for item in data
                  if rng.random() < 0.5]
        rng.shuffle(items)
        return items
    return data


@settings(deadline=None)
@given(_values(), st.randoms(use_true_random=False))
def test_json_bytes_equal_value_bytes(value, rng):
    """Streamed JSON keys group exactly as values do: the encoding of
    plain data equals its value's, however the data is spelled."""
    expected = canonical_bytes(value)
    assert canonical_json_bytes(to_python(value)) == expected
    assert canonical_json_bytes(_respelled(to_python(value), rng)) == \
        expected


@settings(deadline=None)
@given(st.lists(_values(1), min_size=1, max_size=6))
def test_pooled_json_bytes_match_unpooled(values):
    """One tiny pool over mixed plain data — ``1``, ``True`` and ``1.0``
    side by side — caches without changing any encoding."""
    pool = InternPool(max_entries=4)
    for _ in range(2):
        for value in values:
            data = to_python(value)
            assert pool.json_bytes(data) == canonical_json_bytes(data) \
                == canonical_bytes(value)
    assert len(pool) <= 4


def test_numeric_triples_stay_apart():
    """The classic cross-type equalities must not merge groups."""
    for a, b in [(Atom(1), Atom(1.0)), (Atom(1), Atom(True)),
                 (Atom(1.0), Atom(True)), (Atom(0), Atom(False)),
                 (Atom(0), Atom(0.0)), (Atom(0.0), Atom(False))]:
        assert a != b
        assert canonical_bytes(a) != canonical_bytes(b)


def test_signed_zero_merges():
    """0.0 == -0.0 inside the float type, so one group."""
    assert canonical_bytes(Atom(0.0)) == canonical_bytes(Atom(-0.0))


def test_float_int_same_repr_stay_apart():
    """1e16 prints like an int at full precision; the type tag must
    still separate it from the equal-magnitude int."""
    as_float = Atom(1e16)
    as_int = Atom(10_000_000_000_000_000)
    assert not math.isnan(1e16)
    assert as_float != as_int
    assert canonical_bytes(as_float) != canonical_bytes(as_int)
