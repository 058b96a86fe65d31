"""Unit tests for the value model: Atom, Record, SetValue."""

import pytest

from repro.errors import ValueError_
from repro.values import EMPTY_SET, Atom, Record, SetValue


class TestAtom:
    def test_wraps_scalars(self):
        assert Atom(5).value == 5
        assert Atom("x").value == "x"
        assert Atom(True).value is True
        assert Atom(1.5).value == 1.5

    def test_rejects_other_types(self):
        with pytest.raises(ValueError_):
            Atom(None)
        with pytest.raises(ValueError_):
            Atom(b"bytes")

    def test_rejects_nan(self):
        with pytest.raises(ValueError_):
            Atom(float("nan"))

    def test_equality(self):
        assert Atom(5) == Atom(5)
        assert Atom(5) != Atom(6)
        assert Atom("5") != Atom(5)

    def test_bool_distinct_from_int(self):
        # bool is an int subclass in Python; the model keeps them apart.
        assert Atom(True) != Atom(1)
        assert Atom(False) != Atom(0)

    def test_float_distinct_from_int_and_bool(self):
        # int == float across Python types; the model keeps them apart
        # (the cached hash already separates them via the type name).
        assert Atom(1.0) != Atom(1)
        assert Atom(1.0) != Atom(True)
        assert Atom(0.0) != Atom(False)

    def test_signed_zero_floats_equal(self):
        # within the float type, IEEE equality applies: 0.0 == -0.0
        assert Atom(0.0) == Atom(-0.0)
        assert hash(Atom(0.0)) == hash(Atom(-0.0))

    def test_hash_consistent(self):
        assert hash(Atom(5)) == hash(Atom(5))

    def test_str(self):
        assert str(Atom(5)) == "5"
        assert str(Atom("x")) == '"x"'

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Atom(5).value = 6


class TestRecord:
    def test_get(self):
        record = Record([("A", Atom(1)), ("B", Atom(2))])
        assert record.get("A") == Atom(1)
        assert record.labels == ("A", "B")

    def test_from_mapping(self):
        assert Record({"A": Atom(1)}) == Record([("A", Atom(1))])

    def test_equality_ignores_order(self):
        first = Record([("A", Atom(1)), ("B", Atom(2))])
        second = Record([("B", Atom(2)), ("A", Atom(1))])
        assert first == second
        assert hash(first) == hash(second)

    def test_missing_field(self):
        record = Record([("A", Atom(1))])
        with pytest.raises(ValueError_):
            record.get("B")
        assert not record.has("B")

    def test_replace(self):
        record = Record([("A", Atom(1)), ("B", Atom(2))])
        updated = record.replace("A", Atom(9))
        assert updated.get("A") == Atom(9)
        assert updated.get("B") == Atom(2)
        assert record.get("A") == Atom(1)  # original untouched
        with pytest.raises(ValueError_):
            record.replace("Z", Atom(0))

    def test_rejects_non_values(self):
        with pytest.raises(ValueError_):
            Record([("A", 1)])

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError_):
            Record([("A", Atom(1)), ("A", Atom(2))])
        with pytest.raises(ValueError_):
            Record([])


class TestSetValue:
    def test_extensional_equality(self):
        first = SetValue([Atom(1), Atom(2)])
        second = SetValue([Atom(2), Atom(1), Atom(2)])
        assert first == second
        assert len(second) == 2

    def test_membership(self):
        s = SetValue([Atom(1)])
        assert Atom(1) in s
        assert Atom(2) not in s

    def test_empty(self):
        assert EMPTY_SET.is_empty
        assert len(EMPTY_SET) == 0
        assert not SetValue([Atom(1)]).is_empty

    def test_singleton(self):
        single = SetValue([Atom(7)])
        assert single.is_singleton
        assert single.the_element() == Atom(7)
        with pytest.raises(ValueError_):
            SetValue([Atom(1), Atom(2)]).the_element()
        with pytest.raises(ValueError_):
            EMPTY_SET.the_element()

    def test_iteration_is_deterministic(self):
        s = SetValue([Atom(3), Atom(1), Atom(2)])
        assert list(s) == list(s)

    def test_union_intersection_add(self):
        a = SetValue([Atom(1), Atom(2)])
        b = SetValue([Atom(2), Atom(3)])
        assert a.union(b) == SetValue([Atom(1), Atom(2), Atom(3)])
        assert a.intersection(b) == SetValue([Atom(2)])
        assert a.add(Atom(9)) == SetValue([Atom(1), Atom(2), Atom(9)])

    def test_records_as_elements(self):
        r1 = Record([("A", Atom(1))])
        r2 = Record([("A", Atom(1))])
        s = SetValue([r1, r2])
        assert len(s) == 1  # structurally equal records collapse

    def test_sets_of_sets_compare(self):
        inner1 = SetValue([Atom(1)])
        inner2 = SetValue([Atom(1)])
        assert SetValue([inner1]) == SetValue([inner2])

    def test_rejects_non_values(self):
        with pytest.raises(ValueError_):
            SetValue([1, 2])


class TestCachedHashes:
    """Structural hashes are computed at construction and cached; the
    cache must be invisible — equal values hash equal no matter how
    they were built."""

    def test_record_hash_ignores_label_order(self):
        r1 = Record([("A", Atom(1)), ("B", Atom(2))])
        r2 = Record([("B", Atom(2)), ("A", Atom(1))])
        assert r1 == r2
        assert hash(r1) == hash(r2)

    def test_record_hash_distinguishes_values(self):
        r1 = Record([("A", Atom(1))])
        r2 = Record([("A", Atom(2))])
        assert hash(r1) != hash(r2) or r1 != r2  # hash law only

    def test_set_hash_ignores_order_and_duplicates(self):
        s1 = SetValue([Atom(1), Atom(2), Atom(3)])
        s2 = SetValue([Atom(3), Atom(1), Atom(2), Atom(1)])
        assert s1 == s2
        assert hash(s1) == hash(s2)

    def test_nested_values_hash_equal_when_equal(self):
        v1 = Record([("A", SetValue([Record([("B", Atom(1)),
                                             ("C", Atom(2))])]))])
        v2 = Record([("A", SetValue([Record([("C", Atom(2)),
                                             ("B", Atom(1))])]))])
        assert v1 == v2
        assert hash(v1) == hash(v2)

    def test_hash_stable_across_uses(self):
        s = SetValue([Record([("A", Atom(n))]) for n in range(3)])
        before = hash(s)
        list(s)          # populates the cached iteration order
        {s: "probe"}     # exercises __hash__ via a dict
        assert hash(s) == before

    def test_atoms_keep_cross_type_hash_laws(self):
        # equal values must hash equal; these are unequal by design
        assert Atom(True) != Atom(1)
        assert Atom("1") != Atom(1)
        assert hash(Atom(5)) == hash(Atom(5))


class TestFreezeThaw:
    """The plain-data round trip values take through stream spills and
    checkpoints: :func:`to_python` out, :func:`value_of_json` back.  The
    rebuilt values are indistinguishable from constructor-built ones —
    equal, equal-hashed, and usable as dict/set keys."""

    def _round_trip(self, value):
        from repro.values import to_python, value_of_json
        import pickle
        rebuilt = value_of_json(pickle.loads(pickle.dumps(
            to_python(value))))
        assert rebuilt == value
        assert hash(rebuilt) == hash(value)
        assert {rebuilt: 1}[value] == 1
        return rebuilt

    def test_atoms(self):
        for raw in (5, "x", True, False, 1.5, 0.0, -3, 2**70):
            rebuilt = self._round_trip(Atom(raw))
            # rebuilt atoms keep the exact scalar type
            assert type(rebuilt.value) is type(raw)

    def test_nested(self):
        value = Record([("A", Atom(1)),
                        ("B", SetValue([Record([("C", Atom("x"))]),
                                        Record([("C", Atom("y"))])])),
                        ("D", EMPTY_SET)])
        rebuilt = self._round_trip(value)
        assert rebuilt.get("B").is_set()
        assert len(rebuilt.get("B")) == 2

    def test_none_passes_through(self):
        # a checkpoint row keeps None in its no-clash slots beside the
        # plain data; the round trip leaves it as it is
        import pickle
        from repro.values import to_python
        row = pickle.loads(pickle.dumps(
            [to_python(Atom(1)), None, to_python(EMPTY_SET), None]))
        assert row == [1, None, [], None]

    def test_frozen_form_is_plain_data(self):
        from repro.values import to_python
        data = to_python(Record([("A", SetValue([Atom(1)]))]))
        def plain(data):
            if isinstance(data, dict):
                return all(isinstance(label, str) and plain(sub)
                           for label, sub in data.items())
            if isinstance(data, list):
                return all(plain(item) for item in data)
            return isinstance(data, (int, float, str, bool))
        assert plain(data)

    def test_rejects_non_values(self):
        from repro.values import to_python
        with pytest.raises(ValueError_):
            to_python(42)

    def test_numeric_type_tags_survive(self):
        # 1, 1.0, True are distinct-typed scalars; rebuilding must not
        # merge them (their hashes embed the type name)
        from repro.values import to_python, value_of_json
        rebuilt = [value_of_json(to_python(Atom(raw)))
                   for raw in (1, 1.0, True)]
        assert rebuilt[0] != rebuilt[1]
        assert rebuilt[0] != rebuilt[2]
        assert rebuilt[1] != rebuilt[2]
