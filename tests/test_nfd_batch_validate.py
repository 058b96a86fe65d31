"""Unit tests for the single-pass batch validation engine."""

from collections import Counter

import pytest

from repro.errors import NFDError
from repro.nfd import (
    ValidatorEngine,
    parse_nfd,
    parse_nfds,
    satisfies,
)
from repro.nfd.satisfy import keyed_bindings, traversed_prefixes
from repro.types import parse_schema
from repro.values import Atom, Instance


class TestValidate:
    def test_clean_instance_passes(self, course_schema, course_sigma,
                                   course_instance):
        engine = ValidatorEngine(course_schema, course_sigma)
        result = engine.validate(course_instance)
        assert result.ok
        assert bool(result) is True
        assert result.violations == ()
        assert engine.check(course_instance) is True

    def test_broken_instance_reports_each_failed_nfd(self):
        schema = parse_schema("R = {<A, B, C>}")
        sigma = parse_nfds("R:[A -> B]\nR:[A -> C]\nR:[B -> C]")
        instance = Instance(schema, {"R": [
            {"A": 1, "B": 1, "C": 1},
            {"A": 1, "B": 2, "C": 1},   # breaks A->B only
        ]})
        engine = ValidatorEngine(schema, sigma)
        result = engine.validate(instance)
        assert not result.ok
        assert result.failed == (sigma[0],)
        assert satisfies(instance, sigma[0]) is False

    def test_violations_ordered_by_sigma_position(self):
        schema = parse_schema("R = {<A, B, C>}")
        sigma = parse_nfds("R:[A -> C]\nR:[B -> C]")
        instance = Instance(schema, {"R": [
            {"A": 1, "B": 1, "C": 1},
            {"A": 1, "B": 1, "C": 2},   # breaks both
        ]})
        engine = ValidatorEngine(schema, sigma)
        result = engine.validate(instance, all_violations=True)
        assert [v.nfd for v in result.violations] == list(sigma)
        grouped = result.by_nfd()
        assert set(grouped) == set(sigma)

    def test_exhaustive_mode_one_witness_per_key(self):
        schema = parse_schema("R = {<A, B>}")
        instance = Instance(schema, {"R": [
            {"A": 1, "B": 1}, {"A": 1, "B": 2},
            {"A": 2, "B": 3}, {"A": 2, "B": 4},
            {"A": 3, "B": 5},
        ]})
        engine = ValidatorEngine(schema, [parse_nfd("R:[A -> B]")])
        witnesses = engine.find_violations(instance)
        assert {w.lhs_values for w in witnesses} == \
            {(Atom(1),), (Atom(2),)}

    def test_first_only_mode_stops_at_one_witness_per_nfd(self):
        schema = parse_schema("R = {<A, B>}")
        instance = Instance(schema, {"R": [
            {"A": 1, "B": 1}, {"A": 1, "B": 2},
            {"A": 2, "B": 3}, {"A": 2, "B": 4},
        ]})
        engine = ValidatorEngine(schema, [parse_nfd("R:[A -> B]")])
        result = engine.validate(instance)
        assert len(result.violations) == 1

    def test_local_nfd_violation_carries_base_index(self):
        schema = parse_schema("R = {<A, B: {<C, D>}>}")
        instance = Instance(schema, {"R": [
            {"A": 1, "B": [{"C": 1, "D": 1}]},
            {"A": 2, "B": [{"C": 1, "D": 1}, {"C": 1, "D": 2}]},
        ]})
        engine = ValidatorEngine(schema, [parse_nfd("R:B:[C -> D]")])
        result = engine.validate(instance)
        assert not result.ok
        assert result.violations[0].base_index in (0, 1)

    def test_empty_sets_trigger_escape_clause(self):
        """A path through an empty set is undefined: the element
        constrains nothing (Definition 2.4)."""
        schema = parse_schema("R = {<A, B: {<C>}>}")
        instance = Instance(schema, {"R": [
            {"A": 1, "B": [{"C": 1}]},
            {"A": 1, "B": []},          # B:C undefined here
        ]})
        engine = ValidatorEngine(schema, [parse_nfd("R:[A -> B:C]")])
        assert engine.check(instance) is True

    def test_rejects_ill_formed_nfd(self, course_schema):
        with pytest.raises(NFDError):
            ValidatorEngine(course_schema,
                            [parse_nfd("Course:[nope -> time]")])

    def test_shared_base_paths_compile_into_one_anchor(self,
                                                       course_schema):
        sigma = parse_nfds(
            "Course:[cnum -> time]\nCourse:[cnum -> books]")
        one = ValidatorEngine(course_schema, sigma[:1])
        both = ValidatorEngine(course_schema, sigma)
        # cnum/time/books merge into one trie: adding the second NFD
        # costs two extra trie nodes (books leaf), not a second plan tree.
        assert both.stats.trie_nodes < 2 * one.stats.trie_nodes


class TestStats:
    def test_counters_accumulate(self, course_schema, course_sigma,
                                 course_instance):
        engine = ValidatorEngine(course_schema, course_sigma)
        assert engine.stats.validations == 0
        engine.check(course_instance)
        stats = engine.stats
        assert stats.validations == 1
        assert stats.elements_walked > 0
        assert stats.bindings_emitted > 0
        assert stats.base_sets > 0
        assert stats.trie_nodes > 0
        assert stats.wall_time > 0
        engine.check(course_instance)
        assert engine.stats.validations == 2
        assert engine.stats.elements_walked > stats.elements_walked

    def test_groups_keyed_by_nfd_text(self, course_schema, course_sigma,
                                      course_instance):
        engine = ValidatorEngine(course_schema, course_sigma)
        engine.check(course_instance)
        groups = engine.stats.groups
        assert set(groups) == {str(nfd) for nfd in course_sigma}
        assert all(count >= 0 for count in groups.values())

    def test_as_dict_and_to_text(self, course_schema, course_sigma,
                                 course_instance):
        engine = ValidatorEngine(course_schema, course_sigma)
        engine.check(course_instance)
        snapshot = engine.stats.as_dict()
        assert snapshot["validations"] == 1
        assert isinstance(snapshot["groups"], dict)
        text = engine.stats.to_text()
        assert "validator stats" in text
        assert "elements walked" in text


class TestRowQueries:
    def test_bindings_of_matches_keyed_bindings(self, course_schema,
                                                course_sigma,
                                                course_instance):
        global_nfds = [nfd for nfd in course_sigma if nfd.is_simple]
        engine = ValidatorEngine(course_schema, course_sigma)
        for element in course_instance.relation("Course"):
            per_nfd = dict(engine.bindings_of("Course", element))
            assert set(per_nfd) == set(global_nfds)
            for nfd in global_nfds:
                paths = sorted(nfd.all_paths)
                expected = keyed_bindings(nfd, element,
                                          traversed_prefixes(paths))
                assert Counter(per_nfd[nfd]) == Counter(expected)

    def test_bindings_of_undefined_path_is_empty(self):
        schema = parse_schema("R = {<A, B: {<C>}>}")
        nfd = parse_nfd("R:[A -> B:C]")
        engine = ValidatorEngine(schema, [nfd])
        instance = Instance(schema, {"R": [{"A": 1, "B": []}]})
        element = next(iter(instance.relation("R")))
        assert engine.bindings_of("R", element) == [(nfd, [])]

    def test_bindings_of_unknown_relation(self, course_schema,
                                          course_sigma):
        engine = ValidatorEngine(course_schema, course_sigma)
        assert engine.bindings_of("Nowhere", None) == []

    def test_row_violates_local_nfd(self):
        schema = parse_schema("R = {<A, B: {<C, D>}>}")
        nfd = parse_nfd("R:B:[C -> D]")
        engine = ValidatorEngine(schema, [nfd])
        good = Instance(schema, {"R": [
            {"A": 1, "B": [{"C": 1, "D": 1}]}]})
        bad = Instance(schema, {"R": [
            {"A": 1, "B": [{"C": 1, "D": 1}, {"C": 1, "D": 2}]}]})
        assert engine.row_violates(
            nfd, next(iter(good.relation("R")))) is False
        assert engine.row_violates(
            nfd, next(iter(bad.relation("R")))) is True

    def test_row_violates_requires_known_nfd(self, course_schema,
                                             course_sigma,
                                             course_instance):
        engine = ValidatorEngine(course_schema, course_sigma)
        stranger = parse_nfd("Course:[time -> cnum]")
        element = next(iter(course_instance.relation("Course")))
        with pytest.raises(KeyError):
            engine.row_violates(stranger, element)
