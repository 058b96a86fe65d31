"""Unit tests for FD carryover under nest/unnest."""

import pytest

from repro.analysis import (
    fd_after_unnest,
    nfd_after_nest,
    nfds_after_unnest,
)
from repro.errors import InferenceError
from repro.inference import FD
from repro.nfd import ValidatorEngine, parse_nfd
from repro.types import parse_schema, Schema
from repro.values import Instance, nest, nest_type, unnest


class TestTranslationSyntax:
    def test_grouping_attribute_fd(self):
        nfd = nfd_after_nest("R", FD({"A"}, "D"), ["B", "C"], "N")
        assert nfd == parse_nfd("R:[A -> D]")

    def test_nested_attribute_fd(self):
        nfd = nfd_after_nest("R", FD({"A"}, "B"), ["B", "C"], "N")
        assert nfd == parse_nfd("R:[A -> N:B]")

    def test_mixed_fd(self):
        nfd = nfd_after_nest("R", FD({"A", "B"}, "C"), ["B", "C"], "N")
        assert nfd == parse_nfd("R:[A, N:B -> N:C]")

    def test_unnest_direction(self):
        assert fd_after_unnest(parse_nfd("R:[A -> N:B]"), "N") == \
            FD({"A"}, "B")
        with pytest.raises(InferenceError):
            fd_after_unnest(parse_nfd("R:[A -> N]"), "N")
        with pytest.raises(InferenceError):
            fd_after_unnest(parse_nfd("R:[A -> N:B:C]"), "N")
        with pytest.raises(InferenceError):
            fd_after_unnest(parse_nfd("R:N:[B -> C]"), "N")

    def test_unnest_batch_drops_untranslatable(self):
        nfds = [parse_nfd("R:[A -> N:B]"), parse_nfd("R:[A -> N]")]
        assert nfds_after_unnest(nfds, "N") == [FD({"A"}, "B")]


class TestSemanticPreservation:
    """nest(I) satisfies the translated NFD iff I satisfied the FD."""

    def _flat(self, rows):
        schema = parse_schema("R = {<A, B, C>}")
        return schema, Instance(schema, {"R": rows})

    def _nested(self, flat_schema, flat_instance):
        nested_type = nest_type(flat_schema.relation_type("R"), "N",
                                ["B", "C"])
        nested_schema = Schema({"R": nested_type})
        nested_value = nest(flat_instance.relation("R"), "N", ["B", "C"])
        return Instance(nested_schema, {"R": nested_value})

    def test_preserved_fd(self):
        schema, flat = self._flat([
            {"A": 1, "B": 10, "C": 100},
            {"A": 1, "B": 11, "C": 110},
            {"A": 2, "B": 10, "C": 100},
        ])
        nested = self._nested(schema, flat)
        # B -> C holds flat; translated it must hold nested.
        nfd = nfd_after_nest("R", FD({"B"}, "C"), ["B", "C"], "N")
        assert ValidatorEngine(nested.schema, [nfd]).check(nested)

    def test_violated_fd_stays_violated(self):
        schema, flat = self._flat([
            {"A": 1, "B": 10, "C": 100},
            {"A": 2, "B": 10, "C": 999},
        ])
        nested = self._nested(schema, flat)
        nfd = nfd_after_nest("R", FD({"B"}, "C"), ["B", "C"], "N")
        assert not ValidatorEngine(nested.schema, [nfd]).check(nested)

    def test_roundtrip_on_random_data(self, rng):
        schema = parse_schema("R = {<A, B, C>}")
        for _ in range(30):
            rows = [
                {"A": rng.randrange(2), "B": rng.randrange(2),
                 "C": rng.randrange(2)}
                for _ in range(4)
            ]
            flat = Instance(schema, {"R": rows})
            nested = self._nested(schema, flat)
            for lhs in (["A"], ["B"], ["A", "B"]):
                fd = FD(set(lhs), "C")
                flat_holds = ValidatorEngine(schema, [
                    parse_nfd(f"R:[{', '.join(lhs)} -> C]")]).check(flat)
                nested_holds = ValidatorEngine(nested.schema, [
                    nfd_after_nest("R", fd, ["B", "C"], "N")]).check(nested)
                assert flat_holds == nested_holds, (rows, fd)
