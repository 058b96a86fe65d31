"""Unit tests for minimal covers."""

from repro.analysis import covers, is_redundant, minimal_cover, \
    non_redundant
from repro.generators import workloads
from repro.inference import ClosureEngine, equivalent_sets
from repro.inference.closure import pool_build_count
from repro.nfd import parse_nfd, parse_nfds
from repro.types import parse_schema


class TestCovers:
    def test_direction_matters(self):
        schema = parse_schema("R = {<A, B, C>}")
        strong = parse_nfds("R:[A -> B]\nR:[B -> C]")
        weak = parse_nfds("R:[A -> C]")
        assert covers(schema, strong, weak)
        assert not covers(schema, weak, strong)


class TestNonRedundant:
    def test_drops_derived_member(self):
        schema = parse_schema("R = {<A, B, C>}")
        sigma = parse_nfds("R:[A -> B]\nR:[B -> C]\nR:[A -> C]")
        reduced = non_redundant(schema, sigma)
        assert parse_nfd("R:[A -> C]") not in reduced
        assert len(reduced) == 2
        assert equivalent_sets(schema, sigma, reduced)

    def test_is_redundant(self):
        schema = parse_schema("R = {<A, B, C>}")
        sigma = parse_nfds("R:[A -> B]\nR:[B -> C]\nR:[A -> C]")
        assert is_redundant(schema, sigma, 2)
        assert not is_redundant(schema, sigma, 0)


class TestMinimalCover:
    def test_shrinks_lhs(self):
        schema = parse_schema("R = {<A, B, C>}")
        sigma = parse_nfds("R:[A -> B]\nR:[A, B -> C]")
        cover = minimal_cover(schema, sigma)
        # A -> B makes B redundant in the second LHS.
        assert parse_nfd("R:[A -> C]") in cover
        assert equivalent_sets(schema, sigma, cover)

    def test_fixpoint(self):
        schema = parse_schema("R = {<A, B, C>}")
        sigma = parse_nfds("R:[A -> B]\nR:[B -> C]")
        cover = minimal_cover(schema, sigma)
        assert minimal_cover(schema, cover) == cover

    def test_nested_cover(self):
        schema = workloads.course_schema()
        sigma = workloads.course_sigma()
        cover = minimal_cover(schema, sigma)
        assert equivalent_sets(schema, sigma, cover)
        assert len(cover) <= len(sigma)

    def test_trivial_members_removed(self):
        schema = parse_schema("R = {<A, B>}")
        sigma = parse_nfds("R:[A -> A]\nR:[A -> B]")
        cover = minimal_cover(schema, sigma)
        assert parse_nfd("R:[A -> A]") not in cover

    def test_single_pool_build(self):
        """Every shrink and redundancy probe is a copy-on-write session,
        so the whole cover compiles exactly one Sigma pool."""
        schema = workloads.course_schema()
        sigma = workloads.course_sigma() + parse_nfds(
            "Course:[cnum, time -> students]\n"
            "Course:[cnum, books:isbn -> books:title]")
        before = pool_build_count()
        cover = minimal_cover(schema, sigma)
        assert pool_build_count() - before == 1
        assert equivalent_sets(schema, sigma, cover)

    def test_supplied_session_means_zero_builds(self):
        schema = parse_schema("R = {<A, B, C>}")
        sigma = parse_nfds("R:[A -> B]\nR:[B -> C]\nR:[A, B -> C]")
        session = ClosureEngine(schema, sigma)
        before = pool_build_count()
        minimal_cover(schema, sigma, session=session)
        assert pool_build_count() - before == 0
