"""Unit tests for the closure engine as a query server — its memo,
copy-on-write probes and batches, all keyed by frozensets of paths —
and the Sigma fingerprint."""

import pytest

from repro.errors import InferenceError
from repro.generators import workloads
from repro.inference import (
    ClosureEngine,
    NonEmptySpec,
    sigma_fingerprint,
)
from repro.nfd import parse_nfd, parse_nfds
from repro.paths import parse_path
from repro.server import EnginePool
from repro.server import pool as pool_module
from repro.types import parse_schema


def _paths(*texts):
    return frozenset(parse_path(t) for t in texts)


@pytest.fixture
def course():
    return workloads.course_schema(), workloads.course_sigma()


class TestFingerprint:
    def test_member_order_does_not_matter(self, course):
        schema, sigma = course
        assert sigma_fingerprint(schema, sigma) == \
            sigma_fingerprint(schema, list(reversed(sigma)))

    def test_duplicate_members_collapse(self, course):
        schema, sigma = course
        assert sigma_fingerprint(schema, sigma) == \
            sigma_fingerprint(schema, sigma + [sigma[0]])

    def test_lhs_order_does_not_matter(self, course):
        schema, _ = course
        first = parse_nfd("Course:[time, students:sid -> cnum]")
        second = parse_nfd("Course:[students:sid, time -> cnum]")
        assert sigma_fingerprint(schema, [first]) == \
            sigma_fingerprint(schema, [second])

    def test_record_field_order_does_not_matter(self):
        first = parse_schema("R = {<a: string, b: int>}")
        second = parse_schema("R = {<b: int, a: string>}")
        sigma = parse_nfds("R:[a -> b]")
        assert sigma_fingerprint(first, sigma) == \
            sigma_fingerprint(second, sigma)

    def test_sigma_content_matters(self, course):
        schema, sigma = course
        assert sigma_fingerprint(schema, sigma) != \
            sigma_fingerprint(schema, sigma[:-1])

    def test_nonempty_spec_matters(self, course):
        schema, sigma = course
        gated = NonEmptySpec({parse_path("Course")})
        assert sigma_fingerprint(schema, sigma) != \
            sigma_fingerprint(schema, sigma, gated)

    def test_all_nonempty_equals_default(self, course):
        schema, sigma = course
        assert sigma_fingerprint(schema, sigma) == \
            sigma_fingerprint(schema, sigma,
                              NonEmptySpec.all_nonempty())

    def test_session_exposes_fingerprint(self, course):
        schema, sigma = course
        session = ClosureEngine(schema, sigma)
        assert session.fingerprint == sigma_fingerprint(schema, sigma)
        assert session.fingerprint == \
            ClosureEngine(schema,
                          list(reversed(sigma))).fingerprint


class TestMemo:
    def test_hits_and_misses(self, course):
        schema, sigma = course
        session = ClosureEngine(schema, sigma)
        first = session.closure_simple("Course", _paths("cnum"))
        again = session.closure_simple("Course", _paths("cnum"))
        assert first == again
        stats = session.stats
        assert stats.queries == 2
        assert stats.hits == 1
        assert stats.hit_rate == 0.5
        # a held key is read off the engine: no second saturation
        assert stats.saturations == 1

    def test_seed_reuse(self, course):
        schema, sigma = course
        session = ClosureEngine(schema, sigma)
        session.closure_simple("Course", _paths("cnum"))
        assert session.stats.dense_seeds == 0
        seeded = session.closure_simple("Course", _paths("cnum", "time"))
        assert session.stats.dense_seeds == 1
        fresh = ClosureEngine(schema, sigma)
        assert seeded == fresh.closure_simple("Course",
                                              _paths("cnum", "time"))

    def test_eviction_is_bounded_lru(self, course, monkeypatch):
        """The daemon's pool bounds each entry: past the bound a session
        is folded into the retired totals and dropped after the
        request, and the next request rebuilds it."""
        monkeypatch.setattr(pool_module, "MAX_ENGINE_QUERIES", 4)
        schema, sigma = course
        base = parse_path("Course")

        pool = EnginePool()
        entry = pool.entry_for(schema, sigma, None)
        pool.closure_batch(entry, [(base, _paths("cnum"))])
        pool.trim(entry)
        kept = entry.session
        assert kept is not None  # under the bound: kept warm
        pool.closure_batch(entry, [(base, _paths("time")),
                                   (base, _paths("books:isbn"))])
        pool.trim(entry)
        assert entry.session is None
        assert pool.engine_totals()["closure_queries"] == 3
        pool.closure_batch(entry, [(base, _paths("cnum"))])
        assert entry.session is not kept
        assert pool.stats.session_builds == 2
        assert pool.engine_totals()["closure_queries"] == 4

    def test_eviction_forgets_engine_state(self, course, monkeypatch):
        monkeypatch.setattr(pool_module, "MAX_ENGINE_QUERIES", 1)
        schema, sigma = course
        base = parse_path("Course")

        pool = EnginePool()
        entry = pool.entry_for(schema, sigma, None)
        pool.closure_batch(entry, [(base, _paths("time"))])
        pool.trim(entry)
        assert entry.session is None
        pool.closure_batch(entry, [(base, _paths("cnum"))])
        state = entry.session._dense_states["Course"]
        assert _paths("time") not in state.acc
        assert _paths("cnum") in state.acc

    def test_max_memo_must_be_positive(self, course):
        """The engine takes no ``max_memo``: its query state is the memo."""
        schema, sigma = course
        with pytest.raises(TypeError):
            ClosureEngine(schema, sigma, max_memo=0)

    def test_implies_matches_engine(self, course):
        schema, sigma = course
        session = ClosureEngine(schema, sigma)
        engine = ClosureEngine(schema, sigma)
        for text in ["Course:[cnum -> time]",
                     "Course:[time, students:sid -> books]",
                     "Course:students:[sid -> grade]",
                     "Course:[time -> cnum]"]:
            nfd = parse_nfd(text)
            assert session.implies(nfd) == engine.implies(nfd), text

    def test_stats_text(self, course):
        schema, sigma = course
        session = ClosureEngine(schema, sigma)
        session.implies(parse_nfd("Course:[cnum -> time]"))
        text = session.stats.query_text()
        assert text.startswith("session stats (fingerprint ")
        assert "engine stats:" in text


class TestCopyOnWriteProbes:
    def test_without_drops_one_member(self, course):
        schema, sigma = course
        session = ClosureEngine(schema, sigma)
        probe = session.without(0)
        assert list(probe.sigma) == sigma[1:]
        assert probe._pool is session._pool
        assert probe.fingerprint != session.fingerprint

    def test_with_added_appends(self, course):
        schema, sigma = course
        session = ClosureEngine(schema, sigma)
        extra = parse_nfd("Course:[time -> cnum]")
        probe = session.with_added(extra)
        assert list(probe.sigma) == sigma + [extra]
        assert probe._pool is session._pool
        assert probe.implies(extra)

    def test_replaced_preserves_order(self, course):
        schema, sigma = course
        session = ClosureEngine(schema, sigma)
        replacement = parse_nfd("Course:[cnum -> students]")
        probe = session.replace(4, replacement)
        expected = list(sigma)
        expected[4] = replacement
        assert list(probe.sigma) == expected
        assert probe._pool is session._pool

    def test_probe_answers_match_fresh_engines(self, course):
        schema, sigma = course
        session = ClosureEngine(schema, sigma)
        target = parse_nfd("Course:[time, students:sid -> books]")
        for index in range(len(sigma)):
            rest = sigma[:index] + sigma[index + 1:]
            assert session.without(index).implies(target) == \
                ClosureEngine(schema, rest).implies(target), index


class TestStrategyAndBatches:
    def test_closure_batch_matches_mapped_closure(self, course):
        schema, sigma = course
        base = parse_path("Course")
        queries = [(base, _paths("cnum")),
                   (base, _paths("cnum", "time")),
                   (base, _paths("books"))]
        batch = ClosureEngine(schema, sigma).closure_batch(queries)
        fresh = ClosureEngine(schema, sigma)
        assert batch == [fresh.closure(b, lhs) for b, lhs in queries]

    def test_covers_batch_matches_membership(self, course):
        schema, sigma = course
        base = parse_path("Course")
        candidates = [_paths("cnum"), _paths("time")]
        targets = _paths("time", "books")
        session = ClosureEngine(schema, sigma)
        fresh = ClosureEngine(schema, sigma)
        assert session.covers_batch(base, candidates, targets) == [
            targets <= fresh.closure(base, c) for c in candidates
        ]

    def test_implies_all_matches_per_member(self, course):
        schema, sigma = course
        session = ClosureEngine(schema, sigma)
        assert session.implies_all(sigma)
        bogus = parse_nfd("Course:[time -> cnum]")
        assert session.implies_all(list(sigma) + [bogus]) == \
            all(ClosureEngine(schema, sigma).implies(nfd)
                for nfd in list(sigma) + [bogus])

    def test_diff_mismatch_names_snapshot_misuse(self, course):
        schema, sigma = course
        mine = ClosureEngine(schema, sigma).snapshot()
        other = ClosureEngine(schema, sigma[:-1]).snapshot()
        with pytest.raises(InferenceError,
                           match=r"snapshot\(\) calls taken from the "
                                 r"\*same\* engine"):
            mine.diff(other)
