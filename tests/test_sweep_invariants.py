"""Invariants the offline sweeps rely on to skip repeated work.

``normalize --sweep`` and ``keys`` ask the §3 closure thousands of
times over one fixed Σ.  They avoid re-deriving what is already
answered: the session fingerprint is hashed only when read, candidate
assessment skips carried NFDs its enforced Σ states, projection is
memoized per synthesis, and the key sweep is indexed by masks.  Each
test here pins one of those shortcuts to the full computation it
replaces.
"""

import json
import random
from itertools import combinations

import pytest

from repro.analysis.cover import minimal_cover
from repro.design.bcnf import bcnf_violations, project_fds
from repro.design.synthesize import (
    _Projection,
    _assess_candidate,
    _enforced_sigma,
    _plan_components,
    candidate_plans,
)
from repro.errors import InferenceError
from repro.generators import random_flat_schema, workloads
from repro.generators.nfds import random_design_sigma
from repro.inference import (
    ClosureEngine,
    NonEmptySpec,
    sigma_fingerprint,
)
from repro.inference.armstrong import FD, attribute_closure, nfd_to_fd
from repro.io import load_bundle
from repro.nfd import parse_nfd
from repro.paths import Path

from .test_offline_outputs import _wide_key_bundle


@pytest.fixture
def course():
    return workloads.course_schema(), workloads.course_sigma()


def _sweep_inputs(count=50, seed=0, rules=4, max_fields=5):
    """The flat schemas and Σs ``sweep_normalize(count, seed=seed)``
    generates, one per index, with their minimal covers."""
    for index in range(count):
        rng = random.Random(f"normalize:{seed}:{index}")
        schema = random_flat_schema(rng, max_fields=max_fields)
        sigma = random_design_sigma(rng, schema, fallback_count=rules)
        [relation] = schema.relation_names
        cover_nfds = minimal_cover(schema, sigma)
        flat_type = schema.relation_type(relation)
        attributes = tuple(label for label, _ in flat_type.element.fields)
        yield (schema, relation, flat_type, attributes, cover_nfds,
               [nfd_to_fd(nfd) for nfd in cover_nfds])


class TestLazyFingerprint:
    def test_base_session_hashes_on_first_read(self, course):
        schema, sigma = course
        session = ClosureEngine(schema, sigma)
        assert session._fingerprint is None
        assert session.fingerprint == sigma_fingerprint(schema, sigma)
        assert session._fingerprint == session.fingerprint

    def test_gated_session(self, course):
        schema, sigma = course
        spec = NonEmptySpec({Path(("Course",))})
        session = ClosureEngine(schema, sigma, spec)
        assert session.fingerprint == sigma_fingerprint(schema, sigma,
                                                        spec)

    def test_probes(self, course):
        schema, sigma = course
        session = ClosureEngine(schema, sigma)
        extra = parse_nfd("Course:[time -> cnum]")
        probes = {
            "without": (session.without(1),
                        sigma[:1] + sigma[2:]),
            "with_added": (session.with_added(extra), sigma + [extra]),
            "replaced": (session.replace(0, extra),
                         [extra] + sigma[1:]),
        }
        for name, (probe, expected) in probes.items():
            assert probe._fingerprint is None, name
            assert probe.fingerprint == \
                sigma_fingerprint(schema, expected), name

    def test_pool_session_takes_the_pool_fingerprint(self, course):
        from repro.server.pool import EnginePool

        schema, sigma = course
        pool = EnginePool()
        entry = pool.entry_for(schema, sigma, None)
        session = pool.session_for(entry)
        assert session._fingerprint == entry.fingerprint == \
            sigma_fingerprint(schema, sigma)

    def test_diff_across_sessions_still_raises(self, course):
        schema, sigma = course
        first = ClosureEngine(schema, sigma)
        second = ClosureEngine(schema, sigma[:-1])
        with pytest.raises(InferenceError, match="different engines"):
            second.stats.diff(first.stats)
        # same Σ, another session: the fingerprints agree, so it diffs
        third = ClosureEngine(schema, list(reversed(sigma)))
        assert third.stats.diff(first.stats).queries == 0


def _reference_assessment(report, nonempty):
    """Full assessment with no shortcut: every carried NFD goes through
    one session over the enforced Σ, and every deep placement through
    its own copy-on-write probe."""
    carried = report.nfds()
    preserved = True
    if carried:
        preserved = ClosureEngine(
            report.schema, _enforced_sigma(report),
            nonempty).implies_all(carried)
    probe = report.make_session(nonempty)
    unenforceable = sum(
        1 for placement in report.placements
        if not report.locally_enforceable(placement, session=probe))
    return unenforceable, preserved


class TestAssessCandidate:
    @pytest.mark.parametrize("nonempty", [None,
                                          NonEmptySpec.all_nonempty()],
                             ids=["plain", "gated"])
    def test_matches_full_assessment_on_the_sweep(self, nonempty):
        checked = skipped = 0
        for (_, relation, flat_type, attributes, _,
             cover) in _sweep_inputs():
            for plan in candidate_plans(relation, attributes, cover):
                report = plan.report(flat_type, cover)
                assert _assess_candidate(report, nonempty, None) == \
                    _reference_assessment(report, nonempty)
                checked += 1
                stated = set(_enforced_sigma(report))
                skipped += all(nfd in stated for nfd in report.nfds())
        assert checked > 100
        # the shortcut is live: at least the flat identity plan of every
        # schema states all it carries and needs no session at all
        assert skipped >= 50


class TestProjectionMemo:
    def test_redundancy_equals_unmemoized_projection(self):
        for (schema, relation, flat_type, attributes, cover_nfds,
             cover) in _sweep_inputs():
            projection = _Projection(schema, cover_nfds, None, relation,
                                     attributes, cover)
            plans = candidate_plans(relation, attributes, cover)
            # twice over: the second pass answers from the memos
            for _ in range(2):
                for components in [[attributes]] + [
                        _plan_components(plan) for plan in plans]:
                    expected = sum(
                        len(bcnf_violations(
                            component,
                            project_fds(attributes, cover, component)))
                        for component in components)
                    assert projection.redundancy(components) == expected

    def test_closure_equals_attribute_closure(self):
        for (schema, relation, _, attributes, cover_nfds,
             cover) in _sweep_inputs(count=20):
            projection = _Projection(schema, cover_nfds, None, relation,
                                     attributes, cover)
            for size in range(1, len(attributes) + 1):
                for combo in combinations(attributes, size):
                    assert projection.closure(combo) == \
                        attribute_closure(combo, cover)


def _reference_project_fds(attributes, fds, subset):
    """FD projection with the dominance test scanning every projected
    FD, as first written."""
    subset_tuple = tuple(dict.fromkeys(subset))
    projected = []
    for size in range(1, len(subset_tuple) + 1):
        for combo in combinations(subset_tuple, size):
            closed = attribute_closure(combo, fds)
            for attribute in subset_tuple:
                if attribute in combo or attribute not in closed:
                    continue
                candidate = FD(combo, attribute)
                if not any(other.rhs == attribute
                           and other.lhs < candidate.lhs
                           for other in projected):
                    projected.append(candidate)
    return projected


class TestProjectFds:
    def test_same_fds_in_the_same_order(self):
        rng = random.Random(11)
        attributes = tuple("abcdef")
        for _ in range(60):
            fds = [FD(rng.sample(attributes, rng.randint(1, 2)),
                      rng.choice(attributes))
                   for _ in range(rng.randint(1, 6))]
            subset = rng.sample(attributes, rng.randint(1, 6))
            assert project_fds(attributes, fds, subset) == \
                _reference_project_fds(attributes, fds, subset)


class TestCoversManyOrder:
    def test_shuffled_candidates_same_verdicts_and_work(self):
        schema, sigma, _ = load_bundle(
            json.dumps(_wide_key_bundle()))
        attributes = [Path((label,)) for label in
                      schema.element_type("R").labels]
        candidates = [frozenset(combo)
                      for size in range(1, 5)
                      for combo in combinations(attributes, size)]
        shuffled = list(candidates)
        random.Random(3).shuffle(shuffled)
        base = Path(("R",))

        ordered_engine = ClosureEngine(schema, sigma)
        ordered = ordered_engine.covers_batch(base, candidates,
                                              attributes)
        shuffled_engine = ClosureEngine(schema, sigma)
        verdicts = shuffled_engine.covers_batch(base, shuffled,
                                                attributes)

        assert dict(zip(shuffled, verdicts)) == \
            dict(zip(candidates, ordered))
        first, second = ordered_engine.stats, shuffled_engine.stats
        for counter in ("saturations", "rounds", "attempts",
                        "successes", "mask_tests", "dense_seeds"):
            assert getattr(first, counter) == getattr(second, counter), \
                counter
        # and the mask-only verdicts agree with materialized closures
        reference = ClosureEngine(schema, sigma)
        assert ordered == [
            set(attributes) <= reference.closure(base, candidate)
            for candidate in candidates]
