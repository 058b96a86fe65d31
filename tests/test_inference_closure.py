"""Unit tests for the closure engine (Theorem 3.1's decision procedure)."""

import pytest

from repro.errors import InferenceError
from repro.generators import workloads
from repro.inference import ClosureEngine
from repro.nfd import parse_nfd, parse_nfds
from repro.paths import parse_path
from repro.types import parse_schema


def _paths(*texts):
    return {parse_path(t) for t in texts}


class TestSection31:
    def test_headline_claim(self, section_3_1_engine):
        assert section_3_1_engine.implies(parse_nfd("R:A:[B -> E]"))

    def test_closure_at_nested_base(self, section_3_1_engine):
        closed = section_3_1_engine.closure(parse_path("R:A"),
                                            _paths("B"))
        assert closed == _paths("B", "E", "E:F", "E:G")

    def test_every_intermediate_step(self, section_3_1_engine):
        for text in ["R:A:[B:C -> E:F]", "R:A:[B -> E:F]",
                     "R:A:E:[∅ -> F]", "R:A:[E -> E:F]",
                     "R:A:E:[∅ -> G]", "R:A:[E -> E:G]",
                     "R:A:[E:F, E:G -> E]"]:
            assert section_3_1_engine.implies(parse_nfd(text)), text

    def test_non_implications(self, section_3_1_engine):
        for text in ["R:A:[B -> B:C]", "R:[D -> A:B:C]", "R:A:[E -> B]",
                     "R:[A -> D]", "R:A:B:[∅ -> C]"]:
            assert not section_3_1_engine.implies(parse_nfd(text)), text


class TestAppendixAClosures:
    def test_example_a1(self):
        engine = ClosureEngine(workloads.example_a1_schema(),
                               workloads.example_a1_sigma())
        closed = engine.closure(parse_path("R"), _paths("B"))
        assert closed == _paths("B", "B:C", "D", "E:F", "H", "H:J")

    def test_example_a2(self):
        engine = ClosureEngine(workloads.example_a2_schema(),
                               workloads.example_a2_sigma())
        closed = engine.closure(parse_path("R"), _paths("A:B:C"))
        assert closed == _paths("A:B:C", "A:B", "A:B:D", "A:B:E:F")


class TestArmstrongBehaviour:
    """On flat schemas the engine is the classical closure."""

    @pytest.fixture
    def flat_engine(self):
        schema = parse_schema("R = {<A, B, C, D>}")
        sigma = parse_nfds("""
            R:[A -> B]
            R:[B -> C]
        """)
        return ClosureEngine(schema, sigma)

    def test_transitive_chain(self, flat_engine):
        closed = flat_engine.closure(parse_path("R"), _paths("A"))
        assert closed == _paths("A", "B", "C")

    def test_reflexivity_and_augmentation(self, flat_engine):
        assert flat_engine.implies(parse_nfd("R:[A, D -> A]"))
        assert flat_engine.implies(parse_nfd("R:[A, D -> C]"))

    def test_no_overreach(self, flat_engine):
        assert not flat_engine.implies(parse_nfd("R:[B -> A]"))
        assert not flat_engine.implies(parse_nfd("R:[C -> D]"))


class TestIntroScenario:
    """The introduction's motivating inference: sid and time determine
    the set of books."""

    def test_books_by_sid_and_time(self, course_engine):
        assert course_engine.implies(
            parse_nfd("Course:[students:sid, time -> books]"))

    def test_via_cnum(self, course_engine):
        # time, sid -> cnum (given) and cnum is a key -> books.
        assert course_engine.implies(
            parse_nfd("Course:[students:sid, time -> students]"))
        assert not course_engine.implies(
            parse_nfd("Course:[students:sid -> books]"))


class TestEquivalentForms:
    """Push-in/pull-out equivalence at the engine level."""

    def test_local_iff_global_form(self, course_engine):
        local = parse_nfd("Course:students:[sid -> grade]")
        global_form = parse_nfd(
            "Course:[students, students:sid -> students:grade]")
        assert course_engine.implies(local)
        assert course_engine.implies(global_form)

    def test_example_3_1_full_locality(self):
        schema = workloads.example_3_1_schema()
        f1 = workloads.example_3_1_nfd()
        engine = ClosureEngine(schema, [f1])
        # derivable with locality + push-in:
        assert engine.implies(
            parse_nfd("R:[A, A:B:C, A:D -> A:B:E]"))
        # needs full-locality (Example 3.1's point):
        assert engine.implies(parse_nfd("R:[A:B, A:B:C -> A:B:E]"))
        # but the dependency without the set itself is NOT implied:
        assert not engine.implies(parse_nfd("R:[A:B:C -> A:B:E]"))


class TestValidation:
    def test_ill_formed_sigma_rejected(self):
        schema = parse_schema("R = {<A, B>}")
        with pytest.raises(Exception):
            ClosureEngine(schema, [parse_nfd("R:[nope -> B]")])

    def test_ill_formed_query_rejected(self, course_engine):
        with pytest.raises(InferenceError):
            course_engine.implies(parse_nfd("Course:[nope -> time]"))
        with pytest.raises(InferenceError):
            course_engine.closure_simple("Nope", [])

    def test_queries_are_cached(self, section_3_1_engine):
        first = section_3_1_engine.closure(parse_path("R:A"), _paths("B"))
        second = section_3_1_engine.closure(parse_path("R:A"), _paths("B"))
        assert first == second


class TestSingletonReasoning:
    def test_determined_attributes_pin_the_set(self):
        # R:[D -> A:B], R:[D -> A:C] forces A singleton; hence D -> A.
        schema = parse_schema("R = {<A: {<B, C>}, D>}")
        sigma = parse_nfds("""
            R:[D -> A:B]
            R:[D -> A:C]
        """)
        engine = ClosureEngine(schema, sigma)
        assert engine.implies(parse_nfd("R:[D -> A]"))

    def test_partial_attributes_do_not(self):
        schema = parse_schema("R = {<A: {<B, C>}, D>}")
        engine = ClosureEngine(schema, parse_nfds("R:[D -> A:B]"))
        assert not engine.implies(parse_nfd("R:[D -> A]"))


class TestBaseValidation:
    """The closure base is validated up front (not via stray
    IndexError/KeyError escapes)."""

    def test_empty_base_rejected(self, course_engine):
        with pytest.raises(InferenceError, match="bad closure base"):
            course_engine.closure(parse_path(""), _paths("cnum"))

    def test_unknown_relation_rejected(self, course_engine):
        with pytest.raises(InferenceError, match="relation"):
            course_engine.closure(parse_path("Nope"), _paths("cnum"))

    def test_ill_typed_base_tail_rejected(self, course_engine):
        with pytest.raises(InferenceError, match="bad closure base"):
            course_engine.closure(parse_path("Course:nope"), set())

    def test_non_set_base_rejected(self, course_engine):
        # cnum is atomic: the base must reach a set-valued position
        with pytest.raises(InferenceError, match="set-valued"):
            course_engine.closure(parse_path("Course:cnum"), set())


class TestStrategies:
    def test_unknown_strategy_rejected(self, course_schema, course_sigma):
        # one engine: the retired keyword is refused, never ignored
        for strategy in ("magic", "worklist", "dense"):
            with pytest.raises(TypeError, match="strategy"):
                ClosureEngine(course_schema, course_sigma,
                              strategy=strategy)

    def test_naive_reference_agrees(self, course_schema, course_sigma):
        engine = ClosureEngine(course_schema, course_sigma)
        for text in ["Course:[students:sid, time -> books]",
                     "Course:[students:sid -> books]",
                     "Course:students:[sid -> grade]",
                     "Course:[cnum -> time]"]:
            nfd = parse_nfd(text)
            assert engine.implies(nfd) == (
                nfd.rhs in engine.reference_closure(nfd.base, nfd.lhs)), \
                text


class TestEngineStats:
    def test_counters_accumulate(self, course_schema, course_sigma):
        engine = ClosureEngine(course_schema, course_sigma)
        assert engine.stats.attempts == 0
        engine.implies(parse_nfd("Course:[students:sid, time -> books]"))
        stats = engine.stats
        assert stats.attempts > 0
        assert 0 < stats.successes <= stats.attempts
        assert stats.saturations >= 1
        assert stats.rounds >= 1
        assert stats.wall_time > 0
        assert stats.held["Course"] >= 1
        assert stats.derived["Course"] >= 1
        assert stats.usables["Course"] >= len(course_sigma)
        assert stats.candidates["Course"] == 2  # students, books

    def test_warm_queries_add_no_attempts(self, course_engine):
        nfd = parse_nfd("Course:[students:sid, time -> books]")
        course_engine.implies(nfd)
        cold = course_engine.stats.attempts
        course_engine.implies(nfd)
        assert course_engine.stats.attempts == cold

    def test_snapshot_is_plain_data(self, course_engine):
        course_engine.implies(parse_nfd("Course:[cnum -> time]"))
        payload = course_engine.stats.as_dict()
        assert set(payload) >= {"attempts", "successes", "rounds",
                                "usables", "queries", "derived"}
        text = course_engine.stats.to_text()
        assert "apply attempts" in text
        assert "Course" in text


class TestWithout:
    def test_matches_fresh_rest_engine(self, course_schema, course_sigma):
        engine = ClosureEngine(course_schema, course_sigma)
        for index, member in enumerate(course_sigma):
            sibling = engine.without(index)
            rest = list(course_sigma[:index]) + \
                list(course_sigma[index + 1:])
            fresh = ClosureEngine(course_schema, rest)
            assert sibling.implies(member) == fresh.implies(member)

    def test_shares_schema_precomputation(self, course_engine):
        sibling = course_engine.without(0)
        assert sibling._pool is course_engine._pool
        assert len(sibling.sigma) == len(course_engine.sigma) - 1

    def test_out_of_range_rejected(self, course_engine):
        with pytest.raises(InferenceError, match="index"):
            course_engine.without(len(course_engine.sigma))
        with pytest.raises(InferenceError, match="index"):
            course_engine.without(-1)


class TestGatedPrefixCoverage:
    """Coverage considers every admissible covering path.

    With ``R:A:B`` declared non-empty but ``R:A`` not, the member
    ``A:B:C`` of ``[A:B:C -> E]`` fails the Section 3.2 intermediate
    gate itself (it traverses the undeclared ``A``), yet the gated
    prefix rule may shorten it to ``A:B`` — which is in the query key
    and therefore exempt.  A greedy member-first coverage (the
    pre-worklist engine) missed this derivation once ``A:B:C`` entered
    the closure; considering all covering options keeps the step rule
    monotone and complete for the gated system.
    """

    @pytest.fixture
    def gated_setup(self):
        from repro.inference import NonEmptySpec

        schema = parse_schema("R = {<A: {<B: {<C>}>}, E>}")
        sigma = parse_nfds("""
            R:[A:B -> A:B:C]
            R:[A:B:C -> E]
        """)
        spec = NonEmptySpec({parse_path("R"), parse_path("R:A:B")})
        return schema, sigma, spec

    def test_prefix_covered_member_fires(self, gated_setup):
        schema, sigma, spec = gated_setup
        engine = ClosureEngine(schema, sigma, nonempty=spec)
        nfd = parse_nfd("R:[A:B -> E]")
        assert engine.implies(nfd)
        assert nfd.rhs in engine.reference_closure(nfd.base, nfd.lhs)

    def test_blocked_without_declaration(self, gated_setup):
        from repro.inference import NonEmptySpec

        schema, sigma, _ = gated_setup
        # withhold R:A:B as well: now the shortening is gated off too
        spec = NonEmptySpec({parse_path("R")})
        engine = ClosureEngine(schema, sigma, nonempty=spec)
        assert not engine.implies(parse_nfd("R:[A:B -> E]"))


class TestDenseStrategy:
    """The interned-bitmask kernel: the engine's one saturation."""

    def test_agrees_with_worklist(self, course_schema, course_sigma):
        # every single-path closure, at the relation and a nested base,
        # equals the naive reference the worklist engine was held to
        engine = ClosureEngine(course_schema, course_sigma)
        for base, texts in [("Course", ["cnum", "time", "books",
                                        "students:sid"]),
                            ("Course:students", ["sid", "grade"])]:
            for text in texts:
                lhs = _paths(text)
                assert engine.closure(parse_path(base), lhs) == \
                    engine.reference_closure(parse_path(base), lhs), \
                    (base, text)

    def test_closure_many_matches_mapped(self, course_schema,
                                         course_sigma):
        base = parse_path("Course")
        queries = [(base, _paths("cnum")), (base, _paths("time")),
                   (base, _paths("cnum", "time")), (base, frozenset())]
        batch = ClosureEngine(course_schema, course_sigma) \
            .closure_batch(queries)
        fresh = ClosureEngine(course_schema, course_sigma)
        assert batch == [fresh.closure(b, lhs) for b, lhs in queries]

    def test_covers_many_matches_membership(self, course_schema,
                                            course_sigma):
        base = parse_path("Course")
        candidates = [_paths("cnum"), _paths("time"), _paths("books")]
        targets = _paths("time", "books")
        engine = ClosureEngine(course_schema, course_sigma)
        verdicts = engine.covers_batch(base, candidates, targets)
        fresh = ClosureEngine(course_schema, course_sigma)
        assert verdicts == [targets <= fresh.closure(base, c)
                            for c in candidates]

    def test_covers_many_rejects_bad_paths(self, course_schema,
                                           course_sigma):
        engine = ClosureEngine(course_schema, course_sigma)
        with pytest.raises(InferenceError, match="not well-typed"):
            engine.covers_batch(parse_path("Course"),
                               [_paths("nope")], _paths("time"))

    def test_explain_and_prove_on_a_gated_engine(self, course_schema,
                                                 course_sigma):
        from repro.inference import NonEmptySpec, compile_proof

        spec = NonEmptySpec({parse_path("Course"),
                             parse_path("Course:students")})
        engine = ClosureEngine(course_schema, course_sigma, nonempty=spec)
        nfd = parse_nfd("Course:[students:sid, time -> books]")
        assert engine.implies(nfd)
        text = engine.explain(nfd).to_text()
        assert text.startswith(f"{nfd} holds:")
        assert "(no recorded step)" not in text
        assert compile_proof(engine, nfd).conclusion() == nfd

    def test_stats_report_kernel_counters(self, course_schema,
                                          course_sigma):
        engine = ClosureEngine(course_schema, course_sigma)
        engine.implies(parse_nfd("Course:[students:sid, time -> books]"))
        stats = engine.stats
        assert stats.mask_tests > 0
        assert stats.interned["Course"] > 0
        payload = stats.as_metrics()
        assert payload["mask_tests"] == stats.mask_tests
        assert payload["dense_seeds"] == stats.dense_seeds
        assert payload["interned"] == stats.interned
        text = stats.to_text()
        assert "mask tests" in text
        assert "interned ids" in text

    def test_diff_mismatch_names_snapshot_misuse(self, course_schema,
                                                 course_sigma):
        engine = ClosureEngine(course_schema, course_sigma)
        before = engine.snapshot()
        engine.implies(parse_nfd("Course:[cnum -> time]"))
        after = engine.snapshot()
        assert after.diff(before).saturations >= 1
        with pytest.raises(InferenceError,
                           match=r"snapshot\(\) calls taken from the "
                                 r"\*same\* engine"):
            before.diff(after)

    def test_batch_seeding_counts(self, course_schema, course_sigma):
        engine = ClosureEngine(course_schema, course_sigma)
        base = parse_path("Course")
        engine.closure_batch([(base, _paths("cnum")),
                             (base, _paths("cnum", "time"))])
        # the two-member query must have seeded from the one-member one
        assert engine.stats.dense_seeds >= 1

    def test_fired_rows_leave_the_query_row_lists(self):
        """After a batch of key-style queries, no query keeps a row
        whose rhs it already derived: fired rows are dead weight, and
        dropping them is what bounds the kernel's per-query memory."""
        import random
        from itertools import combinations

        from repro.paths import Path

        rng = random.Random("fired-rows")
        names = [f"a{i}" for i in range(11)]
        schema = parse_schema(
            "R = {<" + ", ".join(f"{name}: int" for name in names)
            + ", s: {<x: int, y: int>}>}")
        lines = []
        for _ in range(9):
            left, right, rhs = rng.sample(names, 3)
            lines.append(f"R:[{left}, {right} -> {rhs}]")
        lines.append(f"R:[{', '.join(rng.sample(names, 3))} -> s]")
        lines.append("R:s:[x -> y]")
        sigma = parse_nfds("\n".join(lines))
        session = ClosureEngine(schema, sigma)
        attributes = [Path((label,)) for label in [*names, "s"]]
        # every one-, two- and three-attribute combination, as one batch
        candidates = [frozenset(combo) for size in (1, 2, 3)
                      for combo in combinations(attributes, size)]
        session.covers_batch(Path(("R",)), candidates, attributes)
        state = session._dense_states["R"]
        assert len(state.acc) > 100
        for key, acc in state.acc.items():
            assert not any(acc & row[0] for row in state.qrows[key]), key


class TestReferenceCost:
    @pytest.mark.parametrize("workload", ["flat", "course"])
    def test_reference_cost_does_not_grow_with_held_queries(self,
                                                            workload):
        """The reference re-attempts usables on the query it is asked
        (and on held queries only after a singleton activation appends
        usables): a query costs the same ``_apply_usable`` calls on an
        engine holding one earlier query as on one holding dozens."""
        from itertools import combinations

        from repro.paths import Path, relation_paths

        if workload == "flat":
            names = [f"a{i}" for i in range(10)]
            schema = parse_schema(
                "R = {<" + ", ".join(f"{n}: int" for n in names) + ">}")
            sigma = parse_nfds("\n".join(
                [f"R:[a{i} -> a{i + 1}]" for i in range(0, 8, 2)]
                + ["R:[a1, a3 -> a9]", "R:[a9 -> a0]"]))
            relation = "R"
        else:
            schema = workloads.course_schema()
            sigma = workloads.course_sigma()
            relation = "Course"
        base = Path((relation,))
        paths = relation_paths(schema, relation)
        top = [path for path in paths if len(path) == 1]
        asked = frozenset(top[1:4])
        calls = {}

        def counted_engine():
            engine = ClosureEngine(schema, sigma)
            apply_usable = engine._apply_usable

            def counted(*args):
                calls[engine] = calls.get(engine, 0) + 1
                return apply_usable(*args)

            engine._apply_usable = counted
            return engine

        def cost(engine):
            before = calls.get(engine, 0)
            engine.reference_closure(base, asked)
            return calls[engine] - before

        few, many = counted_engine(), counted_engine()
        few.reference_closure(base, [top[0]])
        many.reference_closure(base, [top[0]])
        for size in (1, 2):
            for combo in combinations(paths, size):
                many.reference_closure(base, combo)
        assert len(many._references[relation].queries) > 40
        assert cost(many) == cost(few) > 0
        assert few.reference_closure(base, asked) == \
            many.reference_closure(base, asked) == \
            ClosureEngine(schema, sigma).closure(base, asked)

