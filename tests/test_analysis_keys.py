"""Unit tests for key discovery."""

from repro.analysis import is_key, key_nfds, local_minimal_keys, \
    minimal_keys
from repro.generators import workloads
from repro.inference import ClosureEngine, NonEmptySpec
from repro.nfd import parse_nfds
from repro.paths import parse_path
from repro.types import parse_schema


class TestMinimalKeys:
    def test_cnum_is_the_course_key(self):
        schema = workloads.course_schema()
        keys = minimal_keys(schema, workloads.course_sigma(), "Course")
        assert frozenset({parse_path("cnum")}) in keys

    def test_time_sid_is_not_a_top_level_key(self):
        # time + students:sid determine cnum, but students:sid is not a
        # top-level attribute, so it does not appear in key discovery.
        schema = workloads.course_schema()
        keys = minimal_keys(schema, workloads.course_sigma(), "Course")
        flattened = {frozenset(str(p) for p in key) for key in keys}
        assert {"time"} not in flattened

    def test_composite_minimal_key(self):
        schema = parse_schema("R = {<A, B, C>}")
        sigma = parse_nfds("R:[A, B -> C]")
        keys = minimal_keys(schema, sigma, "R")
        assert keys == [frozenset({parse_path("A"), parse_path("B")})]

    def test_supersets_excluded(self):
        schema = parse_schema("R = {<A, B>}")
        sigma = parse_nfds("R:[A -> B]")
        keys = minimal_keys(schema, sigma, "R")
        assert frozenset({parse_path("A")}) in keys
        assert frozenset({parse_path("A"), parse_path("B")}) not in keys


class TestGatedKeys:
    """Regression: the sweep must honour the nonempty spec (it used to
    build its engine without one, silently answering in plain mode)."""

    def _workload(self):
        schema = parse_schema("R = {<a: string, b: {<c: int>}>}")
        sigma = parse_nfds("R:[b:c -> a]")
        return schema, sigma

    def test_plain_mode_shortens_the_prefix(self):
        schema, sigma = self._workload()
        keys = minimal_keys(schema, sigma, "R")
        assert keys == [frozenset({parse_path("b")})]

    def test_gated_mode_blocks_the_shortening(self):
        # with only R declared non-empty, b may be empty, so b:c -> a
        # cannot be shortened to b -> a: {b} is no longer a key and the
        # minimal key grows to {a, b}
        schema, sigma = self._workload()
        spec = NonEmptySpec({parse_path("R")})
        keys = minimal_keys(schema, sigma, "R", nonempty=spec)
        assert keys == [frozenset({parse_path("a"), parse_path("b")})]

    def test_supplied_engine_spec_is_authoritative(self):
        schema, sigma = self._workload()
        spec = NonEmptySpec({parse_path("R")})
        session = ClosureEngine(schema, sigma, spec)
        keys = minimal_keys(schema, sigma, "R", engine=session)
        assert keys == [frozenset({parse_path("a"), parse_path("b")})]

    def test_bare_engine_matches_the_built_one(self):
        """A plain :class:`ClosureEngine` serves the sweep: its keys
        equal the ones ``minimal_keys`` finds on the engine it builds,
        plain and gated, at the relation and at a nested base."""
        schema, sigma = workloads.course_schema(), workloads.course_sigma()
        assert minimal_keys(schema, sigma, "Course",
                            engine=ClosureEngine(schema, sigma)) == \
            minimal_keys(schema, sigma, "Course")
        students = parse_path("Course:students")
        assert local_minimal_keys(schema, sigma, students,
                                  ClosureEngine(schema, sigma)) == \
            local_minimal_keys(schema, sigma, students)
        schema, sigma = self._workload()
        spec = NonEmptySpec({parse_path("R")})
        assert minimal_keys(schema, sigma, "R",
                            engine=ClosureEngine(schema, sigma, spec)) == \
            minimal_keys(schema, sigma, "R", nonempty=spec)

    def test_local_keys_accept_the_spec(self):
        schema = workloads.course_schema()
        spec = NonEmptySpec.all_nonempty()
        keys = local_minimal_keys(schema, workloads.course_sigma(),
                                  parse_path("Course:students"),
                                  nonempty=spec)
        assert frozenset({parse_path("sid")}) in keys


class TestLocalKeys:
    def test_sid_is_a_local_student_key(self):
        schema = workloads.course_schema()
        keys = local_minimal_keys(schema, workloads.course_sigma(),
                                  parse_path("Course:students"))
        # sid determines grade locally; age needs the global constraint
        # pushed down, which holds too (sid -> age globally).
        assert frozenset({parse_path("sid")}) in keys


class TestIsKeyAndDeclaration:
    def test_is_key(self):
        schema = parse_schema("R = {<A, B>}")
        engine = ClosureEngine(schema, parse_nfds("R:[A -> B]"))
        assert is_key(engine, parse_path("R"), {parse_path("A")})
        assert not is_key(engine, parse_path("R"), {parse_path("B")})

    def test_key_nfds_roundtrip(self):
        schema = parse_schema("R = {<A, B, C>}")
        declared = key_nfds(parse_path("R"), {parse_path("A")},
                            ["A", "B", "C"])
        assert len(declared) == 2  # A -> B, A -> C
        engine = ClosureEngine(schema, declared)
        assert is_key(engine, parse_path("R"), {parse_path("A")})
