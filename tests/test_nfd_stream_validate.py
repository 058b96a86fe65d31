"""Unit tests for the out-of-core streaming validation engine.

The differential property suite
(:mod:`tests.properties.test_stream_validate_differential`) covers the
randomized equivalence claims; these tests pin the targeted behaviors:
budget-bounded spilling, cooperative cancellation, canonical key
encoding, tracer invariance, and a numpy-free ``check --stream``.
"""

import pytest

from repro.errors import InstanceError, ValueError_
from repro.io.stream import iter_set_elements
from repro.nfd import (
    ResourceBudget,
    StreamStats,
    ValidatorEngine,
    parse_nfds,
    stream_validate,
)
from repro.obs import Tracer
from repro.values import Atom, Instance, Record, SetValue, to_python
from repro.values.canonical import canonical_bytes, canonical_key_bytes


def _sources(instance):
    return {name: iter_set_elements(value)
            for name, value in instance.relations()}


def _describe(violations):
    return [v.describe() for v in violations]


@pytest.fixture
def conflicted_course(course_schema, course_instance):
    """course_instance plus a cnum-clash: one element re-dumped with a
    different time, so ``Course:[cnum -> time]`` fails."""
    elements = list(course_instance.relation("Course"))
    elements.append(elements[0].replace("time", Atom(99)))
    return Instance(course_schema, {"Course": SetValue(elements)})


@pytest.fixture
def nested_conflict_course(course_schema, course_instance):
    """course_instance plus a course whose students set gives one sid
    two grades, so the nested ``Course:students:[sid -> grade]`` fails."""
    rows = [to_python(e) for e in course_instance.relation("Course")]
    rows.append({"cnum": "cis700", "time": 9,
                 "students": [{"sid": 1, "age": 20, "grade": "A"},
                              {"sid": 1, "age": 21, "grade": "B"}],
                 "books": [{"isbn": 7, "title": "Nested FDs"}]})
    return Instance(course_schema, {"Course": rows})


class TestStreamValidate:
    def test_clean_instance_is_ok(self, course_schema, course_sigma,
                                  course_instance):
        result = stream_validate(course_schema, course_sigma,
                                 _sources(course_instance))
        assert result.ok
        assert bool(result) is True
        assert result.violations == ()
        assert result.budget_exhausted is None
        assert result.stats.elements_seen == \
            sum(len(v) for _, v in course_instance.relations())

    def test_violations_match_in_memory_engine(
            self, course_schema, course_sigma, conflicted_course):
        reference = ValidatorEngine(course_schema, course_sigma) \
            .validate(conflicted_course, all_violations=True)
        assert reference.violations
        result = stream_validate(course_schema, course_sigma,
                                 _sources(conflicted_course))
        assert not result.ok
        assert _describe(result.violations) == \
            _describe(reference.violations)

    def test_nested_violations_match_in_memory_engine(
            self, course_schema, course_sigma, nested_conflict_course):
        reference = ValidatorEngine(course_schema, course_sigma) \
            .validate(nested_conflict_course, all_violations=True)
        assert reference.violations
        result = stream_validate(course_schema, course_sigma,
                                 _sources(nested_conflict_course))
        assert _describe(result.violations) == \
            _describe(reference.violations)

    def test_tiny_budget_forces_spills_and_keeps_witnesses(
            self, course_schema, course_sigma, conflicted_course):
        reference = ValidatorEngine(course_schema, course_sigma) \
            .validate(conflicted_course, all_violations=True)
        budget = ResourceBudget(max_resident_rows=1)
        result = stream_validate(course_schema, course_sigma,
                                 _sources(conflicted_course),
                                 budget=budget)
        assert result.stats.spills >= 1
        assert result.stats.peak_resident_rows <= 1
        assert result.stats.rows_spilled > 0
        assert result.stats.runs_written >= 1
        assert result.stats.bytes_spilled > 0
        assert _describe(result.violations) == \
            _describe(reference.violations)

    def test_missing_source_raises(self, course_schema, course_sigma):
        with pytest.raises(InstanceError, match="Course"):
            stream_validate(course_schema, course_sigma, {})

    def test_explicit_spill_dir_is_left_in_place(
            self, tmp_path, course_schema, course_sigma,
            course_instance):
        spill = tmp_path / "spill"
        spill.mkdir()
        result = stream_validate(
            course_schema, course_sigma, _sources(course_instance),
            budget=ResourceBudget(max_resident_rows=1),
            spill_dir=str(spill))
        assert result.stats.spills >= 1
        assert spill.is_dir()  # caller-owned dir survives cleanup
        assert list(spill.iterdir()) == []  # but run files are removed


class TestBudgetExhaustion:
    def test_max_elements_stops_early(self, course_schema,
                                      course_sigma, course_instance):
        result = stream_validate(
            course_schema, course_sigma, _sources(course_instance),
            budget=ResourceBudget(max_elements=1))
        assert result.budget_exhausted == "max_elements"
        assert result.ok is False
        assert result.elements_seen == 1

    def test_zero_deadline_stops_immediately(
            self, course_schema, course_sigma, course_instance):
        result = stream_validate(
            course_schema, course_sigma, _sources(course_instance),
            budget=ResourceBudget(deadline=0.0))
        assert result.budget_exhausted == "deadline"
        assert result.ok is False
        assert result.elements_seen == 0

    def test_partial_prefix_is_still_checked(
            self, course_schema, conflicted_course):
        # The clashing pair shares the minimal cnum, so it occupies the
        # first two slots of the sorted walk: a 2-element prefix
        # already witnesses the violation.
        sigma = parse_nfds("Course:[cnum -> time]")
        reference = ValidatorEngine(course_schema, sigma).validate(
            conflicted_course, all_violations=True)
        assert reference.violations
        ordered = list(conflicted_course.relation("Course"))
        assert ordered[0].get("cnum") == ordered[1].get("cnum")
        result = stream_validate(
            course_schema, sigma, _sources(conflicted_course),
            budget=ResourceBudget(max_elements=2))
        assert result.budget_exhausted == "max_elements"
        assert _describe(result.violations) == \
            _describe(reference.violations)

    def test_budget_validation(self):
        with pytest.raises(ValueError_, match="max_resident_rows"):
            ResourceBudget(max_resident_rows=0)
        with pytest.raises(ValueError_, match="deadline"):
            ResourceBudget(deadline=-1.0)
        with pytest.raises(ValueError_, match="max_elements"):
            ResourceBudget(max_elements=-1)
        # NaN compares false with everything: it is no deadline at all
        with pytest.raises(ValueError_, match="deadline"):
            ResourceBudget(deadline=float("nan"))


class TestObservability:
    def test_tracer_invariance(self, course_schema, course_sigma,
                               conflicted_course):
        plain = stream_validate(course_schema, course_sigma,
                                _sources(conflicted_course))
        tracer = Tracer()
        traced = stream_validate(course_schema, course_sigma,
                                 _sources(conflicted_course),
                                 tracer=tracer)
        assert _describe(traced.violations) == \
            _describe(plain.violations)
        assert traced.stats.elements_seen == plain.stats.elements_seen
        assert [span.name for span in tracer.spans("stream.validate")]


class TestWitnessElementsBuilt:
    """Value trees are built only for witnesses and re-walked elements,
    and ``witness_elements_built`` counts them."""

    CONFLICTS = 3

    def _workload(self, conflicts: int):
        """200 courses; with *conflicts*, that many root clashes (a
        course re-listed with another time) and that many nested ones
        (a course grading one sid twice)."""
        import random
        from repro.generators import workloads
        rows = [to_python(e) for e in workloads.scaled_course_instance(
            random.Random(11), courses=200, students_per_course=2,
            books_per_course=1).relation("Course")]
        for n in range(conflicts):
            rows.append(dict(rows[n], time=rows[n]["time"] + 1000))
            nested = rows[100 + n]
            nested["students"] = nested["students"] + [
                {"sid": 9000 + n, "age": 1, "grade": "A"},
                {"sid": 9000 + n, "age": 1, "grade": "B"}]
        return rows

    def _stream(self, tmp_path, rows, extra=()):
        import json
        from repro.cli import main
        from repro.generators import workloads
        from repro.io import dump_bundle
        bundle = tmp_path / "bundle.json"
        bundle.write_text(dump_bundle(workloads.course_schema(),
                                      workloads.course_sigma()))
        stream = tmp_path / "course.jsonl"
        stream.write_text("".join(json.dumps(row) + "\n" for row in rows))
        metrics = tmp_path / "metrics.json"
        code = main(["check", str(bundle), "--stream", str(stream),
                     "--max-rows", "20", "--stats", "--metrics-json",
                     str(metrics), *extra])
        with open(metrics) as handle:
            return code, json.load(handle)["sections"]["stream"]

    def test_zero_on_a_satisfying_spilled_pass(self, tmp_path, capsys):
        code, stats = self._stream(tmp_path, self._workload(0))
        assert code == 0 and stats["spills"] >= 1
        assert stats["witness_elements_built"] == 0
        assert "witness elements built: 0" in capsys.readouterr().err

    # one plain run: check --stream has a single engine path
    @pytest.mark.parametrize("extra", [()], ids=["plain"])
    def test_bounded_by_witnesses_and_rewalks(self, tmp_path, capsys,
                                              extra):
        code, stats = self._stream(tmp_path, self._workload(
            self.CONFLICTS), extra)
        out = capsys.readouterr().out
        violations = int(out.rsplit("\n", 2)[-2].split()[0])
        assert code == 1 and stats["spills"] >= 1
        assert violations >= 2 * self.CONFLICTS
        # each nested clash re-walks its one course
        assert 0 < stats["witness_elements_built"] \
            <= 2 * violations + self.CONFLICTS


class TestPlainElements:
    """A plain JSON element is taken as the reader's checked output."""

    ROW = {"cnum": "c1", "time": 1,
           "students": [{"sid": 1, "age": 20, "grade": "A"}],
           "books": [{"isbn": 7, "title": "t"}]}

    def test_checked_json_binds_like_records(self, course_schema,
                                             course_sigma):
        from repro.values import from_python
        other = dict(self.ROW, time=2)
        plain = stream_validate(course_schema, course_sigma,
                                {"Course": [self.ROW, other]})
        values = stream_validate(
            course_schema, course_sigma,
            {"Course": [from_python(row, course_schema.element_type(
                "Course")) for row in (self.ROW, other)]})
        assert [v.describe() for v in plain.violations] == \
            [v.describe() for v in values.violations]
        assert not plain.ok

    @pytest.mark.parametrize("where", ["top", "nested"])
    def test_missing_field_is_a_path_error(self, tmp_path, course_schema,
                                           course_sigma, where):
        from repro.errors import PathError
        from repro.nfd.stream_validate import ResourceBudget
        row = dict(self.ROW)
        if where == "top":
            del row["time"]
        else:
            row["students"] = [{"sid": 1, "age": 20}]
        spill = tmp_path / "spill"
        spill.mkdir()
        with pytest.raises(PathError, match="Course element 2 has no "
                                            "field '(time|grade)'"):
            stream_validate(course_schema, course_sigma,
                            {"Course": [self.ROW, row]},
                            budget=ResourceBudget(max_resident_rows=1),
                            spill_dir=str(spill))
        assert list(spill.iterdir()) == []


class TestStreamStats:
    def test_as_metrics_matches_as_dict(self):
        stats = StreamStats(rows_emitted=4, spills=1)
        assert stats.as_metrics() == stats.as_dict()
        assert "rows emitted: 4" in stats.to_text()


class TestCanonicalBytes:
    def test_equal_records_with_permuted_fields_encode_equal(self):
        left = Record((("p", Atom(1)), ("q", Atom("x"))))
        right = Record((("q", Atom("x")), ("p", Atom(1))))
        assert left == right
        assert canonical_bytes(left) == canonical_bytes(right)

    def test_distinct_values_encode_distinct(self):
        values = [Atom(1), Atom("1"), Atom(True), Atom("true"),
                  SetValue((Atom(1),)), SetValue(())]
        encodings = [canonical_bytes(v) for v in values]
        assert len(set(encodings)) == len(encodings)

    def test_key_tuples_are_self_delimiting(self):
        # ("ab", "c") and ("a", "bc") must not collide
        left = canonical_key_bytes((Atom("ab"), Atom("c")))
        right = canonical_key_bytes((Atom("a"), Atom("bc")))
        assert left != right


class TestCleanup:
    """Spill hygiene: every exit path — normal finalize, a mid-stream
    :class:`~repro.errors.StreamError`, or leaving a ``with`` block via
    an exception — must leave no run files, no element-store sidecar,
    and no owned spill directory behind."""

    def _spilling_jsonl(self, tmp_path, course_instance, malformed):
        from repro.io.stream import dump_jsonl
        path = tmp_path / "course.jsonl"
        dump_jsonl(path, iter_set_elements(
            course_instance.relation("Course")))
        if malformed:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write("{not json\n")
        return path

    def test_spill_dir_emptied_after_stream_error(
            self, tmp_path, course_schema, course_sigma,
            course_instance):
        """A malformed line arriving *after* the first spill must not
        leak the runs (or the element sidecar) already on disk."""
        from repro.errors import StreamError
        from repro.io.stream import iter_jsonl_elements
        from repro.nfd.stream_validate import ResourceBudget
        path = self._spilling_jsonl(tmp_path, course_instance,
                                    malformed=True)
        spill = tmp_path / "spill"
        spill.mkdir()
        reader = iter_jsonl_elements(path, course_schema, "Course")
        with pytest.raises(StreamError):
            stream_validate(course_schema, course_sigma,
                            {"Course": reader},
                            budget=ResourceBudget(max_resident_rows=1),
                            spill_dir=str(spill))
        assert list(spill.iterdir()) == []  # caller's dir, emptied

    def test_owned_spill_dir_removed_after_stream_error(
            self, tmp_path, monkeypatch, course_schema, course_sigma,
            course_instance):
        """Without a caller-supplied dir the engine makes its own; an
        abnormal exit must remove the directory itself."""
        import os
        import tempfile
        from repro.errors import StreamError
        from repro.io.stream import iter_jsonl_elements
        from repro.nfd.stream_validate import ResourceBudget
        created = []
        real_mkdtemp = tempfile.mkdtemp

        def recording_mkdtemp(*args, **kwargs):
            path = real_mkdtemp(*args, **kwargs)
            created.append(path)
            return path

        monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
        path = self._spilling_jsonl(tmp_path, course_instance,
                                    malformed=True)
        reader = iter_jsonl_elements(path, course_schema, "Course")
        with pytest.raises(StreamError):
            stream_validate(course_schema, course_sigma,
                            {"Course": reader},
                            budget=ResourceBudget(max_resident_rows=1))
        assert created, "the engine never made its spill dir"
        for dir_path in created:
            assert not os.path.exists(dir_path)

    def test_context_manager_cleans_up_on_exception(
            self, tmp_path, course_schema, course_sigma,
            course_instance):
        from repro.nfd import StreamValidator
        spill = tmp_path / "spill"
        spill.mkdir()
        with pytest.raises(RuntimeError):
            with StreamValidator(
                    course_schema, course_sigma,
                    budget=ResourceBudget(max_resident_rows=1),
                    spill_dir=str(spill)) as validator:
                validator.consume("Course", iter_set_elements(
                    course_instance.relation("Course")))
                assert validator.stats.spills >= 1
                assert list(spill.iterdir())  # runs are on disk now
                raise RuntimeError("abandon mid-validation")
        assert list(spill.iterdir()) == []

    def test_context_manager_returns_validator(self, course_schema,
                                               course_sigma):
        from repro.nfd import StreamValidator
        with StreamValidator(course_schema, course_sigma) as validator:
            assert validator.stats.elements_seen == 0


class TestElementStore:
    """The witness sidecar: elements spill once, refs are stable, and
    point reads load the exact element back."""

    def test_refs_round_trip(self, tmp_path):
        import pickle
        from repro.nfd.stream_validate import _ElementStore
        store = _ElementStore(str(tmp_path / "elems.dat"))
        element = {"A": 1, "B": ["y", "x"]}
        ref = store.put(element)
        # the ref names the sidecar by its file name in the spill dir
        assert ref[0] == "@" and ref[1] == store.name == "elems.dat"
        again = store.put(element)   # same event: memoized, same ref
        assert again == ref
        store.end_event()
        store.close()
        with open(tmp_path / ref[1], "rb") as handle:
            handle.seek(ref[2])
            loaded = pickle.load(handle)
        assert loaded == element
        assert list(loaded) == ["A", "B"]  # field order kept

    def test_memo_resets_between_events(self, tmp_path):
        from repro.nfd.stream_validate import _ElementStore
        store = _ElementStore(str(tmp_path / "elems.dat"))
        element = {"A": 7}
        first = store.put(element)
        store.end_event()
        second = store.put(element)  # new event: a fresh write
        store.close()
        assert first != second

    # one plain run: check --stream has a single engine path
    @pytest.mark.parametrize("extra", [()], ids=["plain"])
    def test_spill_bytes_do_not_depend_on_the_spill_path(
            self, tmp_path, course_schema, course_sigma, extra, capsys):
        """Refs name a sidecar by its file name, so the same input
        spills the same bytes under spill roots of different path
        lengths, and prints the same witnesses."""
        import json
        import random
        from repro.cli import main
        from repro.generators import workloads
        from repro.io import dump_bundle
        instance = workloads.scaled_course_instance(
            random.Random(5), courses=40, students_per_course=3,
            books_per_course=2)
        rows = [to_python(e) for e in instance.relation("Course")]
        rows.append(dict(rows[0], time=-1))
        bundle = tmp_path / "bundle.json"
        bundle.write_text(dump_bundle(course_schema, course_sigma))
        path = tmp_path / "course.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        runs = []
        for root in ("r", "r" * 60):
            metrics = tmp_path / "metrics.json"
            code = main(["check", str(bundle), "--stream", str(path),
                         "--max-rows", "7", "--cache-dir",
                         str(tmp_path / root), "--metrics-json",
                         str(metrics), *extra])
            stream = json.loads(metrics.read_text())["sections"]["stream"]
            runs.append((code, capsys.readouterr().out,
                         stream["bytes_spilled"]))
        assert runs[0] == runs[1]
        assert runs[0][0] == 1 and runs[0][2] > 0

    def test_violating_witnesses_survive_the_sidecar(
            self, tmp_path, course_schema, course_sigma,
            conflicted_course):
        """End to end: with a 1-row budget every aggregate spills, so
        the witnesses the result carries were read back through refs —
        and must still equal the in-memory engine's."""
        reference = ValidatorEngine(course_schema, course_sigma) \
            .validate(conflicted_course, all_violations=True)
        result = stream_validate(
            course_schema, course_sigma, _sources(conflicted_course),
            budget=ResourceBudget(max_resident_rows=1))
        assert result.stats.spills >= 1
        assert _describe(result.violations) == \
            _describe(reference.violations)
        for violation in result.violations:
            assert violation.element1.is_record()


class TestTornSpillFiles:
    """A spill file damaged between ``consume`` and ``finalize`` is a
    :class:`~repro.errors.StreamError`, never a result: a run torn at a
    chunk boundary would otherwise read as a shorter valid run and drop
    the groups that violate."""

    CONFLICTS = 11

    def _consumed(self, validator):
        import random
        from repro.generators import workloads
        elements = list(workloads.scaled_course_instance(
            random.Random(5), courses=200, students_per_course=2,
            books_per_course=1).relation("Course"))
        elements += [element.replace("time", Atom(-1))
                     for element in elements[:self.CONFLICTS]]
        validator.consume("Course", elements)
        assert validator.stats.spills >= 1

    def _validator(self, spill, course_schema, course_sigma):
        from repro.nfd import StreamValidator
        return StreamValidator(course_schema, course_sigma,
                               budget=ResourceBudget(max_resident_rows=20),
                               spill_dir=str(spill))

    def test_intact_spill_files_find_every_conflict(
            self, tmp_path, course_schema, course_sigma):
        with self._validator(tmp_path, course_schema,
                             course_sigma) as validator:
            self._consumed(validator)
            result = validator.finalize()
        clashes = [v for v in result.violations
                   if str(v.nfd) == "Course:[cnum -> time]"]
        assert len(clashes) == self.CONFLICTS
        assert list(tmp_path.iterdir()) == []

    def test_run_torn_at_chunk_boundary_raises(
            self, tmp_path, course_schema, course_sigma):
        import pickle
        from repro.errors import StreamError
        with self._validator(tmp_path, course_schema,
                             course_sigma) as validator:
            self._consumed(validator)
            runs = sorted(tmp_path.glob("run-*.pkl"))
            assert runs
            for run in runs:
                # cut each run back to where its last chunk starts: a
                # clean pickle boundary, so only the count can tell
                with open(run, "rb") as handle:
                    starts = []
                    while True:
                        offset = handle.tell()
                        try:
                            pickle.load(handle)
                        except EOFError:
                            break
                        starts.append(offset)
                with open(run, "r+b") as handle:
                    handle.truncate(starts[-1])
            with pytest.raises(StreamError, match="spill run"):
                validator.finalize()
        assert list(tmp_path.iterdir()) == []

    def test_truncated_sidecar_raises(self, tmp_path, course_schema,
                                      course_sigma):
        from repro.errors import StreamError
        with self._validator(tmp_path, course_schema,
                             course_sigma) as validator:
            self._consumed(validator)
            [sidecar] = tmp_path.glob("elems-*.dat")
            validator._elem_store.end_event()
            with open(sidecar, "r+b") as handle:
                handle.truncate(1)
            with pytest.raises(StreamError, match="sidecar"):
                validator.finalize()
        assert list(tmp_path.iterdir()) == []


class TestNoNumpy:
    """The streaming engine is pure stdlib: a spilling ``check
    --stream`` run never imports numpy."""

    def test_spilling_check_stream_never_imports_numpy(
            self, tmp_path, course_schema, course_sigma,
            conflicted_course):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.io import dump_bundle
        from repro.io.stream import dump_jsonl
        bundle = tmp_path / "course.json"
        bundle.write_text(dump_bundle(course_schema, course_sigma,
                                      conflicted_course))
        stream = tmp_path / "course.jsonl"
        dump_jsonl(stream, iter_set_elements(
            conflicted_course.relation("Course")))
        script = (
            "import json, sys\n"
            "from repro.cli import main\n"
            "bundle, stream, out = sys.argv[1:]\n"
            "base = ['check', bundle, '--stream', stream,"
            " '--max-rows', '1']\n"
            "codes = [main(base + ['--metrics-json', f'{out}.0'])]\n"
            "print(json.dumps({'codes': codes,"
            " 'numpy': 'numpy' in sys.modules}))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]]
                          if env.get("PYTHONPATH") else []))
        metrics = tmp_path / "metrics"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(bundle), str(stream),
             str(metrics)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        verdict = json.loads(proc.stdout.strip().splitlines()[-1])
        assert verdict == {"codes": [1], "numpy": False}
        with open(f"{metrics}.0") as handle:
            stats = json.load(handle)["sections"]["stream"]
        assert stats["spills"] >= 1
        assert stats["peak_resident_rows"] <= 1


class TestCompiledBinder:
    """The binder and the reader's checker are compiled from generated
    source that depends on (schema, Σ) alone, and compiled once per
    process for a given source."""

    SCRIPT = (
        "from repro.generators import workloads\n"
        "from repro.io.stream import checker_source\n"
        "from repro.nfd import parse_nfds\n"
        "from repro.nfd.stream_validate import StreamValidator,"
        " _BinderSource\n"
        "schema = workloads.course_schema()\n"
        "sigma = parse_nfds('\\n'.join(["
        "'Course:[cnum -> time]', 'Course:[cnum, time -> books]',"
        " 'Course:[books:isbn -> books:title]',"
        " 'Course:[books:isbn, students:sid -> time]',"
        " 'Course:students:[sid -> grade]']))\n"
        "root = StreamValidator(schema, sigma).engine._relations['Course']\n"
        "binder = _BinderSource(schema, 'Course', root)\n"
        "print(binder.text)\n"
        "print(sorted(binder.consts.items()))\n"
        "print(checker_source(schema, 'Course'))\n")

    def test_source_is_the_same_under_every_hash_seed(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        texts = []
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(src)] + ([env["PYTHONPATH"]]
                              if env.get("PYTHONPATH") else []))
            proc = subprocess.run([sys.executable, "-c", self.SCRIPT],
                                  capture_output=True, text=True, env=env,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            texts.append(proc.stdout)
        assert "def bind(e):" in texts[0] and "def check(d):" in texts[0]
        assert texts[0] == texts[1] == texts[2]

    def test_binder_source_prints_the_compiled_function(
            self, course_schema, course_sigma):
        from repro.nfd.stream_validate import binder_source
        text = binder_source(course_schema, course_sigma, "Course")
        assert text.startswith("def ") and "def bind(e):" in text
        compile(text, "<binder>", "exec")

    def test_rebuilding_an_engine_compiles_nothing(self, course_schema,
                                                   course_sigma):
        from repro.codegen import _code
        from repro.nfd import StreamValidator
        StreamValidator(course_schema, course_sigma)
        before = _code.cache_info()
        StreamValidator(course_schema, course_sigma)
        after = _code.cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits

    def test_sets_nested_past_the_block_limit_take_the_fallbacks(self):
        """Sets nested deeper than Python compiles nested blocks: the
        binder falls back to the value binder and the scope walk, and
        the witnesses are still the in-memory engine's."""
        from repro.nfd import StreamValidator
        from repro.types.parser import parse_schema
        from repro.values import value_of_json
        labels = [f"a{i}" for i in range(1, 24)]
        inner = "int"
        for label in reversed(labels):
            inner = f"{{<{label}: {inner}, k{label}: int>}}"
        schema = parse_schema(f"R = {{<a0: int, s: {inner}>}}")
        sigma = parse_nfds(f"R:[a0 -> s:{':'.join(labels)}]\n"
                           f"R:s:[k{labels[0]} -> {':'.join(labels)}]")

        def element(a0, leaf):
            value = leaf
            for label in reversed(labels):
                value = [{label: value, f"k{label}": 1}]
            return {"a0": a0, "s": value}
        rows = [element(1, 5), element(1, 6), element(2, 7)]
        bind, _ = StreamValidator(schema, sigma)._binders["R"]
        assert bind(rows[0]) == (None, None)
        instance = Instance(schema, {"R": [value_of_json(row)
                                           for row in rows]})
        expected = ValidatorEngine(schema, sigma).validate(
            instance, all_violations=True).violations
        result = stream_validate(schema, sigma, {
            "R": iter_set_elements(instance.relation("R"))})
        assert expected and _describe(result.violations) == \
            _describe(expected)
