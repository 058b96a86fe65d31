"""Unit tests for the chunked JSONL stream reader/writer.

The malformed-input cases pin the typed-error contract: every failure
raises :class:`repro.errors.StreamError` naming the offending 1-based
line number — never a raw ``json.JSONDecodeError`` or ``KeyError``.
"""

import json

import pytest

from repro.errors import StreamError
from repro.io import (
    dump_jsonl,
    iter_jsonl_elements,
    iter_set_elements,
)
from repro.values import to_python, value_of_json


def _records(*args, **kwargs):
    """The reader's elements as value trees."""
    return list(map(value_of_json, iter_jsonl_elements(*args, **kwargs)))


@pytest.fixture
def course_dump(tmp_path, course_instance):
    path = tmp_path / "course.jsonl"
    count = dump_jsonl(path, iter_set_elements(
        course_instance.relation("Course")))
    return path, count


class TestRoundTrip:
    def test_dump_then_stream_preserves_walk_order(
            self, course_schema, course_instance, course_dump):
        path, count = course_dump
        expected = list(course_instance.relation("Course"))
        streamed = _records(path, course_schema, "Course")
        assert count == len(expected)
        assert streamed == expected

    def test_dump_accepts_plain_python(self, tmp_path, course_schema,
                                       course_instance):
        path = tmp_path / "plain.jsonl"
        rows = [to_python(e)
                for e in course_instance.relation("Course")]
        assert dump_jsonl(path, rows) == len(rows)
        assert _records(path, course_schema, "Course") == \
            list(course_instance.relation("Course"))

    def test_reader_yields_the_checked_json(self, tmp_path, course_schema,
                                            course_instance):
        path = tmp_path / "plain.jsonl"
        rows = [to_python(e)
                for e in course_instance.relation("Course")]
        dump_jsonl(path, rows)
        streamed = list(iter_jsonl_elements(path, course_schema, "Course"))
        assert streamed == rows
        assert all(type(element) is dict for element in streamed)

    def test_blank_lines_are_skipped(self, course_schema, course_dump):
        path, count = course_dump
        text = path.read_text()
        path.write_text("\n" + text.replace("\n", "\n\n"))
        streamed = list(iter_jsonl_elements(path, course_schema,
                                            "Course"))
        assert len(streamed) == count

    def test_adapter_iterates_sorted_set_order(self, course_instance):
        relation = course_instance.relation("Course")
        assert list(iter_set_elements(relation)) == list(relation)


class TestMalformedInputs:
    def test_truncated_line_names_line_number(self, course_schema,
                                              course_dump):
        path, count = course_dump
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # chop line 2 mid-JSON
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StreamError) as info:
            list(iter_jsonl_elements(path, course_schema, "Course"))
        assert info.value.line == 2
        assert "line 2" in str(info.value)
        assert "malformed" in str(info.value)

    def test_type_mismatched_element_names_line_number(
            self, tmp_path, course_schema, course_instance):
        path = tmp_path / "bad.jsonl"
        rows = [to_python(e)
                for e in course_instance.relation("Course")]
        rows.insert(2, {"not": "a course"})
        dump_jsonl(path, rows)
        with pytest.raises(StreamError) as info:
            list(iter_jsonl_elements(path, course_schema, "Course"))
        assert info.value.line == 3
        assert "line 3" in str(info.value)
        assert "'Course'" in str(info.value)

    def test_non_object_element_is_typed(self, tmp_path,
                                         course_schema):
        path = tmp_path / "scalar.jsonl"
        path.write_text("42\n")
        with pytest.raises(StreamError) as info:
            list(iter_jsonl_elements(path, course_schema, "Course"))
        assert info.value.line == 1

    def test_empty_file_is_an_error(self, tmp_path, course_schema):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(StreamError) as info:
            list(iter_jsonl_elements(path, course_schema, "Course"))
        assert info.value.line == 1
        assert "empty stream" in str(info.value)

    def test_blank_only_file_is_an_error(self, tmp_path,
                                         course_schema):
        path = tmp_path / "blank.jsonl"
        path.write_text("\n\n\n")
        with pytest.raises(StreamError, match="empty stream"):
            list(iter_jsonl_elements(path, course_schema, "Course"))

    def test_empty_allowed_for_shard_ranges(self, tmp_path,
                                            course_schema):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert list(iter_jsonl_elements(
            path, course_schema, "Course",
            require_elements=False)) == []

    def test_unreadable_path_is_typed(self, tmp_path, course_schema):
        with pytest.raises(StreamError, match="cannot read stream"):
            list(iter_jsonl_elements(tmp_path / "missing.jsonl",
                                     course_schema, "Course"))

    def test_raw_decode_error_never_escapes(self, tmp_path,
                                            course_schema):
        path = tmp_path / "garbage.jsonl"
        path.write_text("{\"cnum\": \n")
        try:
            list(iter_jsonl_elements(path, course_schema, "Course"))
        except StreamError:
            pass
        except json.JSONDecodeError:  # pragma: no cover - the bug
            pytest.fail("raw JSONDecodeError escaped the reader")


#: Ill-typed ``time`` fields (``time: int``) the reader must reject
#: exactly as the in-memory ``check`` does: (case id, field value, or
#: MISSING to drop the field, and a fragment of the error message).
MISSING = object()
TYPE_CASES = [
    ("string", "1", "Course.time: expected int, got str '1'"),
    ("bool", True, "Course.time: expected int, got bool True"),
    ("float", 1.0, "Course.time: expected int, got float 1.0"),
    ("missing", MISSING, "Course: missing fields time"),
]


def _with_time(row, value):
    row = dict(row)
    if value is MISSING:
        del row["time"]
    else:
        row["time"] = value
    return row


class TestStrictTyping:
    @pytest.mark.parametrize(("case", "value", "message"), TYPE_CASES,
                             ids=[c[0] for c in TYPE_CASES])
    def test_ill_typed_field_names_line(self, tmp_path, course_schema,
                                        course_instance, case, value,
                                        message):
        rows = [to_python(e)
                for e in course_instance.relation("Course")]
        rows[1] = _with_time(rows[1], value)
        path = tmp_path / "typed.jsonl"
        dump_jsonl(path, rows)
        with pytest.raises(StreamError) as info:
            list(iter_jsonl_elements(path, course_schema, "Course"))
        assert info.value.line == 2
        assert "line 2" in str(info.value)
        assert message in str(info.value)

    def test_extra_field_and_nested_mismatch(self, tmp_path,
                                             course_schema,
                                             course_instance):
        rows = [to_python(e)
                for e in course_instance.relation("Course")]
        path = tmp_path / "extra.jsonl"
        dump_jsonl(path, [dict(rows[0], room=7)])
        with pytest.raises(StreamError, match="unexpected fields room"):
            list(iter_jsonl_elements(path, course_schema, "Course"))
        nested = dict(rows[0])
        nested["students"] = [dict(nested["students"][0], sid="1")]
        dump_jsonl(path, [nested])
        with pytest.raises(StreamError,
                           match=r"Course\.students\[\]\.sid: expected "
                                 "int"):
            list(iter_jsonl_elements(path, course_schema, "Course"))

    def test_nan_is_rejected(self, tmp_path, course_schema,
                             course_instance):
        row = to_python(next(iter(course_instance.relation("Course"))))
        path = tmp_path / "nan.jsonl"
        path.write_text(json.dumps(row).replace(
            f'"time": {row["time"]}', '"time": NaN') + "\n")
        with pytest.raises(StreamError, match="got float nan") as info:
            list(iter_jsonl_elements(path, course_schema, "Course"))
        assert info.value.line == 1

    def test_decoded_values_equal_constructed_ones(self, course_schema,
                                                   course_instance,
                                                   course_dump):
        """The trusted build hashes and compares like the validating
        constructors (the streaming engine keys groups by both)."""
        path, _ = course_dump
        streamed = _records(path, course_schema, "Course")
        expected = list(course_instance.relation("Course"))
        assert [hash(e) for e in streamed] == [hash(e) for e in expected]
        assert [e.fields for e in streamed] == \
            [e.fields for e in expected]


class TestRangesAndShards:
    def test_start_stop_bounds(self, course_schema, course_instance,
                               course_dump):
        path, count = course_dump
        expected = list(course_instance.relation("Course"))
        assert _records(
            path, course_schema, "Course", start=1, stop=count,
            require_elements=False) == expected[1:]
        assert _records(
            path, course_schema, "Course", start=0, stop=1,
            require_elements=False) == expected[:1]
