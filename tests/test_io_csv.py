"""Unit tests for CSV ingestion and the flat-to-nested pipeline."""

import pytest

from repro.design import NestPlan
from repro.errors import ParseError
from repro.inference import FD
from repro.io.csv_io import dump_csv, load_csv
from repro.nfd import ValidatorEngine
from repro.values import check_instance

CSV_TEXT = """cnum,time,sid,grade
cis550,10,1,A
cis550,10,2,B
cis500,12,1,A
"""


class TestLoadCSV:
    def test_typed_load(self):
        instance = load_csv(CSV_TEXT, "Enrollment",
                            types={"time": "int", "sid": "int"})
        check_instance(instance)
        relation = instance.relation("Enrollment")
        assert len(relation) == 3
        row = next(iter(relation))
        assert isinstance(row.get("time").value, int)
        assert isinstance(row.get("cnum").value, str)

    def test_default_string_columns(self):
        instance = load_csv("a,b\nx,y\n", "R")
        row = next(iter(instance.relation("R")))
        assert row.get("a").value == "x"

    def test_bool_conversion(self):
        instance = load_csv("flag\ntrue\nno\n", "R",
                            types={"flag": "bool"})
        values = {row.get("flag").value
                  for row in instance.relation("R")}
        assert values == {True, False}

    def test_bad_int_rejected(self):
        with pytest.raises(ParseError):
            load_csv("n\nnot_a_number\n", "R", types={"n": "int"})

    def test_bad_bool_rejected(self):
        with pytest.raises(ParseError):
            load_csv("f\nmaybe\n", "R", types={"f": "bool"})

    def test_ragged_row_rejected(self):
        with pytest.raises(ParseError) as excinfo:
            load_csv("a,b\n1\n", "R")
        assert "line 2" in str(excinfo.value)

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            load_csv("", "R")

    def test_unknown_type_rejected(self):
        with pytest.raises(ParseError):
            load_csv("a\n1\n", "R", types={"a": "float"})


class TestDumpCSV:
    def test_roundtrip(self):
        instance = load_csv(CSV_TEXT, "Enrollment",
                            types={"time": "int", "sid": "int"})
        text = dump_csv(instance, "Enrollment")
        again = load_csv(text, "Enrollment",
                         types={"time": "int", "sid": "int"})
        assert again.relation("Enrollment") == \
            instance.relation("Enrollment")

    def test_nested_rejected(self):
        from repro.generators import workloads
        with pytest.raises(ParseError):
            dump_csv(workloads.course_instance(), "Course")


class TestCSVToNestedPipeline:
    def test_ingest_and_nest(self):
        flat = load_csv(CSV_TEXT, "Enrollment",
                        types={"time": "int", "sid": "int"})
        plan = NestPlan("Enrollment", ["cnum", "time", "sid", "grade"])
        plan.nest("students", ["sid", "grade"])
        nested = plan.apply_instance(flat)
        check_instance(nested)
        assert len(nested.relation("Enrollment")) == 2
        report = plan.report(
            flat.schema.relation_type("Enrollment"),
            [FD({"cnum"}, "time")])
        assert ValidatorEngine(nested.schema, report.all_nfds()).check(nested)
