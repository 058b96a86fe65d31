"""Unit tests for JSON serialization round trips."""

import json

import pytest

from repro.errors import InstanceError, ParseError
from repro.generators import workloads
from repro.io import (
    dump_bundle,
    instance_from_dict,
    instance_rows,
    instance_to_dict,
    load_bundle,
    load_bundle_rows,
    nfds_from_list,
    nfds_to_list,
    schema_from_dict,
    schema_to_dict,
)


class TestSchemaRoundTrip:
    def test_course(self):
        schema = workloads.course_schema()
        assert schema_from_dict(schema_to_dict(schema)) == schema

    def test_multi_relation(self):
        schema = workloads.warehouse_schema()
        assert schema_from_dict(schema_to_dict(schema)) == schema


class TestInstanceRoundTrip:
    @pytest.mark.parametrize("make", [
        workloads.course_instance,
        workloads.figure1_instance,
        workloads.example_3_2_instance,   # includes empty sets
        workloads.warehouse_instance,
    ])
    def test_roundtrip(self, make):
        instance = make()
        data = instance_to_dict(instance)
        json.dumps(data)  # must be JSON-serializable
        assert instance_from_dict(instance.schema, data) == instance


class TestNFDRoundTrip:
    def test_course_sigma(self):
        sigma = workloads.course_sigma()
        assert nfds_from_list(nfds_to_list(sigma)) == sigma

    def test_bad_nfd_reported(self):
        with pytest.raises(ParseError):
            nfds_from_list(["not an nfd"])


class TestSpecPersistence:
    def test_explicit_spec_roundtrip(self):
        from repro.inference import NonEmptySpec
        from repro.io import load_spec
        from repro.paths import parse_path

        spec = NonEmptySpec({parse_path("Course"),
                             parse_path("Course:students")})
        text = dump_bundle(workloads.course_schema(),
                           workloads.course_sigma(), nonempty=spec)
        recovered = load_spec(text)
        assert recovered is not None
        assert recovered.declared == spec.declared

    def test_all_nonempty_roundtrip(self):
        from repro.inference import NonEmptySpec
        from repro.io import load_spec

        text = dump_bundle(workloads.course_schema(), [],
                           nonempty=NonEmptySpec.all_nonempty())
        recovered = load_spec(text)
        assert recovered is not None and recovered.declares_everything

    def test_absent_spec_is_none(self):
        from repro.io import load_spec
        text = dump_bundle(workloads.course_schema(), [])
        assert load_spec(text) is None


class TestBundle:
    def test_full_roundtrip(self):
        schema = workloads.course_schema()
        sigma = workloads.course_sigma()
        instance = workloads.course_instance()
        text = dump_bundle(schema, sigma, instance)
        schema2, sigma2, instance2 = load_bundle(text)
        assert schema2 == schema
        assert sigma2 == sigma
        assert instance2 == instance

    def test_bundle_without_instance(self):
        schema = workloads.course_schema()
        text = dump_bundle(schema, workloads.course_sigma())
        _, _, instance = load_bundle(text)
        assert instance is None

    def test_null_instance_is_no_instance(self):
        """Every bundle loader reads ``"instance": null`` as absent, as
        the daemon always has."""
        payload = json.loads(dump_bundle(workloads.course_schema(),
                                         workloads.course_sigma()))
        payload["instance"] = None
        text = json.dumps(payload)
        assert load_bundle(text)[2] is None
        assert load_bundle_rows(text)[2] is None


class TestInstanceRows:
    """The query commands' instance: JSON rows held to the schema."""

    def test_rows_stay_as_written(self):
        text = dump_bundle(workloads.course_schema(),
                           workloads.course_sigma(),
                           workloads.course_instance())
        rows = load_bundle_rows(text)[2]
        assert rows == json.loads(text)["instance"]

    @pytest.mark.parametrize(("data", "message"), [
        ([], 'bundle "instance" must be a JSON object, got a JSON array'),
        ({}, "instance is missing relation 'R'"),
        ({"R": [], "S": []}, "instance has relations not in the schema: S"),
        ({"R": {"a": 1}}, "R: expected a set of type {<a: int>}, got a "
                          "JSON object"),
        ({"R": [{"a": 1}, {"a": True}]},
         "R[1].a: expected int, got bool True"),
        ({"R": [{"a": [1]}]}, "R[0].a: expected int, got a JSON array"),
        ({"R": [{"a": 1, "b": 2}]}, "R[0]: unexpected fields b"),
    ])
    def test_refusals_name_the_row(self, data, message):
        schema = schema_from_dict({"R": "{<a: int>}"})
        with pytest.raises(InstanceError) as info:
            instance_rows(schema, data)
        assert str(info.value) == message


class TestMalformedBundles:
    def test_invalid_json_names_line_and_column(self):
        text = '{"schema": {"relations": []},\n  "nfds": [,]}'
        with pytest.raises(ParseError) as info:
            load_bundle(text)
        message = str(info.value)
        assert "line 2" in message
        assert "column" in message

    def test_truncated_bundle_is_typed(self):
        text = dump_bundle(workloads.course_schema(),
                           workloads.course_sigma())
        with pytest.raises(ParseError, match="not valid JSON"):
            load_bundle(text[: len(text) // 2])

    def test_non_object_bundle(self):
        with pytest.raises(ParseError, match="must be a JSON object"):
            load_bundle('["schema"]')

    def test_missing_schema_key(self):
        with pytest.raises(ParseError,
                           match='missing the required "schema" key'):
            load_bundle('{"nfds": []}')

    def test_non_list_nfds(self):
        import json as json_module
        payload = json_module.loads(
            dump_bundle(workloads.course_schema(), []))
        payload["nfds"] = {"oops": True}
        with pytest.raises(ParseError, match='"nfds" must be a list'):
            load_bundle(json_module.dumps(payload))

    def test_spec_loader_shares_typed_errors(self):
        from repro.io import load_spec
        with pytest.raises(ParseError, match="not valid JSON"):
            load_spec("{truncated")
