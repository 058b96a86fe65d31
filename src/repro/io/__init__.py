"""Serialization and display."""

from .json_io import (
    dump_bundle,
    instance_from_dict,
    instance_rows,
    instance_to_dict,
    load_bundle,
    load_bundle_rows,
    load_spec,
    nfds_from_list,
    nfds_to_list,
    schema_from_dict,
    schema_to_dict,
)
from .csv_io import dump_csv, load_csv
from .report_md import markdown_report
from .stream import (
    count_stream_lines,
    dump_jsonl,
    iter_jsonl_elements,
    iter_set_elements,
    plan_shards,
    set_order,
)
from .tables import render_instance, render_relation

__all__ = [
    "render_relation",
    "markdown_report",
    "load_csv",
    "dump_csv",
    "render_instance",
    "schema_to_dict",
    "schema_from_dict",
    "instance_to_dict",
    "instance_from_dict",
    "instance_rows",
    "nfds_to_list",
    "nfds_from_list",
    "dump_bundle",
    "load_bundle",
    "load_bundle_rows",
    "load_spec",
    "iter_jsonl_elements",
    "iter_set_elements",
    "set_order",
    "dump_jsonl",
    "count_stream_lines",
    "plan_shards",
]
