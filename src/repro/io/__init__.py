"""Serialization and display."""

from .. import _lazy

__all__ = _lazy.exports(__name__, {
    "json_io": (
        "dump_bundle instance_from_dict instance_rows instance_to_dict "
        "load_bundle load_bundle_rows load_bundle_sigma load_spec "
        "nfds_from_list nfds_to_list schema_from_dict schema_to_dict"
    ),
    "csv_io": "dump_csv load_csv",
    "report_md": "markdown_report",
    "stream": (
        "dump_jsonl iter_jsonl_elements iter_set_elements set_order"
    ),
    "tables": "render_instance render_relation",
})
