"""Path expressions and their typing rules."""

from .. import _lazy

__all__ = _lazy.exports(__name__, {
    "path": "EPSILON Path common_prefix parse_path",
    "typing": (
        "base_label_paths is_set_path is_well_typed relation_paths "
        "resolve_base_path schema_paths set_paths type_at"
    ),
})
