"""Nested relational type system.

Public surface:

* :class:`~repro.types.base.BaseType`, :class:`~repro.types.base.SetType`,
  :class:`~repro.types.base.RecordType` — the type constructors, with
  ``INT``, ``STRING``, ``BOOL`` singletons;
* :class:`~repro.types.schema.Schema` — relation name → type mapping;
* :func:`~repro.types.parser.parse_type`,
  :func:`~repro.types.parser.parse_schema` — the concrete syntax;
* :func:`~repro.types.printer.format_type` and friends — rendering;
* :mod:`~repro.types.visitor` — structural folds.
"""

from .. import _lazy

__all__ = _lazy.exports(__name__, {
    "base": (
        "BOOL INT STRING BaseType RecordType SetType Type "
        "check_no_repeated_labels is_valid_label"
    ),
    "parser": "parse_schema parse_type",
    "printer": "format_schema format_type format_type_tree",
    "schema": "Schema",
    "visitor": "TypeVisitor count_nodes fold_type set_paths_of_type",
})
