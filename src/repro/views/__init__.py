"""View algebra and NFD propagation."""

from .. import _lazy

__all__ = _lazy.exports(__name__, {
    "algebra": (
        "Base Join Nest Project Select Unnest ViewExpr evaluate "
        "output_type"
    ),
    "propagation": "propagate_nfds view_schema",
})
