"""Incremental constraint maintenance."""

from .. import _lazy

__all__ = _lazy.exports(__name__, {
    "checker": "Conflict IncrementalChecker",
})
