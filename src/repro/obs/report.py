"""Run reports, and the one stats model every engine reports through.

Every engine that does the paper's work counts it in a :class:`Stats`
subclass: the closure engine (the §3.1/§3.2 rules), the batch and
stream validators (Def. 2.4), and the store, engine pool and daemon
that serve their results.  A subclass declares its fields, and each
field is of one kind:

* **cumulative counts** — numbers, or ``{key: count}`` maps; a window
  subtracts them;
* **point-in-time state** — table sizes, high-water marks, per-relation
  maps; a window keeps the later value;
* **identity**, such as a closure engine's Σ fingerprint; only
  snapshots that agree on it diff;
* **derived read-only values** such as ``hit_rate``.

Counters are plain slotted attributes that their engines bump in
place, and are never reset: a window is the :meth:`Stats.diff` of two
snapshots.  The base supplies every shared operation once —
construction, ``as_dict()`` / ``as_metrics()``, ``diff()`` with its
misuse guard, ``repr()`` and ``to_text()``.

:class:`RunReport` consumes the ``as_metrics()`` protocol.  The CLI
builds exactly one report per command: the ``--stats`` /
``--cache-stats`` stderr text, the ``--metrics-json`` file, and any
programmatic consumer all read the *same frozen snapshots*, so the
numbers reconcile by construction — there is no second moment at which
counters could have moved on.  Sections are frozen at
:meth:`RunReport.add` time (their metrics are copied), keep insertion
order, and render through the snapshot's own ``to_text()`` (the
established stderr formats, byte for byte) or as indented JSON.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from ..errors import InferenceError

__all__ = ["RunReport", "Stats", "supports_metrics"]


class Stats:
    """Counters declared by field, with one shared set of operations.

    A subclass lists its fields in ``__slots__``; each is a cumulative
    count unless named in ``STATE`` or ``IDENTITY``.  A
    field the constructor is not given takes its ``DEFAULTS`` entry
    (called when callable, for fresh maps), else 0.  ``EXPORT`` orders
    the ``as_dict()`` keys (default: every field); a name in it that is
    not a field is a derived value, a property or a method.  ``TEXT``
    holds the ``to_text()`` lines, format templates over fields and
    derived values, and :meth:`_extra_lines` the lines no template can
    hold.
    """

    __slots__ = ()

    STATE: tuple[str, ...] = ()
    IDENTITY: tuple[str, ...] = ()
    DEFAULTS: Mapping[str, Any] = {}
    EXPORT: tuple[str, ...] | None = None
    TEXT: tuple[str, ...] = ()

    def __init__(self, **values):
        for name in self.__slots__:
            if name in values:
                value = values.pop(name)
            else:
                value = self.DEFAULTS.get(name, 0)
                if callable(value):
                    value = value()
            setattr(self, name, value)
        if values:
            raise TypeError(f"{type(self).__name__} has no field(s) "
                            f"{', '.join(sorted(values))}")

    def as_dict(self) -> dict:
        """The snapshot as a plain (JSON-friendly) dictionary, with its
        maps copied."""
        data = {}
        for name in self.EXPORT or self.__slots__:
            value = getattr(self, name)
            if isinstance(value, dict):
                value = dict(value)
            elif callable(value):
                value = value()
            data[name] = value
        return data

    def as_metrics(self) -> dict:
        """The :class:`RunReport` section protocol."""
        return self.as_dict()

    def diff(self, baseline: "Stats") -> "Stats":
        """The work done since *baseline*, an earlier snapshot of the
        same object: counts are subtracted (maps key by key), and state
        and identity keep this snapshot's values.

        Raises :class:`~repro.errors.InferenceError` when the identities
        differ or the baseline counted more than this snapshot: two
        snapshots of different objects, or the right two reversed.
        """
        again = ("diff() expects two snapshot() calls taken from the "
                 "*same* engine — snapshot() before the window, "
                 "snapshot() after, then diff the later against the "
                 "earlier")
        for name in self.IDENTITY:
            mine, theirs = getattr(self, name), getattr(baseline, name)
            if mine != theirs:
                raise InferenceError(
                    "cannot diff snapshots of different engines "
                    f"({str(mine)[:12]} vs {str(theirs)[:12]}); {again}")
        values = {}
        for name in self.__slots__:
            mine, theirs = getattr(self, name), getattr(baseline, name)
            ahead = False
            if name in self.STATE or name in self.IDENTITY:
                if isinstance(mine, dict):
                    mine = dict(mine)
            elif isinstance(mine, dict):
                ahead = any(count > mine.get(key, 0)
                            for key, count in theirs.items())
                mine = {key: count - theirs.get(key, 0)
                        for key, count in mine.items()}
            else:
                ahead, mine = theirs > mine, mine - theirs
            if ahead:
                raise InferenceError(
                    "cannot diff: the baseline has done more work than "
                    f"this snapshot; {again}")
            values[name] = mine
        return type(self)(**values)

    def to_text(self) -> str:
        """The ``TEXT`` lines filled in, then :meth:`_extra_lines`;
        indented JSON for a class without a template."""
        if not self.TEXT:
            return json.dumps(self.as_metrics(), indent=2,
                              sort_keys=True, default=str)
        fields = {name: getattr(self, name)
                  for name in (*self.__slots__, *(self.EXPORT or ()))}
        return "\n".join([*(line.format_map(fields) for line in self.TEXT),
                          *self._extra_lines()])

    def _extra_lines(self) -> list[str]:
        """Text lines after the template (per-key maps, nested text)."""
        return []

    def __repr__(self) -> str:
        """The cumulative counts."""
        other = self.STATE + self.IDENTITY
        inner = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__ if name not in other)
        return f"{type(self).__name__}({inner})"


def supports_metrics(source: Any) -> bool:
    """Does *source* implement the ``as_metrics()`` protocol?"""
    return callable(getattr(source, "as_metrics", None))


class RunReport:
    """Named sections of metric snapshots for one logical run.

    Example::

        report = RunReport(command="analyze")
        report.add("closure", engine.stats)
        report.add("validator", validator.stats)
        report.to_json()
        report.section_text("closure")   # the --stats stderr text
    """

    def __init__(self, command: str | None = None):
        self.command = command
        # name -> (source snapshot or None, metrics dict)
        self._sections: dict[str, tuple[Any, dict]] = {}

    def add(self, name: str, source: Any) -> "RunReport":
        """Freeze *source* into section *name* (returns self to chain).

        *source* is a stats snapshot implementing ``as_metrics()``, or a
        plain mapping of JSON-friendly values.  Re-adding a name
        replaces the section (the latest snapshot wins).
        """
        if supports_metrics(source):
            self._sections[name] = (source, dict(source.as_metrics()))
        elif isinstance(source, Mapping):
            self._sections[name] = (None, dict(source))
        else:
            raise TypeError(
                f"section {name!r}: expected an as_metrics() snapshot "
                f"or a mapping, got {type(source).__name__}")
        return self

    # -- access ------------------------------------------------------------

    @property
    def sections(self) -> tuple[str, ...]:
        return tuple(self._sections)

    def __contains__(self, name: str) -> bool:
        return name in self._sections

    def section(self, name: str) -> dict:
        """The frozen metrics dict of one section."""
        return dict(self._sections[name][1])

    def snapshot(self, name: str) -> Any:
        """The snapshot one section was added from (None for a plain
        mapping)."""
        return self._sections[name][0]

    def section_text(self, name: str) -> str:
        """The section rendered for humans.

        Snapshots that know how to print themselves (``to_text()``) are
        rendered exactly as their engines always did — the CLI's
        ``--stats`` output is this method — otherwise indented JSON.
        """
        source, metrics = self._sections[name]
        if source is not None and callable(getattr(source, "to_text",
                                                   None)):
            return source.to_text()
        return json.dumps(metrics, indent=2, sort_keys=True, default=str)

    # -- export ------------------------------------------------------------

    def as_dict(self) -> dict:
        payload: dict[str, Any] = {}
        if self.command is not None:
            payload["command"] = self.command
        payload["sections"] = {
            name: dict(metrics)
            for name, (_, metrics) in self._sections.items()
        }
        return payload

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True,
                          default=str)

    def write_json(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    def to_text(self) -> str:
        """Every section's human rendering, in insertion order."""
        blocks = []
        for name in self._sections:
            blocks.append(f"[{name}]")
            blocks.append(self.section_text(name))
        return "\n".join(blocks)

    def __repr__(self) -> str:
        inner = ", ".join(self._sections) or "empty"
        return f"RunReport({inner})"
