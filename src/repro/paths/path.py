"""Path expressions (Definitions 2.1, 2.2 and 3.2 of the paper).

In the strict nested relational model, the path expressions that occur in
NFDs are sequences of labels ``A1:...:Ak``: each label projects a record
field, and the ``:`` separator traverses into an element of the resulting
set.  We therefore represent a path as an immutable tuple of labels; the
empty tuple is the empty path epsilon.

The module implements the relations the inference rules depend on:

* *prefix* and *proper prefix* (Definition 2.2),
* *follows* (Definition 3.2): ``p1`` follows ``p2`` iff ``p1 = p1' A`` and
  ``p1'`` is a proper prefix of ``p2`` — i.e. ``p1`` only traverses sets
  that ``p2`` also traverses,
* longest common prefix, concatenation, and relativization.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..errors import ParseError, PathError
from ..types.base import is_valid_label

__all__ = ["Path", "EPSILON", "parse_path", "common_prefix"]


class Path:
    """An immutable sequence of labels, e.g. ``students:sid``.

    Paths are ordered lexicographically by their label tuple so that
    closures and NFD sets print deterministically.  The hash is computed
    once, at construction: closure sweeps hash the same paths into
    frozensets and interning tables tens of thousands of times.
    """

    __slots__ = ("labels", "_hash")

    def __init__(self, labels: Iterable[str] = ()):
        label_tuple = tuple(labels)
        for label in label_tuple:
            if not is_valid_label(label):
                _reject_label(label)
        object.__setattr__(self, "labels", label_tuple)
        object.__setattr__(self, "_hash", hash(("Path", label_tuple)))

    def __setattr__(self, key, value):  # pragma: no cover - immutability
        raise AttributeError("Path is immutable")

    def __reduce__(self):
        # the immutability guard defeats pickle's default slot-state
        # restore, so rebuild through the constructor (which also
        # recomputes the hash: str hashes differ between processes)
        return (Path, (self.labels,))

    # -- structure --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.labels)

    def __bool__(self) -> bool:
        return bool(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __getitem__(self, index):
        result = self.labels[index]
        if isinstance(index, slice):
            return _derived(result)
        return result

    @property
    def is_empty(self) -> bool:
        """True for the empty path epsilon."""
        return not self.labels

    @property
    def first(self) -> str:
        """The first label.  :raises PathError: on the empty path."""
        if not self.labels:
            raise PathError("the empty path has no first label")
        return self.labels[0]

    @property
    def last(self) -> str:
        """The last label.  :raises PathError: on the empty path."""
        if not self.labels:
            raise PathError("the empty path has no last label")
        return self.labels[-1]

    @property
    def parent(self) -> "Path":
        """The path without its last label.

        :raises PathError: on the empty path.
        """
        if not self.labels:
            raise PathError("the empty path has no parent")
        return _derived(self.labels[:-1])

    @property
    def tail(self) -> "Path":
        """The path without its first label.

        :raises PathError: on the empty path.
        """
        if not self.labels:
            raise PathError("the empty path has no tail")
        return _derived(self.labels[1:])

    # -- composition ------------------------------------------------------

    def concat(self, other: "Path") -> "Path":
        """Concatenate two paths: ``a:b`` . ``c`` == ``a:b:c``."""
        return _derived(self.labels + other.labels)

    def child(self, label: str) -> "Path":
        """Extend the path with one label."""
        if not is_valid_label(label):
            _reject_label(label)
        return _derived(self.labels + (label,))

    def __truediv__(self, other) -> "Path":
        """Concatenation sugar: ``path / "label"`` or ``path / other``."""
        if isinstance(other, Path):
            return self.concat(other)
        if isinstance(other, str):
            return self.child(other)
        return NotImplemented

    # -- relations --------------------------------------------------------

    def is_prefix_of(self, other: "Path") -> bool:
        """Definition 2.2: ``p1`` is a prefix of ``p2`` if ``p2 = p1 p'``."""
        return other.labels[: len(self.labels)] == self.labels

    def is_proper_prefix_of(self, other: "Path") -> bool:
        """A prefix that is not the whole path."""
        return len(self.labels) < len(other.labels) and \
            self.is_prefix_of(other)

    def strip_prefix(self, prefix: "Path") -> "Path":
        """Return the remainder of this path after *prefix*.

        :raises PathError: if *prefix* is not actually a prefix.
        """
        if not prefix.is_prefix_of(self):
            raise PathError(f"{prefix} is not a prefix of {self}")
        return _derived(self.labels[len(prefix.labels):])

    def follows(self, other: "Path") -> bool:
        """Definition 3.2: this path *follows* *other*.

        ``p1`` follows ``p2`` iff ``p1 = p1' A`` and ``p1'`` is a *proper*
        prefix of ``p2``.  Intuitively, ``p1`` only traverses set-valued
        attributes that ``p2`` also traverses.  The empty path follows
        nothing (it has no final label); a single label ``A`` follows every
        path of length >= 1 because epsilon is a proper prefix of it.
        """
        if not self.labels:
            return False
        return self.parent.is_proper_prefix_of(other)

    def prefixes(self, include_empty: bool = False,
                 include_self: bool = True) -> list["Path"]:
        """All prefixes, shortest first."""
        start = 0 if include_empty else 1
        end = len(self.labels) + (1 if include_self else 0)
        return [_derived(self.labels[:i]) for i in range(start, end)]

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Path) and self.labels == other.labels

    def __lt__(self, other: "Path") -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self.labels < other.labels

    def __le__(self, other: "Path") -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self.labels <= other.labels

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Path({':'.join(self.labels)!r})"

    def __str__(self) -> str:
        if not self.labels:
            return "ε"
        return ":".join(self.labels)


def _reject_label(label) -> None:
    raise PathError(
        f"invalid label {label!r} in path; labels must be identifiers")


def _derived(labels: tuple[str, ...]) -> Path:
    """A path over labels taken from existing paths: they were checked
    when those paths were built, so only the hash is computed.  Slices,
    parents, tails and concatenations are most of the paths a closure
    sweep builds."""
    path = object.__new__(Path)
    object.__setattr__(path, "labels", labels)
    object.__setattr__(path, "_hash", hash(("Path", labels)))
    return path


#: The empty path.
EPSILON = Path(())


def parse_path(text: str) -> Path:
    """Parse ``A:B:C`` (or the empty string / ``ε`` / ``∅``) into a Path."""
    stripped = text.strip()
    if stripped in ("", "ε", "∅", "0"):
        return EPSILON
    labels = [part.strip() for part in stripped.split(":")]
    for label in labels:
        if not is_valid_label(label):
            raise ParseError(
                f"invalid label {label!r} in path {text!r}", text, 0
            )
    return Path(labels)


def common_prefix(p1: Path, p2: Path) -> Path:
    """The longest common prefix of two paths (possibly epsilon)."""
    shared: list[str] = []
    for a, b in zip(p1.labels, p2.labels):
        if a != b:
            break
        shared.append(a)
    return _derived(tuple(shared))
