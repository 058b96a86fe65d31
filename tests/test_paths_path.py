"""Unit tests for Path: prefixes, follows, composition."""

import copy
import pickle

import pytest

from repro.errors import ParseError, PathError
from repro.paths import EPSILON, Path, common_prefix, parse_path


class TestConstruction:
    def test_from_labels(self):
        path = Path(("A", "B"))
        assert len(path) == 2
        assert path.first == "A"
        assert path.last == "B"

    def test_parse(self):
        assert parse_path("A:B:C") == Path(("A", "B", "C"))
        assert parse_path(" A : B ") == Path(("A", "B"))

    @pytest.mark.parametrize("text", ["", "ε", "∅", "0"])
    def test_parse_empty_markers(self, text):
        assert parse_path(text) == EPSILON

    def test_parse_invalid(self):
        with pytest.raises(ParseError):
            parse_path("A:9x")
        with pytest.raises(ParseError):
            parse_path("A::B")

    def test_invalid_label(self):
        with pytest.raises(PathError):
            Path(("A", "b c"))

    def test_str(self):
        assert str(parse_path("A:B")) == "A:B"
        assert str(EPSILON) == "ε"

    def test_empty_path_accessors_raise(self):
        with pytest.raises(PathError):
            EPSILON.first
        with pytest.raises(PathError):
            EPSILON.last
        with pytest.raises(PathError):
            EPSILON.parent
        with pytest.raises(PathError):
            EPSILON.tail


class TestStructure:
    def test_parent_and_tail(self):
        path = parse_path("A:B:C")
        assert path.parent == parse_path("A:B")
        assert path.tail == parse_path("B:C")

    def test_indexing_and_slicing(self):
        path = parse_path("A:B:C")
        assert path[0] == "A"
        assert path[:2] == parse_path("A:B")
        assert path[1:] == parse_path("B:C")

    def test_concat_and_child(self):
        assert parse_path("A").concat(parse_path("B:C")) == \
            parse_path("A:B:C")
        assert parse_path("A").child("B") == parse_path("A:B")
        assert parse_path("A") / "B" / parse_path("C") == \
            parse_path("A:B:C")

    def test_epsilon_is_falsy(self):
        assert not EPSILON
        assert parse_path("A")


class TestPrefixRelations:
    def test_prefix(self):
        assert parse_path("A").is_prefix_of(parse_path("A:B"))
        assert parse_path("A:B").is_prefix_of(parse_path("A:B"))
        assert EPSILON.is_prefix_of(parse_path("A"))
        assert not parse_path("B").is_prefix_of(parse_path("A:B"))

    def test_proper_prefix(self):
        assert parse_path("A").is_proper_prefix_of(parse_path("A:B"))
        assert not parse_path("A:B").is_proper_prefix_of(parse_path("A:B"))
        assert EPSILON.is_proper_prefix_of(parse_path("A"))
        assert not EPSILON.is_proper_prefix_of(EPSILON)

    def test_strip_prefix(self):
        assert parse_path("A:B:C").strip_prefix(parse_path("A")) == \
            parse_path("B:C")
        with pytest.raises(PathError):
            parse_path("A:B").strip_prefix(parse_path("B"))

    def test_prefixes(self):
        path = parse_path("A:B:C")
        assert path.prefixes() == [parse_path("A"), parse_path("A:B"),
                                   parse_path("A:B:C")]
        assert path.prefixes(include_self=False) == [
            parse_path("A"), parse_path("A:B")]
        assert path.prefixes(include_empty=True)[0] == EPSILON

    def test_common_prefix(self):
        assert common_prefix(parse_path("A:B:C"), parse_path("A:B:D")) \
            == parse_path("A:B")
        assert common_prefix(parse_path("A"), parse_path("B")) == EPSILON


class TestFollows:
    """Definition 3.2 with the paper's own examples."""

    def test_single_label_follows_everything_nonempty(self):
        # "a path A follows any path p, |p| >= 1"
        assert parse_path("A").follows(parse_path("X"))
        assert parse_path("A").follows(parse_path("X:Y:Z"))

    def test_paper_examples(self):
        ab = parse_path("A:B")
        assert ab.follows(parse_path("A:B"))
        assert ab.follows(parse_path("A:C:D"))
        assert not ab.follows(parse_path("A"))
        assert not ab.follows(parse_path("F:G"))

    def test_empty_path_follows_nothing(self):
        assert not EPSILON.follows(parse_path("A"))

    def test_nothing_follows_epsilon(self):
        assert not parse_path("A").follows(EPSILON)


class TestIdentity:
    def test_equality_and_hash(self):
        assert parse_path("A:B") == Path(("A", "B"))
        assert hash(parse_path("A:B")) == hash(Path(("A", "B")))

    def test_ordering_is_lexicographic(self):
        paths = sorted([parse_path("B"), parse_path("A:C"),
                        parse_path("A")])
        assert paths == [parse_path("A"), parse_path("A:C"),
                         parse_path("B")]

    def test_immutable(self):
        with pytest.raises(AttributeError):
            parse_path("A").labels = ()

    @pytest.mark.parametrize("text", ["", "A", "A:B", "students:sid:x"])
    def test_hash_is_the_label_tuple_hash(self, text):
        path = parse_path(text)
        assert hash(path) == hash(("Path", path.labels))

    def test_derived_paths_equal_constructed_ones(self):
        path = parse_path("A:B:C")
        derived = [path[1:], path[:2], path.parent, path.tail,
                   path.concat(parse_path("D")), path.child("D"),
                   path.strip_prefix(parse_path("A")),
                   common_prefix(path, parse_path("A:B:X")),
                   *path.prefixes(include_empty=True)]
        for sub in derived:
            built = Path(sub.labels)
            assert sub == built
            assert hash(sub) == hash(built)
            assert type(sub) is Path

    def test_child_still_rejects_bad_labels(self):
        with pytest.raises(PathError, match="invalid label 'a:b'"):
            parse_path("A").child("a:b")
        with pytest.raises(PathError, match="invalid label ''"):
            parse_path("A") / ""

    @pytest.mark.parametrize("clone", [
        lambda p: pickle.loads(pickle.dumps(p)),
        copy.deepcopy,
        copy.copy,
    ], ids=["pickle", "deepcopy", "copy"])
    def test_hash_survives_copies(self, clone):
        path = parse_path("A:B:C")
        copied = clone(path)
        assert copied == path
        assert hash(copied) == hash(path) == hash(("Path", ("A", "B", "C")))
        assert {copied: 1}[path] == 1
