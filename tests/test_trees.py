"""Tree model, the path bijection, and the parenthesis text format."""

import pytest
from hypothesis import given, settings

from treegibbs import (
    PlaneTree,
    TwoMotzkinPath,
    catalan,
    decode,
    degree_profile,
    encode,
    iter_paths,
    text_to_tree,
    tree_to_text,
)
from treegibbs.errors import EmptyTreeError, UnbalancedParensError
from treegibbs.paths import H, I, U

from test_paths import CLONES, random_path_words

SINGLE_EDGE = PlaneTree([[1], []])
ROOT_TWO_LEAVES = PlaneTree([[1, 2], [], []])
CHAIN3 = PlaneTree([[1], [2], [3], []])  # root -> a -> b -> c
CHERRY = PlaneTree([[1], [2, 3], [], []])  # root -> a, a -> {b, c}


class TestPlaneTree:
    def test_counts(self):
        assert SINGLE_EDGE.edge_count == 1
        assert len(CHERRY.children) == 4

    def test_rejects_double_parent(self):
        with pytest.raises(ValueError):
            PlaneTree([[1, 1], []])

    def test_rejects_orphan(self):
        with pytest.raises(ValueError):
            PlaneTree([[1], [], []])

    def test_rejects_detached_cycle(self):
        with pytest.raises(ValueError):
            PlaneTree([[], [2], [1]])

    def test_rejects_root_as_child(self):
        with pytest.raises(ValueError):
            PlaneTree([[1], [0]])

    def test_immutable(self):
        with pytest.raises(AttributeError):
            SINGLE_EDGE.children = ()

    @pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES)
    def test_copies_are_equal(self, clone):
        tree = clone(CHERRY)
        assert type(tree) is PlaneTree and tree == CHERRY and hash(tree) == hash(CHERRY)
        with pytest.raises(AttributeError):
            tree.children = ()


class TestDegreeProfile:
    @pytest.mark.parametrize(
        "tree,expected",
        [
            (SINGLE_EDGE, (1, 0, 1, 1)),
            (ROOT_TWO_LEAVES, (2, 0, 2, 2)),
            (CHAIN3, (1, 2, 1, 3)),
        ],
    )
    def test_examples(self, tree, expected):
        assert degree_profile(tree) == expected

    def test_empty_tree_rejected(self):
        with pytest.raises(EmptyTreeError):
            degree_profile(PlaneTree([[]]))


class TestBijection:
    @pytest.mark.parametrize(
        "tree,word",
        [(SINGLE_EDGE, ""), (ROOT_TWO_LEAVES, "H"), (CHERRY, "UD")],
    )
    def test_encode_examples(self, tree, word):
        assert encode(tree).word == word

    @pytest.mark.parametrize(
        "word,tree",
        [("", SINGLE_EDGE), ("I", PlaneTree([[1], [2], []])), ("UD", CHERRY)],
    )
    def test_decode_examples(self, word, tree):
        assert decode(TwoMotzkinPath(word)) == tree

    def test_encode_rejects_empty_tree(self):
        with pytest.raises(EmptyTreeError):
            encode(PlaneTree([[]]))

    def test_exhaustive_roundtrip(self):
        for m in range(0, 8):
            images = set()
            for x in iter_paths(m):
                t = decode(x)
                assert t.edge_count == m + 1
                assert encode(t) == x
                images.add(t.children)
            # Injective on the whole space, hence bijective onto trees of size m + 1.
            assert len(images) == catalan(m + 1)

    def test_degree_identities(self):
        for m in range(0, 8):
            for x in iter_paths(m):
                s = x.symbols
                prof = degree_profile(decode(x))
                assert prof.d1 == s.count(I)
                assert prof.d0 == s.count(U) + s.count(H) + 1

    @given(random_path_words(max_len=120))
    @settings(max_examples=150)
    def test_roundtrip_random_long_paths(self, word):
        x = TwoMotzkinPath(word)
        assert encode(decode(x)) == x

    def test_deep_path_tree_no_recursion_limit(self):
        x = TwoMotzkinPath("I" * 200_000)
        t = decode(x)
        assert t.edge_count == 200_001
        assert degree_profile(t) == (1, 200_000, 1, 200_001)
        assert encode(t) == x


class TestTextFormat:
    @pytest.mark.parametrize(
        "tree,text",
        [(SINGLE_EDGE, "()"), (ROOT_TWO_LEAVES, "()()"), (CHERRY, "(()())")],
    )
    def test_render_examples(self, tree, text):
        assert tree_to_text(tree) == text

    def test_parse_inverse(self):
        for m in range(0, 7):
            for x in iter_paths(m):
                t = decode(x)
                assert text_to_tree(tree_to_text(t)) == t

    def test_root_only(self):
        assert tree_to_text(PlaneTree([[]])) == ""
        assert len(text_to_tree("").children) == 1

    @pytest.mark.parametrize(
        "text,index",
        [(")", 0), ("())", 2), ("(()", 0), ("(", 0), ("(a)", 1)],
    )
    def test_errors_report_position(self, text, index):
        with pytest.raises(UnbalancedParensError) as err:
            text_to_tree(text)
        assert err.value.index == index

    def test_deep_text_roundtrip(self):
        text = "(" * 50_000 + ")" * 50_000
        t = text_to_tree(text)
        assert tree_to_text(t) == text
