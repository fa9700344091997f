"""Path validation, enumeration, and counting, checked against brute force.

The independent oracles here never reuse the enumerator under test: raw
words come from itertools.product over the alphabet or from a recursive
generator, and counts come from a lattice-walk dynamic program.
"""

import copy
import math
import pickle
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegibbs import (
    StateIndex,
    TwoMotzkinPath,
    catalan,
    enumerate_paths,
    iter_paths,
)
from treegibbs.errors import (
    CapExceededError,
    ConfigInvalidError,
    InvalidSymbolError,
    NegativePrefixError,
    UnbalancedError,
)
from treegibbs.paths import (
    DIGIT,
    REVERSED,
    REVERSED_SYMBOL,
    RISE,
    SYMBOL_ORDER,
    D,
    H,
    I,
    U,
    heights,
    rank,
)

CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


def brute_force_words(m: int, alphabet: str = "UHID") -> list[str]:
    """All valid words of length m by filtering the full product."""

    def ok(word: str) -> bool:
        height = 0
        for ch in word:
            if ch == "U":
                height += 1
            elif ch == "D":
                height -= 1
                if height < 0:
                    return False
        return height == 0

    return [("".join(w)) for w in product(alphabet, repeat=m) if ok("".join(w))]


def recursive_words(m: int) -> list[bytes]:
    """All valid words of length m, depth first in U < H < I < D order."""
    out: list[bytes] = []
    word = bytearray(m)

    def rec(pos: int, height: int) -> None:
        if pos == m:
            out.append(bytes(word))
            return
        for ch, dh in ((b"U", 1), (b"H", 0), (b"I", 0), (b"D", -1)):
            # Stay nonnegative and still be able to return to height 0.
            if 0 <= height + dh <= m - pos - 1:
                word[pos] = ch[0]
                rec(pos + 1, height + dh)

    rec(0, 0)
    return out


def walk_count(m: int, colors: int = 2) -> int:
    """Number of nonnegative lattice walks 0 -> 0 with ``colors`` level colors."""
    dp = {0: 1}
    for _ in range(m):
        nxt: dict[int, int] = {}
        for h, ways in dp.items():
            for dh, mult in ((1, 1), (0, colors), (-1, 1)):
                if h + dh >= 0:
                    nxt[h + dh] = nxt.get(h + dh, 0) + ways * mult
        dp = nxt
    return dp.get(0, 0)


class TestValidate:
    def test_single_peak(self):
        assert TwoMotzkinPath("UD").word == "UD"

    def test_empty(self):
        assert len(TwoMotzkinPath("")) == 0

    def test_negative_prefix_at_first_symbol(self):
        with pytest.raises(NegativePrefixError) as err:
            TwoMotzkinPath("DU")
        assert err.value.index == 0

    def test_negative_prefix_reports_offending_d(self):
        with pytest.raises(NegativePrefixError) as err:
            TwoMotzkinPath("UDDU")
        assert err.value.index == 2

    def test_unbalanced_reports_first_unmatched_u(self):
        with pytest.raises(UnbalancedError) as err:
            TwoMotzkinPath("UUD")
        assert err.value.index == 0
        with pytest.raises(UnbalancedError) as err:
            TwoMotzkinPath("UDU")
        assert err.value.index == 2

    def test_unbalanced_index_matches_reference_scan(self):
        # Every word of length <= 7 that ends above the axis, against a scan
        # for the first U whose height is never left downwards again.
        def first_unmatched_up(word: str) -> int:
            heights = [0]
            for ch in word:
                heights.append(heights[-1] + {"U": 1, "D": -1}.get(ch, 0))
            return next(
                i for i, ch in enumerate(word) if ch == "U" and min(heights[i + 1 :]) > heights[i]
            )

        checked = 0
        for m in range(1, 8):
            for word in map("".join, product("UHID", repeat=m)):
                try:
                    TwoMotzkinPath(word)
                except UnbalancedError as err:
                    assert err.index == first_unmatched_up(word), word
                    checked += 1
                except NegativePrefixError:
                    pass
        assert checked > 0

    def test_foreign_character(self):
        with pytest.raises(InvalidSymbolError) as err:
            TwoMotzkinPath("UHXD")
        assert err.value.index == 2

    @pytest.mark.parametrize("word", ["Ué", "U\u2191", "U\ud800"], ids=["latin", "arrow", "surrogate"])
    def test_non_ascii_character_is_named(self, word):
        # The message names the character given, not its ASCII replacement.
        with pytest.raises(InvalidSymbolError) as err:
            TwoMotzkinPath(word)
        assert str(err.value) == f"symbol {word[1]!r} not in U/H/I/D (index 1)"

    def test_bytes_and_str_agree(self):
        assert TwoMotzkinPath(b"UHID") == TwoMotzkinPath("UHID")

    def test_immutable_and_hashable(self):
        x = TwoMotzkinPath("UD")
        with pytest.raises(AttributeError):
            x.symbols = b"HH"
        assert len({x, TwoMotzkinPath("UD"), TwoMotzkinPath("HH")}) == 2

    @pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES)
    def test_copies_are_equal(self, clone):
        x = TwoMotzkinPath("UHIDHH")
        y = clone(x)
        assert type(y) is TwoMotzkinPath and y == x and hash(y) == hash(x)
        with pytest.raises(AttributeError):
            y.symbols = b"HH"


def walk_heights(word: str) -> list[int]:
    """The height after each step of a word, walked one symbol at a time."""
    out, h = [], 0
    for ch in word:
        h += {"U": 1, "D": -1}.get(ch, 0)
        out.append(h)
    return out


class TestByteEncoding:
    """The byte tables and the heights every word-matrix pass reads."""

    def test_digits_number_the_symbol_order(self):
        assert DIGIT.dtype == np.uint8
        assert DIGIT[list(SYMBOL_ORDER)].tolist() == [0, 1, 2, 3]

    def test_rise_moves_only_up_and_down_steps(self):
        assert RISE.dtype == np.int8
        assert RISE.tolist() == [{U: 1, D: -1}.get(b, 0) for b in range(256)]

    def test_reversed_swaps_up_and_down_and_keeps_other_bytes(self):
        assert REVERSED.dtype == np.uint8
        assert REVERSED.tolist() == [REVERSED_SYMBOL.get(b, b) for b in range(256)]

    def test_tables_are_read_only(self):
        for table in (DIGIT, RISE, REVERSED):
            with pytest.raises(ValueError):
                table[0] = 1

    @pytest.mark.parametrize("word", ["", "H", "UD", "UHIDHH", "UUDUDD", "IUUHDUDDI"])
    def test_heights_of_one_word(self, word):
        got = heights(np.frombuffer(word.encode(), np.uint8))
        assert got.dtype == np.int32
        assert got.tolist() == walk_heights(word)

    @pytest.mark.parametrize("m", range(9))
    def test_heights_of_every_word(self, m):
        words = enumerate_paths(m)
        got = heights(words)
        assert got.dtype == np.int32 and got.shape == words.shape
        assert got.tolist() == [walk_heights(row.tobytes().decode()) for row in words]


class TestSymbolCounts:
    @pytest.mark.parametrize(
        "word,expected",
        [("", (0, 0, 0, 0)), ("UHID", (1, 1, 1, 1)), ("UUDD", (2, 0, 0, 2))],
    )
    def test_examples(self, word, expected):
        s = TwoMotzkinPath(word).symbols
        assert (s.count(U), s.count(H), s.count(I), s.count(D)) == expected

    def test_counts_balance(self):
        for x in iter_paths(6):
            s = x.symbols
            assert s.count(U) == s.count(D)
            assert s.count(U) + s.count(H) + s.count(I) + s.count(D) == 6


class TestSkeleton:
    """The skeleton, a path's U/D steps in order, is the s of its
    ``StateIndex.label_blocks`` label."""

    @pytest.mark.parametrize(
        "word,expected", [("HIHI", ""), ("UHIDUD", "UDUD"), ("UUHDID", "UUDD")]
    )
    def test_examples(self, word, expected):
        index = StateIndex.build(len(word))
        i = index.index_of(TwoMotzkinPath(word))
        [(_, _, s)] = [label for label, idx in index.label_blocks.items() if i in idx]
        assert s == expected

    def test_skeleton_is_dyck_path(self):
        index = StateIndex.build(6)
        for (k, _, s), idx in index.label_blocks.items():
            assert len(s) == 2 * k
            assert set(s) <= {"U", "D"}
            TwoMotzkinPath(s)  # validates from scratch
            for row in index.words[idx]:
                assert bytes(c for c in row.tobytes() if c in b"UD").decode() == s


class TestEnumeration:
    def test_m0_and_m1(self):
        assert [p.word for p in iter_paths(0)] == [""]
        assert [p.word for p in iter_paths(1)] == ["H", "I"]

    def test_m2_matches_brute_force(self):
        assert sorted(p.word for p in iter_paths(2)) == sorted(brute_force_words(2))
        assert set(p.word for p in iter_paths(2)) == {"UD", "HH", "HI", "IH", "II"}

    def test_full_agreement_with_brute_force(self):
        for m in range(0, 8):
            assert sorted(p.word for p in iter_paths(m)) == sorted(brute_force_words(m))

    @pytest.mark.parametrize("m", range(11))
    def test_matches_recursive_generator(self, m):
        # Same words in the same order, through every way of reading them.
        reference = recursive_words(m)
        words = enumerate_paths(m)
        assert [row.tobytes() for row in words] == reference
        assert [p.symbols for p in iter_paths(m)] == reference
        assert isinstance(words, np.ndarray) and words.dtype == np.uint8
        assert words.shape == (catalan(m + 1), m) == (len(reference), m)
        assert words.tobytes() == b"".join(reference)
        assert not words.flags.writeable

    def test_iter_paths_raises_on_the_call(self):
        # Before any next(): a generator would defer the check to the first item.
        with pytest.raises(CapExceededError):
            iter_paths(13)
        with pytest.raises(ConfigInvalidError):
            iter_paths(-1)

    def test_lexicographic_order(self):
        rank = {"U": 0, "H": 1, "I": 2, "D": 3}
        for m in (3, 5):
            words = [[rank[c] for c in p.word] for p in iter_paths(m)]
            assert words == sorted(words)

    def test_counts_match_catalan_and_walk_dp(self):
        for m in range(0, 11):
            n = sum(1 for _ in iter_paths(m))
            assert n == catalan(m + 1)
            assert n == walk_count(m)

    def test_roundtrip_serialization(self):
        for x in iter_paths(5):
            assert TwoMotzkinPath(x.word) == x

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_paths(13)

    def test_negative_length(self):
        with pytest.raises(ValueError):
            enumerate_paths(-1)


class TestRank:
    """``rank`` inverts the state order, and finds no place for a non-path."""

    @pytest.mark.parametrize("m", range(13))
    def test_ranks_every_path_at_its_index(self, m):
        ranks = rank(enumerate_paths(m))
        assert ranks.dtype == np.int64
        assert ranks.tolist() == list(range(catalan(m + 1)))

    @pytest.mark.parametrize("m", range(7))
    def test_every_word_over_the_alphabet(self, m):
        # product() over U, H, I, D yields words in the state order, so the
        # paths among them rank 0, 1, 2, ... and every other word ranks -1.
        valid = set(brute_force_words(m))
        words = ["".join(w) for w in product("UHID", repeat=m)]
        matrix = np.frombuffer("".join(words).encode(), np.uint8).reshape(len(words), m)
        expected = np.full(len(words), -1)
        expected[[w in valid for w in words]] = np.arange(len(valid))
        assert rank(matrix).tolist() == expected.tolist()

    @pytest.mark.parametrize("byte", [0, ord("X"), ord("u"), ord("?"), 0xD5, 255])
    def test_a_byte_outside_the_alphabet_ranks_minus_one(self, byte):
        # Put at each position of every path of length 5, in place of each
        # of U, H, I and D.
        words = enumerate_paths(5)
        spoiled = np.repeat(words, 5, axis=0)
        spoiled[np.arange(len(spoiled)), np.tile(np.arange(5), len(words))] = byte
        assert (rank(spoiled) == -1).all()

    def test_cap(self):
        # 34 is the largest length whose path count fits in int64.
        words = np.frombuffer(b"U" * 17 + b"D" * 17 + b"I" * 34, np.uint8).reshape(2, 34)
        assert rank(words).tolist() == [0, catalan(35) - 1]
        with pytest.raises(CapExceededError):
            rank(np.zeros((1, 35), np.uint8))


class TestCounting:
    @pytest.mark.parametrize("n,expected", [(0, 1), (3, 5), (10, 16796)])
    def test_catalan(self, n, expected):
        assert catalan(n) == expected

    def test_catalan_closed_form(self):
        for n in range(0, 40):
            assert catalan(n) == math.comb(2 * n, n) // (n + 1)

    @pytest.mark.parametrize("n,expected", [(0, 1), (3, 4), (5, 21)])
    def test_motzkin(self, n, expected):
        # The paths with one level colour are the Motzkin paths.
        assert sum(I not in x.symbols for x in iter_paths(n)) == expected

    def test_motzkin_matches_single_color_walks(self):
        for n in range(0, 11):
            one_color = sum(I not in x.symbols for x in iter_paths(n))
            assert one_color == walk_count(n, colors=1)

    def test_up_count_strata(self):
        # Paths with k up steps: positions * skeletons * level colorings.
        for m in range(0, 9):
            by_k: dict[int, int] = {}
            for x in iter_paths(m):
                k = x.symbols.count(U)
                by_k[k] = by_k.get(k, 0) + 1
            for k, cnt in by_k.items():
                assert cnt == math.comb(m, 2 * k) * catalan(k) * 2 ** (m - 2 * k)
            # Restricting to one level color recovers the Motzkin stratum count.
            one_color: dict[int, int] = {}
            for x in iter_paths(m):
                if x.symbols.count(I) == 0:
                    k = x.symbols.count(U)
                    one_color[k] = one_color.get(k, 0) + 1
            for k, cnt in one_color.items():
                assert cnt == math.comb(m, 2 * k) * catalan(k)


@st.composite
def random_path_words(draw, max_len: int = 60) -> str:
    """Uniformly structured (not uniformly distributed) valid words."""
    m = draw(st.integers(min_value=0, max_value=max_len))
    out = []
    height = 0
    for pos in range(m):
        remaining = m - pos - 1
        options = [c for c in "UHID" if _feasible(c, height, remaining)]
        ch = draw(st.sampled_from(options))
        out.append(ch)
        height += {"U": 1, "D": -1}.get(ch, 0)
    return "".join(out)


def _feasible(ch: str, height: int, remaining: int) -> bool:
    new = height + {"U": 1, "D": -1}.get(ch, 0)
    return 0 <= new <= remaining


class TestRandomizedProperties:
    @given(random_path_words())
    @settings(max_examples=200)
    def test_validate_roundtrips(self, word):
        x = TwoMotzkinPath(word)
        assert x.word == word
        assert TwoMotzkinPath(x.word) == x

    @given(random_path_words())
    @settings(max_examples=200)
    def test_skeleton_valid_and_even(self, word):
        # Deleting the level steps of a path leaves a path.
        s = TwoMotzkinPath(word.replace("H", "").replace("I", ""))
        assert len(s) % 2 == 0
