"""Path validation, enumeration, and counting, checked against brute force.

The independent oracles here never reuse the enumerator under test: raw
words come from itertools.product over the alphabet or from a recursive
generator, and counts come from a lattice-walk dynamic program.
"""

import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegibbs import (
    DyckPath,
    catalan,
    enumerate_paths,
    iter_paths,
    motzkin,
    validate,
)
from treegibbs.errors import (
    CapExceededError,
    InvalidSymbolError,
    NegativePrefixError,
    UnbalancedError,
)


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
        assert validate("UD").word == "UD"

    def test_empty(self):
        assert len(validate("")) == 0

    def test_negative_prefix_at_first_symbol(self):
        with pytest.raises(NegativePrefixError) as err:
            validate("DU")
        assert err.value.index == 0

    def test_negative_prefix_reports_offending_d(self):
        with pytest.raises(NegativePrefixError) as err:
            validate("UDDU")
        assert err.value.index == 2

    def test_unbalanced_reports_first_unmatched_u(self):
        with pytest.raises(UnbalancedError) as err:
            validate("UUD")
        assert err.value.index == 0
        with pytest.raises(UnbalancedError) as err:
            validate("UDU")
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
                    validate(word)
                except UnbalancedError as err:
                    assert err.index == first_unmatched_up(word), word
                    checked += 1
                except NegativePrefixError:
                    pass
        assert checked > 0

    def test_foreign_character(self):
        with pytest.raises(InvalidSymbolError) as err:
            validate("UHXD")
        assert err.value.index == 2

    def test_prefix_sums_example(self):
        x = validate("UHIDHH")
        heights = []
        h = 0
        for ch in x.word:
            h += {"U": 1, "D": -1}.get(ch, 0)
            heights.append(h)
        assert heights == [1, 1, 1, 0, 0, 0]

    def test_bytes_and_str_agree(self):
        assert validate(b"UHID") == validate("UHID")

    def test_immutable_and_hashable(self):
        x = validate("UD")
        with pytest.raises(AttributeError):
            x.symbols = b"HH"
        assert len({x, validate("UD"), validate("HH")}) == 2


class TestSymbolCounts:
    @pytest.mark.parametrize(
        "word,expected",
        [("", (0, 0, 0, 0)), ("UHID", (1, 1, 1, 1)), ("UUDD", (2, 0, 0, 2))],
    )
    def test_examples(self, word, expected):
        assert validate(word).counts() == expected

    def test_counts_balance(self):
        for x in enumerate_paths(6):
            c = x.counts()
            assert c.u == c.d
            assert c.length == 6


class TestSkeleton:
    @pytest.mark.parametrize(
        "word,expected", [("HIHI", ""), ("UHIDUD", "UDUD"), ("UUHDID", "UUDD")]
    )
    def test_examples(self, word, expected):
        assert validate(word).skeleton().word == expected

    def test_skeleton_is_dyck_path(self):
        for x in enumerate_paths(6):
            s = x.skeleton()
            assert isinstance(s, DyckPath)
            assert len(s) == 2 * x.counts().u
            DyckPath(s.word)  # revalidates from scratch


class TestEnumeration:
    def test_m0_and_m1(self):
        assert [p.word for p in enumerate_paths(0)] == [""]
        assert [p.word for p in enumerate_paths(1)] == ["H", "I"]

    def test_m2_matches_brute_force(self):
        assert sorted(p.word for p in enumerate_paths(2)) == sorted(brute_force_words(2))
        assert set(p.word for p in enumerate_paths(2)) == {"UD", "HH", "HI", "IH", "II"}

    def test_full_agreement_with_brute_force(self):
        for m in range(0, 8):
            assert sorted(p.word for p in enumerate_paths(m)) == sorted(brute_force_words(m))

    @pytest.mark.parametrize("m", range(11))
    def test_matches_recursive_generator(self, m):
        # Same words in the same order, through every way of reading them.
        reference = recursive_words(m)
        paths = enumerate_paths(m)
        assert len(paths) == len(reference)
        assert [p.symbols for p in paths] == reference
        assert [p.symbols for p in iter_paths(m)] == reference
        assert [paths[i].symbols for i in range(-len(paths), len(paths))] == reference * 2
        assert paths.words.shape == (len(reference), m)
        assert paths.words.tobytes() == b"".join(reference)
        assert not paths.words.flags.writeable

    def test_lexicographic_order(self):
        rank = {"U": 0, "H": 1, "I": 2, "D": 3}
        for m in (3, 5):
            words = [[rank[c] for c in p.word] for p in enumerate_paths(m)]
            assert words == sorted(words)

    def test_counts_match_catalan_and_walk_dp(self):
        for m in range(0, 11):
            n = sum(1 for _ in iter_paths(m))
            assert n == catalan(m + 1)
            assert n == walk_count(m)

    def test_roundtrip_serialization(self):
        for x in enumerate_paths(5):
            assert validate(x.word) == x

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_paths(13)

    def test_negative_length(self):
        with pytest.raises(ValueError):
            enumerate_paths(-1)


class TestCounting:
    @pytest.mark.parametrize("n,expected", [(0, 1), (3, 5), (10, 16796)])
    def test_catalan(self, n, expected):
        assert catalan(n) == expected

    def test_catalan_closed_form(self):
        for n in range(0, 40):
            assert catalan(n) == math.comb(2 * n, n) // (n + 1)

    @pytest.mark.parametrize("n,expected", [(0, 1), (3, 4), (5, 21)])
    def test_motzkin(self, n, expected):
        assert motzkin(n) == expected

    def test_motzkin_matches_single_color_walks(self):
        for n in range(0, 11):
            assert motzkin(n) == walk_count(n, colors=1)

    def test_up_count_strata(self):
        # Paths with k up steps: positions * skeletons * level colorings.
        for m in range(0, 9):
            by_k: dict[int, int] = {}
            for x in iter_paths(m):
                k = x.counts().u
                by_k[k] = by_k.get(k, 0) + 1
            for k, cnt in by_k.items():
                assert cnt == math.comb(m, 2 * k) * catalan(k) * 2 ** (m - 2 * k)
            # Restricting to one level color recovers the Motzkin stratum count.
            one_color: dict[int, int] = {}
            for x in iter_paths(m):
                c = x.counts()
                if c.i == 0:
                    one_color[c.u] = one_color.get(c.u, 0) + 1
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
        x = validate(word)
        assert x.word == word
        assert validate(x.word) == x

    @given(random_path_words())
    @settings(max_examples=200)
    def test_skeleton_valid_and_even(self, word):
        s = validate(word).skeleton()
        DyckPath(s.word)
        assert len(s) % 2 == 0
