"""2-Motzkin paths, Dyck paths, and their counting functions.

A 2-Motzkin path of length m is a word over {U, H, I, D} in which no
prefix contains more D's than U's and the whole word balances.  U/D are
up/down steps; H and I are two distinguishable colors of level step.
There are catalan(m + 1) such words.  Symbols are stored as ASCII bytes
so file round-trips are bit-exact and inner-loop comparisons stay cheap;
all words of one length form one uint8 matrix (:func:`enumerate_paths`).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from typing import Iterator, NamedTuple

import numpy as np

from .errors import (
    CapExceededError,
    ConfigInvalidError,
    InvalidSymbolError,
    NegativePrefixError,
    UnbalancedError,
)

U, H, I, D = 0x55, 0x48, 0x49, 0x44  # ASCII "U", "H", "I", "D"
ALPHABET = frozenset((U, H, I, D))

# Canonical symbol order for enumeration and lexicographic comparisons.
SYMBOL_ORDER = bytes((U, H, I, D))
_SYMBOLS = np.frombuffer(SYMBOL_ORDER, np.uint8)
_RISE = np.array([1, 0, 0, -1], np.int8)  # height change of each, in that order

ENUMERATION_CAP = 12  # also the exact oracle's: catalan(13) = 742 900 states


def _first_unmatched_up(symbols: bytes) -> int:
    """Index of the first U whose matching D never arrives."""
    # A U is unmatched iff the path never comes back down below the height
    # it climbs to, so that height is the lowest from there to the end.
    steps = np.frombuffer(symbols, np.uint8)
    heights = np.cumsum((steps == U).astype(np.int64) - (steps == D))
    lowest_ahead = np.minimum.accumulate(heights[::-1])[::-1]
    return int(np.flatnonzero((steps == U) & (heights == lowest_ahead))[0])


def _check_word(word: str | bytes | bytearray) -> bytes:
    """Validate a raw word and return its canonical bytes form."""
    symbols = word.encode("ascii", errors="replace") if isinstance(word, str) else bytes(word)
    height = 0
    for idx, s in enumerate(symbols):
        if s not in ALPHABET:
            raise InvalidSymbolError(f"symbol {chr(s)!r} not in U/H/I/D", idx)
        if s == U:
            height += 1
        elif s == D:
            height -= 1
            if height < 0:
                raise NegativePrefixError("path dips below the axis", idx)
    if height != 0:
        raise UnbalancedError("up steps exceed down steps", _first_unmatched_up(symbols))
    return symbols


class TwoMotzkinPath:
    """Immutable validated 2-Motzkin path.

    Instances hash and compare by their symbol bytes, so they can key
    dictionaries and sets directly.
    """

    __slots__ = ("symbols",)

    symbols: bytes

    def __init__(self, word: str | bytes | bytearray):
        object.__setattr__(self, "symbols", _check_word(word))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), (self.symbols,))

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    @classmethod
    def _trusted(cls, symbols: bytes) -> "TwoMotzkinPath":
        """Wrap bytes known to be valid without re-scanning them."""
        self = object.__new__(cls)
        object.__setattr__(self, "symbols", symbols)
        return self

    @property
    def word(self) -> str:
        return self.symbols.decode("ascii")

    def counts(self) -> "SymbolCounts":
        return SymbolCounts(
            u=self.symbols.count(U),
            h=self.symbols.count(H),
            i=self.symbols.count(I),
            d=self.symbols.count(D),
        )

    def skeleton(self) -> "DyckPath":
        """Dyck path left after deleting every level step."""
        return DyckPath._trusted(bytes(s for s in self.symbols if s == U or s == D))

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        if isinstance(other, TwoMotzkinPath):
            return self.symbols == other.symbols
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.word!r})"


class DyckPath(TwoMotzkinPath):
    """A 2-Motzkin path with no level steps (only U and D)."""

    __slots__ = ()

    def __init__(self, word: str | bytes | bytearray):
        super().__init__(word)
        for idx, s in enumerate(self.symbols):
            if s == H or s == I:
                raise InvalidSymbolError("level step not allowed in a Dyck path", idx)


class SymbolCounts(NamedTuple):
    """Occurrence counts of the four symbols; u == d and they sum to the length."""

    u: int
    h: int
    i: int
    d: int

    @property
    def length(self) -> int:
        return self.u + self.h + self.i + self.d


def validate(word: str | bytes | bytearray) -> TwoMotzkinPath:
    """Validate a raw word, raising a typed error at the first offending index."""
    return TwoMotzkinPath(word)


class PathSequence(Sequence[TwoMotzkinPath]):
    """The rows of a read-only ``(n, m)`` uint8 matrix ``words`` as paths, made on access."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, i: int) -> TwoMotzkinPath:
        return TwoMotzkinPath._trusted(self.words[operator.index(i)].tobytes())


def enumerate_paths(m: int) -> PathSequence:
    """All catalan(m + 1) paths of length m in lexicographic order (U < H < I < D).

    Each prefix grows by U, H, I and D in turn, and survives while its height
    stays in [0, steps remaining], so it can still return to 0.
    """
    if m < 0:
        raise ConfigInvalidError(f"path length must be nonnegative, got m={m}")
    if m > ENUMERATION_CAP:
        raise CapExceededError("enumeration length m", m, ENUMERATION_CAP)
    words = np.zeros((1, m), np.uint8)
    heights = np.zeros(1, np.int8)
    for pos in range(m):
        grown = heights[:, None] + _RISE
        # Row-major order: by prefix, then by symbol, so rows stay sorted.
        prefix, symbol = np.nonzero((grown >= 0) & (grown <= m - pos - 1))
        words = words[prefix]
        words[:, pos] = _SYMBOLS[symbol]
        heights = grown[prefix, symbol]
    words.flags.writeable = False
    return PathSequence(words)


def iter_paths(m: int) -> Iterator[TwoMotzkinPath]:
    """Iterate over :func:`enumerate_paths`; its errors raise on the call."""
    return iter(enumerate_paths(m))


def catalan(n: int) -> int:
    """n-th Catalan number, exact."""
    if n < 0:
        raise ValueError("catalan is defined for n >= 0")
    return math.comb(2 * n, n) // (n + 1)


def motzkin(n: int) -> int:
    """n-th Motzkin number via the binomial-Catalan convolution, exact."""
    if n < 0:
        raise ValueError("motzkin is defined for n >= 0")
    return sum(math.comb(n, 2 * k) * catalan(k) for k in range(n // 2 + 1))
