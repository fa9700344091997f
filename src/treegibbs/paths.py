"""2-Motzkin paths and their counting functions.

A 2-Motzkin path of length m is a word over {U, H, I, D} in which no
prefix contains more D's than U's and the whole word balances.  U/D are
up/down steps; H and I are two distinguishable colors of level step.
There are catalan(m + 1) such words.  Symbols are stored as ASCII bytes
so file round-trips are bit-exact and inner-loop comparisons stay cheap;
all words of one length form one read-only uint8 matrix
(:func:`enumerate_paths`), whose rows :func:`iter_paths` makes into
:class:`TwoMotzkinPath` objects one at a time.  Every pass over a word
matrix, the sampler's and the oracle's, reads the encoding defined here:
``DIGIT``, ``RISE``, ``REVERSED``, :func:`heights` and :func:`rank`.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

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
# Path reversal reads a word backwards and swaps U and D, which maps the
# paths of each length onto themselves.
REVERSED_SYMBOL = {U: D, H: H, I: I, D: U}

# Read-only tables indexed by a word's bytes: each symbol's digit in
# SYMBOL_ORDER, height change and image under reversal.  Any other byte has
# digit 0 and height change 0, and reversal keeps it.
DIGIT = np.zeros(256, np.uint8)
DIGIT[list(SYMBOL_ORDER)] = range(4)
RISE = np.zeros(256, np.int8)
RISE[[U, D]] = 1, -1
REVERSED = np.arange(256, dtype=np.uint8)
REVERSED[list(REVERSED_SYMBOL)] = list(REVERSED_SYMBOL.values())
DIGIT.flags.writeable = RISE.flags.writeable = REVERSED.flags.writeable = False

ENUMERATION_CAP = 12  # also the exact oracle's: catalan(13) = 742 900 states
RANK_CAP = 34  # rank counts in int64: catalan(35) < 2**63 <= catalan(36)


def heights(words: np.ndarray) -> np.ndarray:
    """The height after each step of a uint8 word, or of each row of a word
    matrix, as int32."""
    return np.cumsum(RISE[words], axis=-1, dtype=np.int32)


def rank(words: np.ndarray) -> np.ndarray:
    """The int64 index of each row of a uint8 word matrix in :func:`enumerate_paths`
    order, or -1 for a row that is not a path (a byte outside U/H/I/D, a dip below 0,
    an end above 0): the order is lexicographic, so it counts the paths that agree with
    the row up to some position and hold a smaller symbol there (Nijenhuis & Wilf 1978)."""
    below, step = _rank_tables(words.shape[1])
    state, ranks = 0, np.zeros(len(words), np.int64)  # state 0: height 0
    for p, column in enumerate(words.T):
        at = state + column
        ranks += below[p].take(at)
        state = step.take(at)
    ranks[state != 0] = -1
    return ranks


@functools.cache
def _rank_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """A word walks the states s = 256 h at height h, and s = 256 (m + 1) for good from
    a byte outside U/H/I/D or a dip below 0: ``step[s + byte]`` is the next state, and
    ``below[p, s + byte]`` counts the paths equal to the word before p and smaller at p."""
    if m > RANK_CAP:
        raise CapExceededError("rank length m", m, RANK_CAP)
    symbols = list(SYMBOL_ORDER)
    step = np.arange(m + 2)[:, None] + RISE
    step[(step < 0) | (step > m) | ~np.isin(np.arange(256), symbols)] = m + 1
    step[m + 1] = m + 1
    below = np.zeros((m, m + 2, 256), np.int64)
    ahead = np.zeros(m + 2, np.int64)  # the ways to end a path from each state
    ahead[0] = 1
    for p in range(m - 1, -1, -1):
        ways = ahead[step[:, symbols]]  # by state, then symbol at p
        below[p][:, symbols] = np.cumsum(ways, axis=1) - ways
        ahead = ways.sum(axis=1) * (np.arange(m + 2) <= p)  # the heights p steps reach
    return below.reshape(m, (m + 2) * 256), step.ravel() * 256


def _check_word(word: str | bytes | bytearray) -> bytes:
    """Validate a raw word and return its canonical bytes form."""
    # "replace" writes one "?" per character it cannot encode, so indices
    # into the bytes are indices into the str.
    symbols = word.encode("ascii", errors="replace") if isinstance(word, str) else bytes(word)
    opened = []  # the positions of the U steps not yet matched by a D
    for idx, s in enumerate(symbols):
        if s not in ALPHABET:
            given = word[idx] if isinstance(word, str) else chr(s)
            raise InvalidSymbolError(f"symbol {given!r} not in U/H/I/D", idx)
        if s == U:
            opened.append(idx)
        elif s == D:
            if not opened:
                raise NegativePrefixError("path dips below the axis", idx)
            opened.pop()
    if opened:
        raise UnbalancedError("up steps exceed down steps", opened[0])
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

    @classmethod
    def _trusted(cls, symbols: bytes) -> "TwoMotzkinPath":
        """Wrap bytes known to be valid without re-scanning them."""
        self = object.__new__(cls)
        object.__setattr__(self, "symbols", symbols)
        return self

    @property
    def word(self) -> str:
        return self.symbols.decode("ascii")

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


def enumerate_paths(m: int) -> np.ndarray:
    """All catalan(m + 1) paths of length m in lexicographic order (U < H < I < D),
    as the rows of a read-only ``(catalan(m + 1), m)`` uint8 matrix.

    Each prefix grows by U, H, I and D in turn, and survives while its height
    stays in [0, steps remaining], so it can still return to 0.
    """
    if m < 0:
        raise ConfigInvalidError(f"path length must be nonnegative, got m={m}")
    if m > ENUMERATION_CAP:
        raise CapExceededError("enumeration length m", m, ENUMERATION_CAP)
    symbols = np.frombuffer(SYMBOL_ORDER, np.uint8)
    words = np.zeros((1, m), np.uint8)
    height = np.zeros(1, np.int8)
    for pos in range(m):
        grown = height[:, None] + RISE[symbols]
        # Row-major order: by prefix, then by symbol, so rows stay sorted.
        prefix, symbol = np.nonzero((grown >= 0) & (grown <= m - pos - 1))
        words = words[prefix]
        words[:, pos] = symbols[symbol]
        height = grown[prefix, symbol]
    words.flags.writeable = False
    return words


def iter_paths(m: int) -> Iterator[TwoMotzkinPath]:
    """The rows of :func:`enumerate_paths` as paths, in order; its errors raise on the call."""
    return map(TwoMotzkinPath._trusted, map(np.ndarray.tobytes, enumerate_paths(m)))


def catalan(n: int) -> int:
    """n-th Catalan number, exact."""
    if n < 0:
        raise ValueError("catalan is defined for n >= 0")
    return math.comb(2 * n, n) // (n + 1)
