"""The enumerated state space and the exact Gibbs law on it, on numpy alone.

This is the half of the exact oracle that sample summaries need: all
paths of length m as one word matrix, their Gibbs weights and log
partition value, the empirical law of a run's visit counts, and the
total-variation distance between two laws.  Every per-state quantity is
computed on the matrix; path objects are made only on access.  Nothing
here imports scipy, so ``treegibbs sample`` at small m runs without it;
:mod:`treegibbs.exact` builds kernels and spectra on top of these names.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .energy import EnergyParams
from .errors import ConfigInvalidError, LengthMismatchError
from .paths import D, H, I, SYMBOL_ORDER, U, PathSequence, TwoMotzkinPath, enumerate_paths

# Base-4 digit of each symbol in enumeration order (U < H < I < D), so the
# codes of a StateIndex's words ascend and fit in int64 for m <= 31.
_DIGIT = np.zeros(256, dtype=np.int64)
_DIGIT[list(SYMBOL_ORDER)] = np.arange(4)


@dataclass(frozen=True, eq=False)
class StateIndex:
    """Row i of the read-only uint8 matrix ``words`` is state i; ``codes``
    are the rows' base-4 codes, ascending, for ``searchsorted`` lookups."""

    m: int
    words: np.ndarray
    codes: np.ndarray

    @classmethod
    def build(cls, m: int) -> "StateIndex":
        """All paths of length m; ``CapExceededError`` past ``paths.ENUMERATION_CAP``."""
        words = enumerate_paths(m).words
        return cls(m=m, words=words, codes=_codes(words))

    def __len__(self) -> int:
        return len(self.words)

    @property
    def paths(self) -> PathSequence:
        """The states as :class:`TwoMotzkinPath` objects, made on access."""
        return PathSequence(self.words)

    def index_of(self, path: TwoMotzkinPath) -> int:
        return int(self._rows([path.symbols])[0])

    def _rows(self, words: list[bytes]) -> np.ndarray:
        """Index of each word; ``KeyError`` for the first that is not a state."""
        if any(len(word) != self.m for word in words):
            raise KeyError(next(word for word in words if len(word) != self.m))
        matrix = np.frombuffer(b"".join(words), np.uint8).reshape(len(words), self.m)
        rows = np.searchsorted(self.codes, _codes(matrix)).clip(max=len(self) - 1)
        # Codes read any byte outside U/H/I/D as a U, so compare the words.
        missing = (self.words[rows] != matrix).any(axis=1)
        if missing.any():
            raise KeyError(words[int(missing.argmax())])
        return rows

    def order_hash(self) -> str:
        """SHA-256 of the newline-joined state order; identifies the indexing."""
        lines = np.pad(self.words, ((0, 0), (0, 1)), constant_values=ord("\n"))
        return hashlib.sha256(lines.tobytes()[:-1]).hexdigest()

    def energies(self, params: EnergyParams) -> np.ndarray:
        """``path_energy`` of every state: the same float64 expression, on column counts."""
        u, h, i = ((self.words == s).sum(axis=1) for s in (U, H, I))
        return params.branching(u + h + 1, i)

    @cached_property
    def label_blocks(self) -> dict[tuple[int, str, str], np.ndarray]:
        """Ascending state indices of each (k, q, s) label, in sorted label order.

        The label of a word is its up-step count, its level-step color word
        and its up/down skeleton (``decomposition.classify``).  Each row,
        stably sorted to put its U/D steps last, reads q then s, split at one
        place per k; so rows sorted by k and then by these bytes are sorted
        by label.  The arrays are read-only: they are shared.
        """
        words = self.words
        vertical = (words == U) | (words == D)
        qs = np.take_along_axis(words, np.argsort(vertical, axis=1, kind="stable"), axis=1)
        # 2k first, then the bytes; ties keep index order.
        order = np.lexsort(np.vstack([qs.T[::-1], vertical.sum(axis=1)]))
        qs = qs[order]  # the bytes alone tell labels apart: they hold 2k U/D steps
        starts = np.flatnonzero(np.r_[True, (qs[1:] != qs[:-1]).any(axis=1)])
        blocks = {}
        for start, idx in zip(starts, np.split(order, starts[1:])):
            row = qs[start].tobytes().decode()
            kk = row.count("U")
            idx.flags.writeable = False
            blocks[kk, row[: self.m - 2 * kk], row[self.m - 2 * kk :]] = idx
        return blocks


def _codes(words: np.ndarray) -> np.ndarray:
    """Base-4 code of each row of a word matrix; ascending in enumeration order."""
    return _DIGIT[words] @ (4 ** np.arange(words.shape[1] - 1, -1, -1, dtype=np.int64))


def logsumexp(a) -> float:
    """log(sum(exp(a))) of a 1-D array, without overflow.

    The expression ``scipy.special.logsumexp`` evaluates for real 1-D input
    in scipy 1.17, so laws normalized here keep their bits whatever scipy is
    installed: the maxima are taken out of the sum and counted, and the
    value is log1p(rest / count) + log(count) + max.
    """
    a = np.asarray(a, dtype=float)
    top = a.max()
    at_top = a == top
    ties = np.float64(np.count_nonzero(at_top))
    # An infinite or NaN maximum gives scipy's result too (inf, -inf or
    # NaN) through inf - inf and log(0), so those stay quiet.
    with np.errstate(invalid="ignore", divide="ignore"):
        rest = np.exp(a - top)
        rest[at_top] = 0.0
        return float(np.log1p(rest.sum() / ties) + np.log(ties) + top)


def gibbs_distribution(
    m: int, params: EnergyParams, index: StateIndex | None = None
) -> tuple[np.ndarray, float]:
    """Exact Gibbs law over all paths of length m and its log partition value."""
    if index is None:
        index = StateIndex.build(m)
    log_w = -index.energies(params)
    log_z = logsumexp(log_w)
    return np.exp(log_w - log_z), log_z


def empirical_distribution(
    occupancy: dict[bytes, int], index: StateIndex
) -> np.ndarray:
    """Normalized visit counts aligned with a state index; ``KeyError`` for a non-state."""
    total = sum(occupancy.values())
    if total == 0:
        raise ConfigInvalidError("occupancy is empty")
    out = np.zeros(len(index))
    out[index._rows(list(occupancy))] = np.fromiter(occupancy.values(), float, len(occupancy)) / total
    return out


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance (half the L1 distance) between two laws."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise LengthMismatchError(f"distributions of size {p.size} and {q.size}")
    return float(0.5 * np.abs(p - q).sum())
