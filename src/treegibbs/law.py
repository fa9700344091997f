"""The enumerated state space and the exact Gibbs law on it, on numpy alone.

This is the half of the exact oracle that sample summaries need: the
indexed list of all paths of length m, their Gibbs weights and log
partition value, the empirical law of a run's visit counts, and the
total-variation distance between two laws.  Nothing here imports scipy,
so ``treegibbs sample`` at small m runs without it; :mod:`treegibbs.exact`
builds kernels and spectra on top of these names.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .energy import EnergyParams, path_energy
from .errors import CapExceededError, ConfigInvalidError, LengthMismatchError
from .paths import SYMBOL_ORDER, TwoMotzkinPath, enumerate_paths

EXACT_CAP = 10  # catalan(11) = 58786 states; sparse machinery only

# Base-4 digit of each symbol in enumeration order (U < H < I < D), so the
# codes of a StateIndex's words ascend and fit in int64 for m <= 31.
_DIGIT = np.zeros(256, dtype=np.int64)
_DIGIT[list(SYMBOL_ORDER)] = np.arange(4)


@dataclass(frozen=True)
class StateIndex:
    """Bidirectional map between paths of length m and dense indices."""

    m: int
    paths: tuple[TwoMotzkinPath, ...]
    _pos: dict[bytes, int]

    @classmethod
    def build(cls, m: int, cap: int = EXACT_CAP) -> "StateIndex":
        if m > cap:
            raise CapExceededError("exact state space length m", m, cap)
        paths = tuple(enumerate_paths(m))
        pos = {p.symbols: i for i, p in enumerate(paths)}
        return cls(m=m, paths=paths, _pos=pos)

    def __len__(self) -> int:
        return len(self.paths)

    def index_of(self, path: TwoMotzkinPath) -> int:
        return self._pos[path.symbols]

    def order_hash(self) -> str:
        """SHA-256 of the newline-joined state order; identifies the indexing."""
        return hashlib.sha256(b"\n".join(p.symbols for p in self.paths)).hexdigest()

    @cached_property
    def label_blocks(self) -> dict[tuple[int, str, str], np.ndarray]:
        """Ascending state indices of each (k, q, s) label, in sorted label order.

        The label of a word is its up-step count, its level-step color word
        and its up/down skeleton (``decomposition.classify``), read off the
        bytes once per index.  The arrays are read-only: they are shared.
        """
        grouped: dict[tuple[int, str, str], list[int]] = {}
        for i, p in enumerate(self.paths):
            w = p.symbols
            k, q, s = w.count(b"U"), w.translate(None, b"UD"), w.translate(None, b"HI")
            grouped.setdefault((k, q.decode(), s.decode()), []).append(i)
        blocks = {}
        for label, idx in sorted(grouped.items()):
            blocks[label] = np.array(idx, dtype=int)
            blocks[label].flags.writeable = False
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
    m: int,
    params: EnergyParams,
    cap: int = EXACT_CAP,
    index: StateIndex | None = None,
) -> tuple[np.ndarray, float]:
    """Exact Gibbs law over all paths of length m and its log partition value."""
    if index is None:
        index = StateIndex.build(m, cap)
    log_w = np.array([-path_energy(p, params) for p in index.paths])
    log_z = logsumexp(log_w)
    return np.exp(log_w - log_z), log_z


def empirical_distribution(
    occupancy: dict[bytes, int], index: StateIndex
) -> np.ndarray:
    """Normalized visit counts aligned with a state index."""
    total = sum(occupancy.values())
    if total == 0:
        raise ConfigInvalidError("occupancy is empty")
    out = np.zeros(len(index))
    for key, count in occupancy.items():
        out[index._pos[key]] = count / total
    return out


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance (half the L1 distance) between two laws."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise LengthMismatchError(f"distributions of size {p.size} and {q.size}")
    return float(0.5 * np.abs(p - q).sum())
