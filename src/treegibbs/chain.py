"""Markov chain on 2-Motzkin paths converging to the branching-energy Gibbs law.

Each step draws one of four move classes uniformly and applies it with a
heat-bath acceptance that already folds in the 1/2 laziness factor:

1. pair resample  -- an adjacent UD is rewritten to HH (or back) with
   probabilities proportional to the Gibbs weights of the two variants;
2. site resample  -- an H or I is redrawn from the heat-bath law on the
   two level-step colors;
3. transposition  -- two uniformly chosen positions swap their symbols if
   both hold up/down steps; proposals that dip below the axis are
   rejected in place;
4. adjacent swap  -- an up/down step exchanges places with a neighboring
   level step (always valid).

Classes 1 and 2 change the energy by +/-alpha and +/-(alpha - beta);
classes 3 and 4 preserve all symbol counts.  Every proposal carries
acceptance factor 1/2, so the chain is lazy and its spectrum nonnegative.

``ChainState.advance`` is the one loop that applies moves; when asked, it
reports how long it holds each word, and ``run`` reads its visit counts
off those reports and emits each held word once, as one ``Sample`` over
the emission times it covers.  ``step`` is ``advance(1)``.  Since a proposal
whose uniform is at or above its class's largest acceptance is rejected
whatever the word, each block of draws is screened in numpy when it is
drawn, and the loop visits only the draws a word could accept (43% of
them under Turner-04-CG at m = 49).  The raw draws, their order and so
every output are the same as without the screen.  ``draw_cells`` is the
exact kernel: the same moves as a table of draw cells, each vectorized
over a matrix of words, from which the oracle builds the transition matrix
and ``transition_distribution`` reads one row.  No other copy of the
kernel is kept, and a test injects every cell's draws into ``advance`` and
requires the cell's target word.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .energy import EnergyParams
from .errors import ConfigInvalidError, LengthMismatchError
from .paths import D, H, I, U, TwoMotzkinPath
from .trees import DegreeProfile

_RNG_BLOCK = 4096

# ``hold(word, since, now)``: ``word`` is the chain's state at times
# ``since + 1`` to ``now``; see ``ChainState.advance``.
Hold = Callable[[bytearray, int, int], None]
# From this thin on, ``run`` without occupancy steps one ``advance(thin)``
# per emission time instead of taking hold reports (see there).
_PER_ROW_THIN = 128


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


class MoveConstants(NamedTuple):
    """Per-(alpha, beta) acceptance probabilities, incl. the 1/2 laziness."""

    ud_to_hh: float
    hh_to_ud: float
    h_to_i: float
    i_to_h: float


def move_constants(params: EnergyParams) -> MoveConstants:
    a, b = params.alpha, params.beta
    return MoveConstants(
        ud_to_hh=0.5 * _sigmoid(-a),
        hh_to_ud=0.5 * _sigmoid(a),
        h_to_i=0.5 * _sigmoid(a - b),
        i_to_h=0.5 * _sigmoid(b - a),
    )


@dataclass(frozen=True)
class ChainConfig:
    """Immutable description of one chain run."""

    m: int
    params: EnergyParams
    seed: int
    initial_state: TwoMotzkinPath | None = None
    chain_id: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ConfigInvalidError(f"chain requires m >= 1, got m={self.m}")
        if self.initial_state is not None and len(self.initial_state) != self.m:
            raise ConfigInvalidError(
                f"initial state has length {len(self.initial_state)}, expected {self.m}"
            )

    def resolved_initial(self) -> TwoMotzkinPath:
        if self.initial_state is not None:
            return self.initial_state
        return TwoMotzkinPath._trusted(b"H" * self.m)


class ChainState:
    """Mutable sampler state: current path, step counter, RNG stream.

    Confined to one thread at a time; independent chains are obtained by
    distinct (seed, chain_id) pairs.
    """

    def __init__(self, cfg: ChainConfig):
        self.cfg = cfg
        self.word = bytearray(cfg.resolved_initial().symbols)
        self.step_count = 0
        self._consts = move_constants(cfg.params)
        seq = np.random.SeedSequence([cfg.seed & 0xFFFFFFFFFFFFFFFF, cfg.chain_id])
        self._rng = np.random.Generator(np.random.PCG64(seq))
        self._cursor = _RNG_BLOCK  # forces a refill on first use
        # Per move class: the number of positions u1 picks i from, and the
        # bound a draw's uniform must fall below for any word to accept it.
        m, pairs = cfg.m, cfg.m - 1
        ud_to_hh, hh_to_ud, h_to_i, i_to_h = self._consts
        self._spans = np.array([pairs, m, m, pairs])
        pair_limit = max(ud_to_hh, hh_to_ud) if pairs else 0.0
        self._limits = np.array([pair_limit, max(h_to_i, i_to_h), 0.5, 0.5 if pairs else 0.0])
        # The block's surviving draws (see ``_load``): offset in the block,
        # move class, positions i and j, and u2.
        self._offsets: list[int] = []
        self._moves: list[int] = []
        self._i: list[int] = []
        self._j: list[int] = []
        self._u2: list[float] = []

    @property
    def path(self) -> TwoMotzkinPath:
        return TwoMotzkinPath._trusted(bytes(self.word))

    def _refill(self) -> None:
        # One vectorized draw per block keeps the RNG cheap; the draw order
        # (classes, then u1, u2, u3) fixes the stream and so every output.
        rng = self._rng
        ls = rng.integers(0, 4, size=_RNG_BLOCK)
        u1 = rng.random(_RNG_BLOCK)
        u2 = rng.random(_RNG_BLOCK)
        self._load(ls, u1, u2, rng.random(_RNG_BLOCK))

    def _load(self, ls: np.ndarray, u1: np.ndarray, u2: np.ndarray, u3: np.ndarray) -> None:
        """Take a block of raw draws, keeping only those a word could accept.

        Each draw's positions are computed here: i from u1 over the m - 1
        pairs (pair classes) or the m sites, j = i + 1 for a pair, i for a
        site and from u2 for a transposition.  ``u * n`` in float64
        truncated to int64 is the same IEEE product and truncation as
        ``int(u * n)``.  A draw is dropped when its uniform alone rejects
        it, whatever the word: u2 at or above the larger acceptance of its
        pair or site class, u3 >= 1/2 for a transposition (and ``i == j``,
        which swaps nothing), u2 >= 1/2 for an adjacent swap, and the pair
        classes at m = 1.  The survivors are kept as plain lists, which beat
        numpy scalars for single-element access in the move loop; the
        draws, and so the chain, are unchanged.
        """
        swap = ls == 2
        i = (u1 * self._spans[ls]).astype(np.int64)
        j = np.where(swap, (u2 * self.cfg.m).astype(np.int64), i + ((ls == 0) | (ls == 3)))
        keep = (np.where(swap, u3, u2) < self._limits[ls]) & ((i != j) | ~swap)
        kept = np.flatnonzero(keep)
        self._offsets = kept.tolist()
        self._moves = ls[kept].tolist()
        self._i = i[kept].tolist()
        self._j = j[kept].tolist()
        self._u2 = u2[kept].tolist()
        self._cursor = 0

    def step(self) -> None:
        """Apply one transition of the chain in place."""
        self.advance(1)

    def advance(self, steps: int, hold: Hold | None = None) -> None:
        """Apply ``steps`` transitions in place.

        Draw ``k`` of a run is the same whatever the split of the run into
        calls: the blocks are refilled only when a step needs a draw past
        the end.  Each draw lands in one cell of :func:`draw_cells`, and
        the step leaves that cell's target word or the word unchanged.  The
        loop visits only the draws that survive the block's screen (see
        ``_load``); a screened-out draw is a step that keeps the word.

        With ``hold``, every step of the call is reported as part of one
        held segment: ``hold(word, since, now)`` says that ``word`` is the
        state at times ``since + 1`` to ``now`` (time ``t`` is the state
        after ``t`` steps of the chain, counted by ``step_count``).  The
        segments are reported in order, are never empty and cover the call's
        steps once: one ends before each move that changes the word and one
        at the end of each block of draws, so a rejected step costs nothing.
        ``hold`` must not change the word.
        """
        if steps <= 0:
            return
        w = self.word
        ud_to_hh, hh_to_ud, h_to_i, i_to_h = self._consts
        c = self._cursor
        t = self.step_count
        self.step_count += steps
        while steps:
            if c >= _RNG_BLOCK:
                self._refill()
                c = 0
            stop = min(c + steps, _RNG_BLOCK)
            steps -= stop - c
            # The draw at offset ``o`` of the block moves the chain from
            # time ``base + o``; ``since`` is the time the word last changed
            # (or the call or block began).
            base = t - c
            since = t
            t += stop - c
            offsets = self._offsets
            a = bisect_left(offsets, c)
            b = bisect_left(offsets, stop, a)
            draws = zip(offsets[a:b], self._moves[a:b], self._i[a:b], self._j[a:b], self._u2[a:b])
            c = stop
            # Each accepted move sets positions i and j to x and y below.
            for o, move, i, j, u2 in draws:
                if move == 0:  # UD <-> HH pair resample
                    a = w[i]
                    if a == U:
                        if w[j] != D or u2 >= ud_to_hh:
                            continue
                        x = y = H
                    elif a == H:
                        if w[j] != H or u2 >= hh_to_ud:
                            continue
                        x = U
                        y = D
                    else:
                        continue
                elif move == 1:  # H <-> I site resample
                    a = w[i]
                    if a == H:
                        if u2 >= h_to_i:
                            continue
                        x = y = I
                    elif a == I:
                        if u2 >= i_to_h:
                            continue
                        x = y = H
                    else:
                        continue
                elif move == 2:  # up/down transposition anywhere
                    y = w[i]
                    x = w[j]
                    if not ((y == U and x == D) or (y == D and x == U)):
                        continue
                    lo, hi = (i, j) if i < j else (j, i)
                    if w[lo] == U:
                        # The U moves right, so heights inside the span drop
                        # by 2; outside it nothing changes.  Walk the swapped
                        # span from the D now at lo, stopping at the first
                        # negative height.
                        h = w.count(U, 0, lo) - w.count(D, 0, lo) - 1
                        if h < 0:
                            continue
                        for s in w[lo + 1 : hi]:
                            if s == U:
                                h += 1
                            elif s == D:
                                h -= 1
                                if h < 0:
                                    break
                        if h < 0:
                            continue
                else:  # adjacent swap of an up/down and a level step
                    y = w[i]
                    x = w[j]
                    if (y == U or y == D) == (x == U or x == D):
                        continue
                if hold is not None:
                    now = base + o
                    if now != since:
                        hold(w, since, now)
                    since = now
                w[i] = x
                w[j] = y
            if hold is not None and since != t:
                hold(w, since, t)
        self._cursor = c


class DrawCell(NamedTuple):
    """A move class and the positions its draws pick, drawn with probability
    ``weight``: ``i`` from u1 (``j = i + 1`` for pair moves, ``j = i`` for a
    site move); a transposition picks ``j`` from u2."""

    move: int
    i: int
    j: int
    weight: float


def draw_cells(
    words: np.ndarray, params: EnergyParams
) -> Iterator[tuple[DrawCell, np.ndarray, np.ndarray, np.ndarray]]:
    """The move semantics of ``ChainState.advance``, vectorized over words.

    ``words`` is an ``(n, m)`` uint8 matrix of valid words.  For each draw
    cell that can change a word, yields ``(cell, rows, targets, accept)``:
    the rows the cell changes when its proposal is accepted, their target
    words, and the acceptance probability of each row -- the threshold
    the u2 draw (u3 for a transposition) must fall below.  The cell moves
    ``cell.weight * accept`` of each row's mass to its target; the rest of
    the mass stays on the word.  Transpositions with ``i == j`` never
    change a word and are not yielded.
    """
    m = words.shape[1]
    if m < 1:
        raise ConfigInvalidError("transition law requires m >= 1")
    ud_to_hh, hh_to_ud, h_to_i, i_to_h = move_constants(params)
    pairs = m - 1  # zero at m = 1, where the pair moves never apply
    up = words == U
    down = words == D
    vertical = up | down
    heights = np.cumsum(up.astype(np.int8) - down, axis=1)  # after each step

    for p in range(pairs):
        a, b = words[:, p], words[:, p + 1]
        ud = (a == U) & (b == D)
        rows = np.flatnonzero(ud | ((a == H) & (b == H)))
        to_hh = ud[rows]
        targets = words[rows]
        targets[:, p] = np.where(to_hh, H, U)
        targets[:, p + 1] = np.where(to_hh, H, D)
        accept = np.where(to_hh, ud_to_hh, hh_to_ud)
        yield DrawCell(0, p, p + 1, 0.25 / pairs), rows, targets, accept

    for i in range(m):
        s = words[:, i]
        h = s == H
        rows = np.flatnonzero(h | (s == I))
        to_i = h[rows]
        targets = words[rows]
        targets[:, i] = np.where(to_i, I, H)
        yield DrawCell(1, i, i, 0.25 / m), rows, targets, np.where(to_i, h_to_i, i_to_h)

    # Cells (i, j) and (j, i) swap the same two steps: their rows and
    # targets are found once, at i < j, and reused at i > j.
    spans = {}
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            if i > j:
                rows, targets = spans.pop((j, i))
            else:
                # Moving the D right raises the span; moving the U right lowers
                # the heights after steps i..j-1 by 2, so they must be >= 2.
                valid = down[:, i] & up[:, j]
                lowered = np.flatnonzero(up[:, i] & down[:, j])
                valid[lowered[heights[lowered, i:j].min(axis=1) >= 2]] = True
                rows = np.flatnonzero(valid)
                targets = words[rows]
                targets[:, [i, j]] = targets[:, [j, i]]
                spans[i, j] = rows, targets
            yield DrawCell(2, i, j, 0.25 / (m * m)), rows, targets, np.full(rows.size, 0.5)

    for p in range(pairs):
        rows = np.flatnonzero(vertical[:, p] != vertical[:, p + 1])
        targets = words[rows]
        targets[:, [p, p + 1]] = targets[:, [p + 1, p]]
        yield DrawCell(3, p, p + 1, 0.25 / pairs), rows, targets, np.full(rows.size, 0.5)


def transition_distribution(
    x: TwoMotzkinPath, params: EnergyParams
) -> dict[bytes, float]:
    """Exact one-step law from ``x``: every reachable word mapped to its mass.

    The one-row case of :func:`draw_cells`; the mass no cell moves stays
    on ``x``, so ``x`` is always a key.
    """
    sym = x.symbols
    moved: dict[bytes, float] = {}
    words = np.frombuffer(sym, dtype=np.uint8).reshape(1, len(sym))
    for cell, _, targets, accept in draw_cells(words, params):
        for target, q in zip(targets, accept):
            key = target.tobytes()
            moved[key] = moved.get(key, 0.0) + cell.weight * float(q)
    return {sym: 1.0 - sum(moved.values()), **moved}


def transition_probability(
    x: TwoMotzkinPath, y: TwoMotzkinPath, params: EnergyParams
) -> float:
    """Exact P(x, y), including the self-loop mass when x == y."""
    if len(x) != len(y):
        raise LengthMismatchError(f"paths of length {len(x)} and {len(y)}")
    return transition_distribution(x, params).get(y.symbols, 0.0)


def neighbors(
    x: TwoMotzkinPath, params: EnergyParams
) -> list[tuple[TwoMotzkinPath, float]]:
    """All states reachable in one step with positive probability, excluding x."""
    sym = x.symbols
    return [
        (TwoMotzkinPath._trusted(target), mass)
        for target, mass in transition_distribution(x, params).items()
        if target != sym and mass > 0.0
    ]


def word_fields(word: bytes, params: EnergyParams) -> tuple[float, DegreeProfile]:
    """Energy and degree profile of the tree a path encodes, read off its word.

    Equal to ``path_energy`` and ``degree_profile(decode(...))`` without
    building the tree: d0 = #U + #H + 1, d1 = #I, and the root's children
    are the leading edge plus one per H at height 0.  The energy is
    ``EnergyParams.branching``, as in ``path_energy``, so it is the same float.
    """
    u = word.count(U)
    h = word.count(H)
    i = word.count(I)
    r = 1
    height = 0
    for s in word:
        if s == U:
            height += 1
        elif s == D:
            height -= 1
        elif s == H and not height:
            r += 1
    d0 = u + h + 1
    return params.branching(d0, i), DegreeProfile(d0, i, r, len(word) + 1)


class Sample(NamedTuple):
    """The chain's state at the emission times ``steps``, over all of which
    it held the word of ``path``."""

    steps: range
    path: TwoMotzkinPath
    energy: float
    degrees: DegreeProfile | None = None


@dataclass
class RunResult:
    """Outcome of :func:`run`; ``samples`` is empty when a collector consumed them."""

    config: ChainConfig
    total_steps: int
    burn_in: int
    thin: int
    emitted: int = 0
    samples: list[Sample] = field(default_factory=list)
    occupancy: dict[bytes, int] | None = None
    final_path: TwoMotzkinPath | None = None


def check_schedule(total_steps: int, burn_in: int, thin: int) -> None:
    """Raise :class:`ConfigInvalidError` unless ``run`` can take this schedule."""
    if total_steps < 0 or burn_in < 0 or thin < 1:
        raise ConfigInvalidError(
            f"need total_steps >= 0, burn_in >= 0, thin >= 1; "
            f"got {total_steps}, {burn_in}, {thin}"
        )
    if burn_in > total_steps:
        raise ConfigInvalidError(f"burn_in {burn_in} exceeds total_steps {total_steps}")


def run(
    cfg: ChainConfig,
    total_steps: int,
    burn_in: int = 0,
    thin: int = 1,
    collector: Callable[[Sample], None] | None = None,
    include_degrees: bool = False,
    track_occupancy: bool = False,
) -> RunResult:
    """Run the chain, emitting the state at time t whenever t >= burn_in and
    (t - burn_in) is a multiple of ``thin`` (time 0 is the initial state).
    One ``Sample`` covers the emission times of one held word, in order:
    each sample's first step is the previous sample's last step plus
    ``thin``, and consecutive samples share one path object exactly when
    they hold the same word.

    With ``track_occupancy`` the visit count of every state strictly after
    burn-in is recorded, independent of thinning; this is the estimator
    behind total-variation summaries and only makes sense at small m.

    After burn-in one ``ChainState.advance`` call takes the whole run, and
    both the samples and the visit counts are read off the segments it
    holds each word for: a segment with emission times due is one sample,
    and a segment adds its length to its word's count.  So the cost is a
    hash per change of the word, not per step or per emission time.
    Without occupancy and at a thin of at least ``_PER_ROW_THIN``,
    ``advance(thin)`` is called once per emission time instead, and each
    sample covers one.
    """
    check_schedule(total_steps, burn_in, thin)
    state = ChainState(cfg)
    occupancy: dict[bytes, int] | None = {} if track_occupancy else None
    result = RunResult(cfg, total_steps, burn_in, thin, occupancy=occupancy)
    word = state.word
    params = cfg.params
    sink = result.samples.append if collector is None else collector
    # Most proposals are rejected, so the fields of the previous emission
    # are reused while the word has not changed since.
    last = path = energy = degrees = None
    due = burn_in  # the next emission time

    def emit(word: bytearray, since: int, now: int) -> None:
        nonlocal last, path, energy, degrees, due
        if due > now:
            return
        if word != last:
            last = bytes(word)
            path = TwoMotzkinPath._trusted(last)
            energy, profile = word_fields(last, params)
            degrees = profile if include_degrees else None
        steps = range(due, now + 1, thin)
        sink(Sample(steps, path, energy, degrees))
        due += len(steps) * thin

    def count(word: bytearray, since: int, now: int) -> None:
        key = bytes(word)
        occupancy[key] = occupancy.get(key, 0) + now - since
        emit(word, since, now)

    state.advance(burn_in)
    emit(word, burn_in - 1, burn_in)
    if track_occupancy or thin < _PER_ROW_THIN:
        state.advance(total_steps - burn_in, count if track_occupancy else emit)
    else:
        # A hold is reported before every accepted move.  With no visits to
        # count and rows this sparse, one call per row costs less than a hook
        # call per change of the word: at m = 49 and m = 999 the two broke
        # even between thin = 96 and 192 (2-core x86-64 host, Python 3.11).
        while due <= total_steps:
            state.advance(thin)
            emit(word, due - 1, due)
        state.advance(total_steps - state.step_count)
    result.emitted = (total_steps - burn_in) // thin + 1
    result.final_path = state.path
    return result


def batch_means_stderr(values, n_batches: int = 50) -> float:
    """Standard error of the mean of a correlated series via batch means."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2 * n_batches:
        n_batches = max(2, arr.size // 2)
    batch = arr.size // n_batches
    trimmed = arr[: batch * n_batches].reshape(n_batches, batch)
    means = trimmed.mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))
