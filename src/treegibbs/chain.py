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

The four classes are written once, as one table of rules (``_move_rules``):
per class, the symbols a proposal needs at its two positions, the symbols
it writes there and its acceptance.  ``ChainState.advance`` is the one
loop that applies moves; it reports the words it holds at the times
asked for, and ``run`` reads its visit counts off those reports and emits
each held word once, as one ``Sample`` over the emission times it covers.
``step`` is ``advance(1)``.  Since a proposal whose uniform is at or above
its class's largest acceptance is rejected whatever the word, each block
of draws is screened in numpy when it is drawn, and the loop visits only
the draws a word could accept (43% of them under Turner-04-CG at m = 49).
The raw draws, their order and so every output are the same as without
the screen.  ``run`` reads the energy and degrees of its held words in
numpy batches (``word_fields``), the same reader the oracle's energies go
through.  ``draw_cells`` is the exact kernel: the same table read by a
list of draw cells, each vectorized over a matrix of words, from which
the oracle builds the transition matrix.  The one rule that looks past
its two symbols, a transposition moving a U right past a D, keeps its
height condition in a scalar form in the loop and a vectorized one in
``draw_cells``; a test injects every cell's draws into ``advance`` and
requires the cell's target word, which ties the two together.  Both
matrix readers read words through :mod:`treegibbs.paths`: ``DIGIT`` keys
the cells' rule lookups, and ``heights`` gives heights to both.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .energy import EnergyParams
from .errors import ConfigInvalidError, InternalInvariantViolationError
from .paths import D, DIGIT, H, I, REVERSED_SYMBOL, U, TwoMotzkinPath, heights
from .trees import DegreeProfile

_RNG_BLOCK = 4096

# ``hold(word, since, now)``: ``word`` is the chain's state at times
# ``since + 1`` to ``now``; it returns the first time after ``now`` at which
# the caller next needs the held word.  See ``ChainState.advance``.
Hold = Callable[[bytearray, int, int], int]
# ``run`` reads the fields of its held words in batches of about this many
# symbols, which bounds the memory they take at every m.  A queued sample
# also holds about 140 bytes of Python objects, so a short word counts as
# ``_FLUSH_MIN_M`` symbols.
_FLUSH_SYMBOLS = 1 << 16
_FLUSH_MIN_M = 64


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


# The one rule with a condition beyond its two symbols: a transposition
# (class 2) that moves a U right past a D lowers the span between them by
# 2, so it applies only where no height there drops below 0.
_TRANSPOSE = 2
_LOWERING = (U, D)


def _move_rules(params: EnergyParams) -> tuple[dict, ...]:
    """The four move classes, in the order of their class numbers: for each,
    the symbols a proposal needs at its positions i and j, mapped to the
    symbols it writes there and its acceptance.  A site move has i == j."""
    ud_to_hh, hh_to_ud, h_to_i, i_to_h = move_constants(params)
    return (
        {(U, D): ((H, H), ud_to_hh), (H, H): ((U, D), hh_to_ud)},
        {(H, H): ((I, I), h_to_i), (I, I): ((H, H), i_to_h)},
        {(U, D): ((D, U), 0.5), (D, U): ((U, D), 0.5)},
        {(a, b): ((b, a), 0.5) for v in (U, D) for s in (H, I) for a, b in ((v, s), (s, v))},
    )


def check_reversal_symmetry(params: EnergyParams) -> None:
    """Certify, for every m, that the chain commutes with path reversal R
    (``paths.REVERSED_SYMBOL``).

    R maps the positions (i, j) of a draw to (m - 1 - j, m - 1 - i), and
    every class draws its cells with one weight, so the chain commutes with
    R when each rule (a, b) -> (x, y) has its mirror (R b, R a) -> (R y, R x)
    in the same class with the same acceptance, and the lowering rule, the
    one with a height condition, is its own mirror (its condition is then
    mirrored too).  R keeps the symbol counts, so it keeps every Gibbs
    weight.  ``InternalInvariantViolationError`` naming the first rule
    whose mirror fails.
    """
    r = REVERSED_SYMBOL
    for c, table in enumerate(_move_rules(params)):
        for (a, b), ((x, y), q) in table.items():
            if table.get((r[b], r[a])) != ((r[y], r[x]), q):
                raise InternalInvariantViolationError(
                    f"move class {c}: the rule {bytes((a, b))!r} -> {bytes((x, y))!r} "
                    "has no mirror under path reversal with the same acceptance"
                )
    a, b = _LOWERING
    if (r[b], r[a]) != _LOWERING:
        raise InternalInvariantViolationError("the lowering transposition is not its own mirror")


def _lookup(rules: dict) -> list[list[tuple | None]]:
    """``rules`` as lists indexed by the symbol at i, then the one at j (None
    where no rule applies), which beat a dict in the move loop."""
    none = [None] * 256
    rows = {a: [rules.get((a, b)) for b in range(256)] for a in (U, D, H, I)}
    return [rows.get(a, none) for a in range(256)]


@dataclass(frozen=True)
class ChainConfig:
    """Immutable description of one chain run; the chain starts from
    ``initial_state``, or from the all-H word when it is None."""

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


class ChainState:
    """Mutable sampler state: current path, step counter, RNG stream.

    Confined to one thread at a time; independent chains are obtained by
    distinct (seed, chain_id) pairs.
    """

    def __init__(self, cfg: ChainConfig):
        self.cfg = cfg
        start = cfg.initial_state
        self.word = bytearray(b"H" * cfg.m if start is None else start.symbols)
        self.step_count = 0
        seq = np.random.SeedSequence([cfg.seed & 0xFFFFFFFFFFFFFFFF, cfg.chain_id])
        self._rng = np.random.Generator(np.random.PCG64(seq))
        self._cursor = _RNG_BLOCK  # forces a refill on first use
        # Per move class: the number of positions u1 picks i from, the bound
        # a draw's uniform must fall below for any word to accept it (0 for a
        # class with no positions), and the bound below which every rule of
        # the class accepts it.
        m, pairs = cfg.m, cfg.m - 1
        rules = _move_rules(cfg.params)
        self._spans = np.array([pairs, m, m, pairs])
        accepts = [[q for _, q in table.values()] for table in rules]
        self._limits = np.array([max(qs) if n else 0.0 for qs, n in zip(accepts, self._spans)])
        self._either = np.array([min(qs) for qs in accepts])
        # The lookup of move code c is class c's rules, and that of c + 4 its
        # rules with the class's largest acceptance: the ones a draw between
        # the two bounds accepts.  Each takes the symbols at i and j to the
        # symbols written there and whether the height walk must pass.
        self._lookups = [
            _lookup({
                key: (*new, c == _TRANSPOSE and key == _LOWERING)
                for key, (new, q) in table.items()
                if q == max(qs) or not one_way
            })
            for one_way in (False, True)
            for c, (table, qs) in enumerate(zip(rules, accepts))
        ]
        # The block's surviving draws (see ``_load``): offset in the block,
        # move code, and positions i and j.
        self._offsets: list[int] = []
        self._moves: list[int] = []
        self._i: list[int] = []
        self._j: list[int] = []

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
        it, whatever the word: its uniform (u3 for a transposition, u2
        otherwise) at or above the largest acceptance of its class, which
        drops every pair and adjacent-swap draw at m = 1, and a
        transposition with ``i == j``, which swaps nothing.

        A survivor's uniform is read here and nowhere else: it becomes the
        draw's move code, its class number if the uniform lies below every
        acceptance of its class, else the class number plus 4, which takes
        only the class's rules with the largest acceptance.  The survivors
        are kept as plain lists, which beat numpy scalars for single-element
        access in the move loop; the draws, and so the chain, are unchanged.
        """
        transpose = ls == _TRANSPOSE
        i = (u1 * self._spans[ls]).astype(np.int64)
        j = np.where(transpose, (u2 * self.cfg.m).astype(np.int64), i + ((ls == 0) | (ls == 3)))
        u = np.where(transpose, u3, u2)
        kept = np.flatnonzero((u < self._limits[ls]) & ((i != j) | ~transpose))
        ls = ls[kept]
        self._offsets = kept.tolist()
        self._moves = (ls + 4 * (u[kept] >= self._either[ls])).tolist()
        # Only a transposition can have j < i, and swapping i and j is the
        # same move as swapping j and i.
        i, j = i[kept], j[kept]
        self._i = np.minimum(i, j).tolist()
        self._j = np.maximum(i, j).tolist()
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
        ``_load``); a screened-out draw is a step that keeps the word.  A
        survivor's move code already says which rules its uniform accepts,
        so the loop reads no uniform: it looks the two symbols up in the
        move code's rules, walks the heights for the one rule that needs
        it, and writes the rule's symbols.  The rules are the module's one
        table, which ``draw_cells`` reads too; the height walk is the one
        rule with a second, vectorized form there, and the test that injects
        every cell's draws into this loop ties the two together.

        With ``hold``, the call reports the words it holds as segments:
        ``hold(word, since, now)`` says that ``word`` is the state at times
        ``since + 1`` to ``now`` (time ``t`` is the state after ``t`` steps
        of the chain, counted by ``step_count``) and returns the first time
        after ``now`` at which the caller next needs the word.  A segment
        ends before each move that changes the word and at the end of each
        block of draws, and is reported if it ends at or after the time last
        asked for (the call's first one always is).  It starts at the latest
        of the word's last change, the call's start and the last report's
        end, so the reports come in order, are never empty and hold every
        time asked for up to the call's end, and cover its steps once only
        for a hook that always asks for ``now + 1``.  ``hold`` must not
        change the word.
        """
        if steps <= 0:
            return
        w = self.word
        lookups = self._lookups
        c = self._cursor
        t = self.step_count
        self.step_count += steps
        since, need = t, t + 1  # need > since: no report is empty
        while steps:
            if c >= _RNG_BLOCK:
                self._refill()
                c = 0
            stop = min(c + steps, _RNG_BLOCK)
            steps -= stop - c
            # The draw at offset ``o`` of the block moves the chain from
            # time ``base + o``.
            base = t - c
            t += stop - c
            offsets = self._offsets
            a = bisect_left(offsets, c)
            b = bisect_left(offsets, stop, a)
            draws = zip(offsets[a:b], self._moves[a:b], self._i[a:b], self._j[a:b])
            c = stop
            for o, move, i, j in draws:
                rule = lookups[move][w[i]][w[j]]
                if rule is None:
                    continue
                x, y, lowers = rule
                if lowers:
                    # The U moves right, so heights inside the span drop by
                    # 2; outside it nothing changes.  Walk the swapped span
                    # from the D now at i, stopping at the first negative
                    # height.
                    h = w.count(U, 0, i) - w.count(D, 0, i) - 1
                    if h < 0:
                        continue
                    for s in w[i + 1 : j]:
                        if s == U:
                            h += 1
                        elif s == D:
                            h -= 1
                            if h < 0:
                                break
                    if h < 0:
                        continue
                if hold is not None:
                    now = base + o
                    if now >= need:
                        need = hold(w, since, now)
                    since = now
                w[i] = x
                w[j] = y
            if hold is not None and t >= need:
                need = hold(w, since, t)
                since = t
        self._cursor = c


class DrawCell(NamedTuple):
    """A move class and the positions its draws pick, drawn with probability
    ``weight``: ``i`` from u1 (``j = i + 1`` for pair moves, ``j = i`` for a
    site move).  A transposition cell, ``i < j``, holds both draws (i, j) and
    (j, i), whose u1 and u2 pick the two positions in either order."""

    move: int
    i: int
    j: int
    weight: float


def draw_cells(
    words: np.ndarray, params: EnergyParams
) -> Iterator[tuple[DrawCell, np.ndarray, np.ndarray, np.ndarray]]:
    """The move rules of ``ChainState.advance``, vectorized over words.

    ``words`` is an ``(n, m)`` uint8 matrix of valid words.  For each draw
    cell that can change a word, yields ``(cell, rows, targets, accept)``:
    the rows the cell changes when its proposal is accepted, their target
    words, and the acceptance probability of each row -- the threshold
    the u2 draw (u3 for a transposition) must fall below.  The cell moves
    ``cell.weight * accept`` of each row's mass to its target; the rest of
    the mass stays on the word.  Each transposition cell is one pair
    ``i < j`` and holds the draws (i, j) and (j, i), which swap the same
    two steps, so its weight is 2 / (4 m^2); transpositions with ``i == j``
    never change a word and are not yielded.

    Each cell reads its class's rules, the table the move loop reads, as
    numpy lookups of the symbols at i and j.  Only the transposition that
    moves a U right past a D has code of its own: its vectorized height
    condition, tied to the loop's by the test that injects every cell.
    """
    m = words.shape[1]
    if m < 1:
        raise ConfigInvalidError("transition law requires m >= 1")
    # Per class: whether a rule applies, the symbols it writes at i and j,
    # and its acceptance, indexed by 4 * (digit at i) + (digit at j).
    lookups = []
    for table in _move_rules(params):
        applies = np.zeros(16, dtype=bool)
        writes = np.zeros((2, 16), dtype=np.uint8)
        accepts = np.zeros(16)
        for (a, b), (new, q) in table.items():
            key = 4 * DIGIT[a] + DIGIT[b]
            applies[key], writes[:, key], accepts[key] = True, new, q
        lookups.append((applies, *writes, accepts))
    lowering = 4 * DIGIT[_LOWERING[0]] + DIGIT[_LOWERING[1]]
    digits = DIGIT[words].T.copy()  # one row per position
    climbed = heights(words)
    pairs = m - 1  # zero at m = 1, where the pair moves never apply
    cells = [
        *(DrawCell(0, p, p + 1, 0.25 / pairs) for p in range(pairs)),
        *(DrawCell(1, i, i, 0.25 / m) for i in range(m)),
        *(DrawCell(2, i, j, 0.5 / (m * m)) for i in range(m) for j in range(i + 1, m)),
        *(DrawCell(3, p, p + 1, 0.25 / pairs) for p in range(pairs)),
    ]
    for cell in cells:
        applies, at_i, at_j, accepts = lookups[cell.move]
        i, j = cell.i, cell.j
        keys = (4 * digits[i] + digits[j]).astype(np.intp)
        valid = applies[keys]
        if cell.move == _TRANSPOSE:
            lowered = np.flatnonzero(keys == lowering)
            valid[lowered[climbed[lowered, i:j].min(axis=1) < 2]] = False
        rows = np.flatnonzero(valid)
        keys = keys[rows]
        targets = words[rows]
        targets[:, i] = at_i[keys]
        targets[:, j] = at_j[keys]
        yield cell, rows, targets, accepts[keys]


class WordFields(NamedTuple):
    """Per-row observables of a word matrix; see :func:`word_fields`."""

    energy: np.ndarray
    d0: np.ndarray
    d1: np.ndarray
    r: np.ndarray | None


def word_fields(words: np.ndarray, params: EnergyParams, root_degree: bool = True) -> WordFields:
    """Energy and degree counts of the trees the rows of a ``(k, m)`` uint8
    word matrix encode, read off the words without building the trees.

    d0 = #U + #H + 1 and d1 = #I are column counts, and the energy is
    ``EnergyParams.branching(d0, d1)``, the float64 expression of
    ``path_energy``, so the same float.  The root's children are the
    leading edge plus one per H at height 0, read off the cumulative
    heights; ``root_degree=False`` skips that pass and gives ``r = None``.
    """
    d0 = np.count_nonzero(words == U, axis=1) + np.count_nonzero(words == H, axis=1) + 1
    d1 = np.count_nonzero(words == I, axis=1)
    r = None
    if root_degree:
        r = np.count_nonzero((heights(words) == 0) & (words == H), axis=1) + 1
    # Past the float64 range an energy is inf, or NaN for inf - inf, as in
    # Python float arithmetic, and as quietly.
    with np.errstate(over="ignore", invalid="ignore"):
        energy = params.branching(d0, d1)
    return WordFields(energy, d0, d1, r)


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

    After burn-in one ``ChainState.advance`` call takes the whole run, at
    every thin, and both the samples and the visit counts are read off the
    segments it holds each word for: a segment with emission times due is
    one sample, and a segment adds its length to its word's count.  The
    hook asks for the next emission time (with occupancy, the next time),
    so a run makes at most one hook call per change of the word or block
    of draws, and at a large thin about one per emission time.

    Collector calls are batched: samples are queued until their words
    hold about ``_FLUSH_SYMBOLS`` symbols (or the run ends), then one
    ``word_fields`` call reads all their energies and degrees and the
    collector receives them in order.  So a collector runs behind the
    chain, and the samples still queued when a run raises never reach it.
    """
    check_schedule(total_steps, burn_in, thin)
    state = ChainState(cfg)
    occupancy: dict[bytes, int] | None = {} if track_occupancy else None
    result = RunResult(occupancy=occupancy)
    word = state.word
    params = cfg.params
    m = cfg.m
    sink = result.samples.append if collector is None else collector
    # Samples wait in ``queued`` as (steps, path, row of ``words``) until
    # their words' fields are read in one batch.  ``words`` holds each new
    # word once; its last word stays queued over a flush, since the chain
    # may still hold it.
    words: list[bytes] = []
    queued: list[tuple[range, TwoMotzkinPath, int]] = []
    batch = max(1, _FLUSH_SYMBOLS // max(m, _FLUSH_MIN_M))
    last = path = None
    due = burn_in  # the next emission time

    def flush() -> None:
        matrix = np.frombuffer(b"".join(words), np.uint8).reshape(len(words), m)
        fields = word_fields(matrix, params, root_degree=include_degrees)
        energies = fields.energy.tolist()
        if include_degrees:
            columns = (fields.d0.tolist(), fields.d1.tolist(), fields.r.tolist())
            degrees = [DegreeProfile(*f, m + 1) for f in zip(*columns)]
        else:
            degrees = [None] * len(words)
        for steps, held, k in queued:
            sink(Sample(steps, held, energies[k], degrees[k]))
        queued.clear()
        del words[:-1]

    def emit(word: bytearray, since: int, now: int) -> int:
        nonlocal last, path, due
        if due > now:
            return due
        # Most proposals are rejected, so a word is often held over several
        # emission times and samples: its path is made once.
        if word != last:
            last = bytes(word)
            path = TwoMotzkinPath._trusted(last)
            words.append(last)
        steps = range(due, now + 1, thin)
        queued.append((steps, path, len(words) - 1))
        due += len(steps) * thin
        if len(queued) >= batch:
            flush()
        return due

    def count(word: bytearray, since: int, now: int) -> int:
        key = bytes(word)
        occupancy[key] = occupancy.get(key, 0) + now - since
        emit(word, since, now)
        return now + 1

    state.advance(burn_in)
    emit(word, burn_in - 1, burn_in)
    state.advance(total_steps - burn_in, count if track_occupancy else emit)
    if queued:
        flush()
    result.emitted = (total_steps - burn_in) // thin + 1
    result.final_path = state.path
    return result


def batch_means_stderr(values, n_batches: int = 50) -> float:
    """Standard error of the mean of a correlated series via batch means.

    Integer input is averaged without a float copy: ``mean`` sums it in
    float64, where batch sums below 2**53 are exact in any order.
    """
    arr = np.asarray(values)
    if not np.issubdtype(arr.dtype, np.integer):
        arr = arr.astype(float)
    if arr.size < 2 * n_batches:
        n_batches = max(2, arr.size // 2)
    batch = arr.size // n_batches
    trimmed = arr[: batch * n_batches].reshape(n_batches, batch)
    means = trimmed.mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))
