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

``ChainState.advance`` is the one loop that applies moves; ``step`` is
``advance(1)``.  ``transition_distribution`` reproduces the same kernel
analytically by summing over every (move class, index) draw; it is the
verification path and must stay in lockstep with ``ChainState.advance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .energy import EnergyParams
from .errors import ConfigInvalidError, LengthMismatchError
from .paths import D, H, I, U, TwoMotzkinPath
from .trees import DegreeProfile

_RNG_BLOCK = 4096


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
        self._ls: list[int] = []
        self._u1: list[float] = []
        self._u2: list[float] = []
        self._u3: list[float] = []

    @property
    def path(self) -> TwoMotzkinPath:
        return TwoMotzkinPath._trusted(bytes(self.word))

    def _refill(self) -> None:
        # Plain lists beat numpy scalars for single-element access in the
        # step loop; one vectorized draw per block keeps the RNG cheap.
        self._ls = self._rng.integers(0, 4, size=_RNG_BLOCK).tolist()
        self._u1 = self._rng.random(_RNG_BLOCK).tolist()
        self._u2 = self._rng.random(_RNG_BLOCK).tolist()
        self._u3 = self._rng.random(_RNG_BLOCK).tolist()
        self._cursor = 0

    def step(self) -> None:
        """Apply one transition of the chain in place."""
        self.advance(1)

    def advance(self, steps: int) -> None:
        """Apply ``steps`` transitions in place.

        This loop is the one definition of the move semantics.  Draw ``k``
        of a run is the same whatever the split of the run into calls: the
        blocks are refilled only when a step needs a draw past the end.
        """
        if steps <= 0:
            return
        w = self.word
        m = self.cfg.m
        pairs = m - 1
        ud_to_hh, hh_to_ud, h_to_i, i_to_h = self._consts
        c = self._cursor
        self.step_count += steps
        while steps:
            if c >= _RNG_BLOCK:
                self._refill()
                c = 0
            stop = min(c + steps, _RNG_BLOCK)
            steps -= stop - c
            draws = zip(self._ls[c:stop], self._u1[c:stop], self._u2[c:stop], self._u3[c:stop])
            c = stop
            for move, u1, u2, u3 in draws:
                if move == 0:  # UD <-> HH pair resample
                    if pairs:
                        p = int(u1 * pairs)
                        a = w[p]
                        if a == U:
                            if w[p + 1] == D and u2 < ud_to_hh:
                                w[p] = H
                                w[p + 1] = H
                        elif a == H:
                            if w[p + 1] == H and u2 < hh_to_ud:
                                w[p] = U
                                w[p + 1] = D
                elif move == 1:  # H <-> I site resample
                    i = int(u1 * m)
                    a = w[i]
                    if a == H:
                        if u2 < h_to_i:
                            w[i] = I
                    elif a == I:
                        if u2 < i_to_h:
                            w[i] = H
                elif move == 2:  # up/down transposition anywhere
                    if u3 >= 0.5:
                        continue
                    i = int(u1 * m)
                    j = int(u2 * m)
                    a = w[i]
                    b = w[j]
                    if not ((a == U and b == D) or (a == D and b == U)):
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
                    w[i] = b
                    w[j] = a
                elif pairs and u2 < 0.5:  # adjacent swap of an up/down and a level step
                    p = int(u1 * pairs)
                    a = w[p]
                    b = w[p + 1]
                    if (a == U or a == D) != (b == U or b == D):
                        w[p] = b
                        w[p + 1] = a
        self._cursor = c


def step(state: ChainState) -> ChainState:
    """Advance one transition and return the same (mutated) state."""
    state.step()
    return state


def transition_distribution(
    x: TwoMotzkinPath, params: EnergyParams
) -> dict[bytes, float]:
    """Exact one-step law from ``x``: every reachable word mapped to its mass.

    Sums the contribution of each (move class, index) draw, splitting the
    class mass between the proposed word and the self-loop; masses add to
    one by construction.  Verification-path code: quadratic in the path
    length, intended for small instances.
    """
    m = len(x)
    if m < 1:
        raise ConfigInvalidError("transition law requires m >= 1")
    sym = x.symbols
    consts = move_constants(params)
    masses: dict[bytes, float] = {sym: 0.0}

    def add(target: bytes, mass: float) -> None:
        masses[target] = masses.get(target, 0.0) + mass

    # Class 1: UD <-> HH pair resample.
    if m >= 2:
        w_pair = 0.25 / (m - 1)
        for p in range(m - 1):
            a, b = sym[p], sym[p + 1]
            if a == U and b == D:
                q = consts.ud_to_hh
                add(sym[:p] + b"HH" + sym[p + 2 :], w_pair * q)
                add(sym, w_pair * (1.0 - q))
            elif a == H and b == H:
                q = consts.hh_to_ud
                add(sym[:p] + b"UD" + sym[p + 2 :], w_pair * q)
                add(sym, w_pair * (1.0 - q))
            else:
                add(sym, w_pair)
    else:
        add(sym, 0.25)

    # Class 2: H <-> I site resample.
    w_site = 0.25 / m
    for i, s in enumerate(sym):
        if s == H:
            q = consts.h_to_i
            add(sym[:i] + b"I" + sym[i + 1 :], w_site * q)
            add(sym, w_site * (1.0 - q))
        elif s == I:
            q = consts.i_to_h
            add(sym[:i] + b"H" + sym[i + 1 :], w_site * q)
            add(sym, w_site * (1.0 - q))
        else:
            add(sym, w_site)

    # Class 3: transposition of two up/down positions, ordered index pairs.
    w_transpose = 0.25 / (m * m)
    heights = [0] * (m + 1)
    h = 0
    for idx, s in enumerate(sym):
        if s == U:
            h += 1
        elif s == D:
            h -= 1
        heights[idx + 1] = h
    for i in range(m):
        a = sym[i]
        if a != U and a != D:
            add(sym, w_transpose * m)
            continue
        for j in range(m):
            b = sym[j]
            if b != U and b != D:
                add(sym, w_transpose)
                continue
            if a == b:
                add(sym, w_transpose)
                continue
            lo, hi = (i, j) if i < j else (j, i)
            if sym[lo] == U:
                # Moving the U later drops interior heights by 2.
                valid = min(heights[lo + 1 : hi + 1]) >= 2
            else:
                valid = True
            if valid:
                y = bytearray(sym)
                y[i] = b
                y[j] = a
                add(bytes(y), w_transpose * 0.5)
                add(sym, w_transpose * 0.5)
            else:
                add(sym, w_transpose)

    # Class 4: adjacent swap of an up/down step with a level step.
    if m >= 2:
        w_adj = 0.25 / (m - 1)
        for p in range(m - 1):
            a, b = sym[p], sym[p + 1]
            a_vertical = a == U or a == D
            b_vertical = b == U or b == D
            if a_vertical != b_vertical:
                y = bytearray(sym)
                y[p] = b
                y[p + 1] = a
                add(bytes(y), w_adj * 0.5)
                add(sym, w_adj * 0.5)
            else:
                add(sym, w_adj)
    else:
        add(sym, 0.25)

    return masses


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
    are the leading edge plus one per H at height 0.  The energy is the
    same expression as ``path_energy``, so it is the same float.
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
    energy = params.alpha * (u + h + 1) + params.beta * i
    return energy, DegreeProfile(u + h + 1, i, r, len(word) + 1)


@dataclass(frozen=True)
class Sample:
    """One emitted observation of the chain."""

    step: int
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
    Consecutive samples share one path object while the word is unchanged.

    With ``track_occupancy`` the visit count of every state strictly after
    burn-in is recorded, independent of thinning; this is the estimator
    behind total-variation summaries and only makes sense at small m.
    """
    if total_steps < 0 or burn_in < 0 or thin < 1:
        raise ConfigInvalidError(
            f"need total_steps >= 0, burn_in >= 0, thin >= 1; "
            f"got {total_steps}, {burn_in}, {thin}"
        )
    if burn_in > total_steps:
        raise ConfigInvalidError(f"burn_in {burn_in} exceeds total_steps {total_steps}")

    state = ChainState(cfg)
    result = RunResult(cfg, total_steps, burn_in, thin)
    word = state.word
    if track_occupancy:
        occupancy: dict[bytes, int] = {}
        result.occupancy = occupancy

        def move(steps: int) -> None:
            for _ in range(steps):
                state.step()
                key = bytes(word)
                occupancy[key] = occupancy.get(key, 0) + 1

    else:
        move = state.advance

    sink = result.samples.append if collector is None else collector
    # Most proposals are rejected, so the fields of the previous emission
    # are reused while the word has not changed since.
    last = path = energy = degrees = None
    state.advance(burn_in)
    t = burn_in
    while True:
        if word != last:
            last = bytes(word)
            path = TwoMotzkinPath._trusted(last)
            energy, profile = word_fields(last, cfg.params)
            degrees = profile if include_degrees else None
        sink(Sample(t, path, energy, degrees))
        if t + thin > total_steps:
            break
        move(thin)
        t += thin
    move(total_steps - t)
    result.emitted = (t - burn_in) // thin + 1
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
