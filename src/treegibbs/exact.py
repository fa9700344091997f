"""Exhaustive small-instance ground truth for the path chain.

Builds transition matrices over the catalan(m + 1) states and their
spectral diagnostics, on the state index of all paths (one word matrix)
and exact Gibbs law of :mod:`treegibbs.law`.  Everything here is a
verification instrument: state spaces are enumerated, matrices are
sparse but complete, and every model is checked for stochasticity,
stationarity, and detailed balance before it is handed out.  Like the
rest of the package it needs numpy alone.

A :class:`Chain` is a kernel with its stationary law.  The full chain is
a :class:`TransitionModel`, a chain that also keeps its state index and
parameters; the reversal sectors below and the restrictions and
projections of :mod:`treegibbs.decomposition` are plain chains.
:func:`spectral_gap` takes any stochastic one: it is the one place a
kernel becomes a second eigenvalue, by thick-restart Lanczos on the
symmetrized kernel, whatever its size.

Every kernel comes out of one assembly (``_assemble``): the sampler's
draw-cell table (``chain.draw_cells``) applied to a word matrix of row
states, and a map from each target's rank to a column and a sign.  The
identity map on all words gives the full chain, bit for bit as it was
built before the map; ``exact pi``, ``tv-curve`` and ``decompose`` use
it.  The chain commutes with path reversal R (a word read backwards, U
and D swapped; ``chain.check_reversal_symmetry`` certifies it from the
rule table for every m), so its spectrum splits into the functions even
and odd under R.  :func:`build_sector` maps each target to its orbit's
representative, x <= Rx, and returns the sector as a plain chain with
the representatives' rows in the full index: the even sector is the
lumped chain on the orbits, and the odd sector, on the non-palindromic
orbits, takes the mass sent to a reversed word with sign -1; it is
symmetric under the orbit masses but not stochastic.  ``exact gap``
(:func:`reversal_gap`) builds, verifies, symmetrizes and solves one
sector, lets it go and does the other, each solve started from a
closed-form guess at its sector's slowest mode.  It never builds the
full kernel; its ``iterations`` are the two solves' products summed, and
its ``residual`` the larger of the two.  No mirror of the draw cells is
kept, so the checks certify the moves the sampler makes.

Memory per kernel entry sets the largest m the oracle reaches, so a
kernel keeps its column and value arrays and nothing else per entry.  The
assembly packs each entry as one (row, column, turned, slot) key and
sorts the keys in place; the checks, the symmetrization and the
projections compute the entries' rows and mirrors when they need them
and let them go.

A row places each target word once: a word placed twice is an internal
fault, raised rather than summed, since a sum would hide a draw cell
listed twice behind rows that still sum to 1.  Two distinct words that
share a column, a word and its reversal in a sector, are summed.
Restrictions (``decomposition.restriction_chain``) slice these arrays to
an ascending block, which keeps each row's columns in order, so they
need no sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chain import check_reversal_symmetry, draw_cells
from .energy import EnergyParams
from .errors import (
    BalanceViolationError,
    ConfigInvalidError,
    InternalInvariantViolationError,
    MassUnderflowError,
    NoConvergenceError,
)
from .law import StateIndex, gibbs_distribution, tv_distance
from .paths import TwoMotzkinPath, heights, rank

# Thick-restart Lanczos: the basis holds at most LANCZOS_BASIS vectors (ARPACK's
# default is 20) and a restart keeps the LANCZOS_KEEP largest Ritz vectors.  A
# Ritz pair is accepted when its residual is at most LANCZOS_TOL (the operator's
# norm is 1); after LANCZOS_MAX_PRODUCTS products the solve gives up.  A pair
# whose residual, computed afresh, exceeds LANCZOS_REJECT is reported as no
# convergence rather than as an eigenpair.
LANCZOS_BASIS = 24
LANCZOS_KEEP = 8
LANCZOS_TOL = 1e-14
LANCZOS_MAX_PRODUCTS = 10_000
LANCZOS_REJECT = 1e-10
# verify_model's bound on row-sum and stationarity errors, and on detailed
# balance relative to the largest flow pi(x) P(x, y).
VERIFY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Kernel:
    """A square sparse matrix in CSR form, on numpy arrays.

    Row i holds ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``, which ascend with no repeats.
    ``Kernel(indptr, indices, data)`` takes ``intp`` arrays in that form as
    they are and checks nothing; every maker hands over canonical rows.
    ``x @ P`` is the product of a row vector with the matrix.

    A kernel keeps these three arrays and nothing else per entry: ``rows``
    and ``mirrors`` are computed on each access, so a caller binds them once
    and lets them go when it is done.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    __array_ufunc__ = None  # ``ndarray @ Kernel`` defers to ``Kernel.__rmatmul__``

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def rows(self) -> np.ndarray:
        """The row of each entry."""
        return self.of_rows(np.arange(self.n))

    def of_rows(self, x: np.ndarray) -> np.ndarray:
        """``x[i]`` at each entry of row i: ``x[self.rows]`` without the rows."""
        return np.repeat(x, np.diff(self.indptr))

    @property
    def mirrors(self) -> np.ndarray:
        """Position of each entry's mirror: entry (j, i) for entry (i, j), or -1
        where none is stored."""
        n, nnz, cols = self.n, self.nnz, self.indices
        rows = self.rows
        # The entries by column, and by row within a column.  In a symmetric
        # pattern the k-th of them is the mirror of the k-th entry by row.
        bits = nnz.bit_length()
        order = cols << bits
        order |= np.arange(nnz)
        order.sort()
        order &= (1 << bits) - 1
        if np.array_equal(cols[order], rows) and np.array_equal(rows[order], cols):
            return order
        codes = rows * n + cols
        mirror_codes = cols * n + rows
        found = np.searchsorted(codes, mirror_codes).clip(max=max(nnz - 1, 0))
        found[codes[found] != mirror_codes] = -1
        return found

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.rows, weights=self.data, minlength=self.n)

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        weights = self.of_rows(x) * self.data
        return np.bincount(self.indices, weights=weights, minlength=self.n)


@dataclass
class Chain:
    """A kernel ``P`` with its stationary law ``pi``, on ``n`` states.

    A reversal sector (:func:`build_sector`) is a chain too, whose states
    are orbit representatives.  In the odd one ``P`` is an operator
    symmetric under ``pi`` but not ``stochastic``, and ``pi`` is not a law.
    """

    P: Kernel
    pi: np.ndarray
    stochastic: bool = field(default=True, kw_only=True)

    @property
    def n(self) -> int:
        return len(self.pi)


@dataclass
class TransitionModel(Chain):
    """The verified full chain over all paths of ``index``, under
    ``params``, with its log partition value.  A reversal sector
    (:func:`build_sector`) is a plain :class:`Chain`."""

    index: StateIndex
    params: EnergyParams
    log_z: float

    @cached_property
    def energies(self) -> np.ndarray:
        """``path_energy`` of each state under the model's parameters."""
        return self.index.energies(self.params)


@dataclass(frozen=True)
class SpectralReport:
    """Second eigenvalue diagnostics of a chain."""

    lambda1: float
    residual: float
    iterations: int

    @property
    def gap(self) -> float:
        return 1.0 - self.lambda1

    @property
    def relaxation_time(self) -> float:
        return 1.0 / self.gap


def build_transition_model(m: int, params: EnergyParams) -> TransitionModel:
    """Assemble and verify the full kernel at length m.

    Raises :class:`BalanceViolationError` if row sums, stationarity, or
    detailed balance fail their 1e-12-scale checks.
    """
    index = StateIndex.build(m)
    pi, log_z = gibbs_distribution(index, params)
    P = _assemble(index.words, 2 * np.arange(len(index)), params)
    model = TransitionModel(index=index, params=params, P=P, pi=pi, log_z=log_z)
    verify_model(model, index.words)
    return model


def build_sector(
    index: StateIndex, pi: np.ndarray, params: EnergyParams, odd: bool
) -> tuple[Chain, np.ndarray]:
    """The even or the odd reversal sector of the full chain on ``index``,
    whose law is ``pi``, verified, and the rows of its states in ``index``.

    The chain commutes with path reversal R (``chain.check_reversal_symmetry``
    certifies it from the rule table), so its spectrum is that of the even
    functions, f(Rx) = f(x), and that of the odd ones, f(Rx) = -f(x).  A
    sector's states are the orbit representatives x <= Rx (in state order),
    odd ones excluding the palindromes x = Rx, where odd functions vanish.
    The even sector is the lumped chain on the orbits, P(x, y) + P(x, Ry),
    reversible under the orbit masses pi(x) (2 - [x = Rx]).  The odd sector
    is P(x, y) - P(x, Ry), symmetric under those masses but not stochastic,
    so the sector is a :class:`Chain` with ``stochastic`` false.  Empty for
    the odd sector when every state is a palindrome (m <= 1).
    """
    reps, place = _orbit_columns(index, odd)
    words = index.words[reps]
    P = _assemble(words, place, params, turned_sign=-1.0 if odd else 1.0)
    del place
    sector = Chain(P, pi[reps] * (2.0 - (index.reversals[reps] == reps)), stochastic=not odd)
    verify_model(sector, words)
    return sector, reps


def _orbit_columns(index: StateIndex, odd: bool) -> tuple[np.ndarray, np.ndarray]:
    """A reversal sector's states and where the mass sent to each state goes.

    The states are the representatives x <= Rx, in state order, without the
    palindromes in the odd sector.  ``place`` is the :func:`_assemble` map:
    each state's mass goes to its orbit's column, turned when the state is
    the reversal of the column's representative, and an odd sector drops
    the mass sent to a palindrome.
    """
    reversals = index.reversals
    states = np.arange(len(index))
    (reps,) = np.nonzero(states < reversals if odd else states <= reversals)
    place = np.full(len(index), -1)
    place[reps] = 2 * np.arange(len(reps))
    place = place[np.minimum(states, reversals)]
    place += states > reversals
    return reps, place


def _assemble(
    words: np.ndarray,
    place: np.ndarray,
    params: EnergyParams,
    turned_sign: float = 1.0,
) -> Kernel:
    """The kernel of the chain's moves from the states whose words are the
    rows of ``words``, one row each, over all paths of their length.

    The mass a move sends to the path of ``paths.rank`` t goes to column
    ``place[t] >> 1``, as a turned word when ``place[t]`` is odd (its value
    then times ``turned_sign``), and is dropped when ``place[t]`` is
    negative; a target that is not a path is an internal fault.  Row i's
    own state must be placed at column i, unturned: what no move takes from
    it stays there.  A row that places one target word twice is an internal
    fault, raised rather than summed, since a sum would hide a draw cell
    listed twice behind rows that still sum to 1; distinct words placed in
    one column, a word and its reversal, are summed, the unturned one first.
    """
    n = len(words)
    # Each cell's entries as (row * n + column) << 1 | turned keys, with
    # their values.
    cells = []
    lengths = np.ones(n, dtype=np.intp)  # the diagonal, then one entry per cell
    moved = np.zeros(n)
    for cell, rows, targets, accept in draw_cells(words, params):
        vals = cell.weight * accept
        moved[rows] += vals
        states = rank(targets)
        if (states < 0).any():
            raise InternalInvariantViolationError("a move left the enumerated state space")
        cols = place[states]
        kept = cols >= 0
        if not kept.all():
            rows, cols, vals = rows[kept], cols[kept], vals[kept]
        if turned_sign != 1.0:
            vals[(cols & 1) == 1] *= turned_sign
        lengths[rows] += 1
        keys = rows * (2 * n)
        keys += cols
        cells.append((keys, vals))
    # Every entry goes to its row's next free slot as a packed (row, column,
    # turned, slot) key, ((row * n + column) << 1 | turned) << shift | slot;
    # slot 0 of each row is the diagonal, which keeps what no cell moves.
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(lengths, out=indptr[1:])
    shift = int(lengths.max(initial=1)).bit_length()
    keys = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1])
    free = indptr[:-1].copy()
    keys[free] = np.arange(n) * (2 * n + 2) << shift
    data[free] = 1.0 - moved
    free += 1
    cells.reverse()
    while cells:
        cell_keys, vals = cells.pop()
        rows = cell_keys // (2 * n)
        at = free[rows]
        free[rows] += 1
        cell_keys <<= shift
        cell_keys |= at - indptr[rows]
        keys[at], data[at] = cell_keys, vals
    # One sort orders the columns of every row, and leaves each row's entries
    # in its own range; the slot says where each value was.
    keys.sort()
    at = keys & ((1 << shift) - 1)
    at += np.repeat(indptr[:-1], np.diff(indptr))
    data[:] = data[at]
    del at
    keys >>= shift  # (row * n + column) << 1 | turned
    if (keys[1:] == keys[:-1]).any():
        raise InternalInvariantViolationError("a kernel row places one target word twice")
    keys >>= 1  # row * n + column
    # A column holds at most a word and its reversal, so a repeat is a pair.
    second = np.flatnonzero(keys[1:] == keys[:-1]) + 1
    if len(second):
        data[second - 1] += data[second]
        data, keys = np.delete(data, second), np.delete(keys, second)
        indptr = indptr - np.searchsorted(second, indptr)
    keys %= n  # the columns
    return Kernel(indptr, keys, data)


def verify_model(chain: Chain, words: np.ndarray) -> None:
    """Stochasticity, stationarity, and detailed balance, or raise; detailed
    balance alone for an operator that is not ``stochastic``.  Row i of the
    word matrix ``words`` is state i, which names the worst pair.

    Each check computes the per-entry arrays it reads (rows, mirrors,
    flows) and lets them go."""
    if chain.stochastic:
        row_err = float(np.abs(chain.P.row_sums() - 1.0).max())
        if row_err > VERIFY_TOL:
            raise BalanceViolationError(f"row sums off by {row_err:.3e}", magnitude=row_err)
        stat_err = stationarity_residual(chain)
        if stat_err > VERIFY_TOL:
            raise BalanceViolationError(f"pi P != pi, residual {stat_err:.3e}", magnitude=stat_err)
    worst, pair = detailed_balance_violation(chain)
    flow_scale = float(np.abs(chain.P.of_rows(chain.pi) * chain.P.data).max(initial=0.0))
    if worst > VERIFY_TOL * flow_scale:
        x, y = pair
        raise BalanceViolationError(
            f"detailed balance violated by {worst:.3e} at pair "
            f"({words[x].tobytes().decode()!r}, {words[y].tobytes().decode()!r})",
            worst_pair=pair,
            magnitude=worst,
        )


def stationarity_residual(chain: Chain) -> float:
    """Max-norm of pi^T P - pi^T."""
    return float(np.abs(chain.pi @ chain.P - chain.pi).max())


def detailed_balance_violation(chain: Chain) -> tuple[float, tuple[int, int]]:
    """Largest |pi(x)P(x,y) - pi(y)P(y,x)| and the offending index pair."""
    P = chain.P
    mirrors = P.mirrors
    flow = P.of_rows(chain.pi)
    flow *= P.data
    asym = flow[mirrors]
    asym[mirrors < 0] = 0.0
    asym -= flow
    np.abs(asym, out=asym)
    if not asym.any():
        return 0.0, (0, 0)
    k = int(asym.argmax())
    row = int(np.searchsorted(P.indptr, k, side="right")) - 1
    return float(asym[k]), (row, int(P.indices[k]))


def spectral_gap(chain: Chain) -> SpectralReport:
    """Second-largest eigenvalue of a reversible chain's kernel and the gap
    1 - lambda1.  Laziness makes the spectrum nonnegative, so the second
    eigenvalue is also the second-largest modulus.

    :func:`lanczos_top` on the :func:`symmetrized`
    A = diag(pi)^{1/2} P diag(pi)^{-1/2}, with its known top eigenvector
    sqrt(pi) deflated.  ``residual`` is max ||A v - lambda v|| over both
    eigenpairs, ``iterations`` the count of products with A.
    ``ConfigInvalidError`` for a chain that is not ``stochastic`` (an odd
    reversal sector, which :func:`reversal_gap` solves) and for fewer than
    two states; ``MassUnderflowError`` when some state has mass 0, which A
    cannot be scaled by; ``NoConvergenceError`` when the residual exceeds
    ``LANCZOS_REJECT``, which no pair the solver should accept comes near.
    """
    if not chain.stochastic:
        raise ConfigInvalidError(
            "spectral_gap needs a stochastic chain; reversal_gap solves an odd reversal sector"
        )
    if chain.n < 2:
        raise ConfigInvalidError("spectral gap needs at least two states")
    root = _root_masses(chain.pi)
    return _solve(symmetrized(chain.P, root), root, True)


def _root_masses(pi: np.ndarray) -> np.ndarray:
    """sqrt(pi), or ``MassUnderflowError`` when some state has mass 0."""
    empty = len(pi) - np.count_nonzero(pi)
    if empty:
        raise MassUnderflowError(
            f"the Gibbs mass of {empty} of {len(pi)} states underflows to 0 in float64, "
            "so the kernel cannot be symmetrized; use smaller |alpha| and |beta|"
        )
    return np.sqrt(pi)


def _solve(
    A: SymmetricOperator, root: np.ndarray, stochastic: bool, guess: np.ndarray | None = None
) -> SpectralReport:
    """The :func:`spectral_gap` report of the symmetrized operator A, scaled
    by ``root``, once the kernel itself is no longer needed.  A kernel that
    is not ``stochastic`` (an odd reversal sector) has no known eigenvector
    to deflate, and lambda1 is A's largest eigenvalue.  ``guess`` is an
    observable on the states, a guess at the slowest mode: the solve then
    starts from root * guess plus the cosines."""
    u = root if stochastic else None
    lambda1, v, products = lanczos_top(A, u, None if guess is None else root * guess)
    residual = float(np.linalg.norm(A @ v - lambda1 * v))
    if u is not None:
        residual = max(residual, float(np.linalg.norm(A @ u - u)))
    if not residual <= LANCZOS_REJECT:
        raise NoConvergenceError(products, residual)
    return SpectralReport(lambda1=lambda1, residual=residual, iterations=products)


def reversal_gap(index: StateIndex, pi: np.ndarray, params: EnergyParams) -> SpectralReport:
    """The spectral gap of the full chain on ``index``, whose law is ``pi``,
    solved one reversal sector at a time (:func:`build_sector`).

    ``chain.check_reversal_symmetry`` certifies the split first.  Each sector
    is built, verified and symmetrized, and let go before it is solved as
    :func:`spectral_gap` solves a chain, so no full kernel is built and at
    most one sector's is held.  lambda1 is the larger of the even sector's
    second eigenvalue and the odd sector's first (there is no odd sector at
    m <= 1).  ``iterations`` is the sum of the solves' products and
    ``residual`` the larger of their residuals.

    Each solve starts from a closed-form guess at its sector's slowest mode
    (:func:`_slow_mode`).  On the full chain that start would be unsafe: an
    observable even under reversal has no component in the odd sector, where
    the slowest mode may lie, and the cosines alone would reach it.
    """
    check_reversal_symmetry(params)
    reports = []
    for odd in (False, True):
        sector, reps = build_sector(index, pi, params, odd)
        if not sector.n:
            break
        root = _root_masses(sector.pi)
        A = symmetrized(sector.P, root)
        guess = _slow_mode(index.words[reps], odd)
        del sector, reps  # A holds all the solve reads
        reports.append(_solve(A, root, not odd, guess))
        del A
    return SpectralReport(
        lambda1=max(report.lambda1 for report in reports),
        residual=max(report.residual for report in reports),
        iterations=sum(report.iterations for report in reports),
    )


def _slow_mode(words: np.ndarray, odd: bool) -> np.ndarray:
    """A guess at a reversal sector's slowest mode, on the rows of a word
    matrix: the area under the path in the even sector, and in the odd one
    the heights' first moment about the midpoint, which reversal negates."""
    m = words.shape[1]
    climbed = heights(words)
    if odd:
        return climbed @ (np.arange(1, m + 1) - 0.5 * m)
    return climbed.sum(axis=1).astype(float)


_BLOCK_ROWS = 1 << 14  # rows per block of SymmetricOperator: a product's temporaries stay small


@dataclass(frozen=True, eq=False)
class SymmetricOperator:
    """x -> A x for the symmetric matrix :func:`symmetrized` builds.

    Rows of equal length are stored together: each block is
    ``(rows, columns, values)`` with an ``(L, len(rows))`` array of columns
    and values for rows of L entries, so a product adds L vectors per block
    instead of reducing every row separately.
    """

    n: int
    blocks: tuple

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = np.empty(self.n)
        for rows, cols, vals in self.blocks:
            terms = np.take(x, cols)
            terms *= vals
            y[rows] = terms.sum(axis=0)
        return y


def symmetrized(P: Kernel, root: np.ndarray) -> SymmetricOperator:
    """diag(root) P diag(root)^-1, each entry averaged with its mirror.

    With root = sqrt(pi) for a kernel reversible under pi, this is a
    symmetric matrix with P's spectrum, and root is its eigenvector for
    eigenvalue 1.  ``BalanceViolationError`` if some entry's mirror is not
    stored, which no reversible kernel's pattern lacks.
    """
    mirrors = P.mirrors
    if (mirrors < 0).any():
        raise BalanceViolationError("the kernel stores an entry without its mirror")
    a = P.of_rows(root)
    a *= P.data
    a /= root[P.indices]
    a += a[mirrors]
    del mirrors
    a *= 0.5
    lengths = np.diff(P.indptr)
    by_length = np.argsort(lengths, kind="stable")
    blocks = []
    for rows in np.split(by_length, np.flatnonzero(np.diff(lengths[by_length])) + 1):
        for lo in range(0, len(rows), _BLOCK_ROWS):
            part = rows[lo : lo + _BLOCK_ROWS]
            at = P.indptr[part] + np.arange(lengths[part[0]])[:, None]
            blocks.append((part, P.indices[at], a[at]))
    return SymmetricOperator(P.n, tuple(blocks))


def lanczos_top(
    A: SymmetricOperator, u: np.ndarray | None, guess: np.ndarray | None = None
) -> tuple[float, np.ndarray, int]:
    """Largest eigenvalue of a symmetric A on the complement of its unit
    eigenvector u (on the whole space when u is None), its unit eigenvector,
    and the count of products with A.

    Thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 2000)
    from a closed-form start, the cosines of the multiples of the golden
    angle: an irregular vector fixed by its formula, so reruns are identical
    and the start is the same under every numpy version.  A seeded
    ``numpy.random`` stream would serve too, but NumPy may change its
    streams between versions (NEP 19), and where numpy loads ``numpy.random``
    lazily (numpy 2.4 does; older versions import it with numpy) importing
    it costs a process about 13 ms and several MB.  A ``guess`` at the
    eigenvector, taken off u, is added to the cosines, each scaled to unit
    norm: the guess cuts the products, and the cosines keep the start
    generic, so that the solve still reaches an eigenvector the guess is
    orthogonal to.  Each product is orthogonalized against u
    and the basis.  A full cycle restarts from the ``LANCZOS_KEEP`` largest
    Ritz vectors and the last Lanczos vector.  ``NoConvergenceError`` after
    ``LANCZOS_MAX_PRODUCTS`` products.
    """
    n = A.n
    size = min(LANCZOS_BASIS, n if u is None else n - 1)
    keep = min(LANCZOS_KEEP, size - 1)
    V = np.empty((size + 1, n))  # the basis, one vector per row
    T = np.zeros((size, size))  # A projected onto the basis
    v = np.cos(np.arange(n) * (np.pi * (3.0 - np.sqrt(5.0))))
    if guess is not None:
        if u is not None:
            guess = guess - (u @ guess) * u
        norm = np.linalg.norm(guess)
        if norm > 0.0:
            v = v / np.linalg.norm(v) + guess / norm
    if u is not None:
        v -= (u @ v) * u
    V[0] = v / np.linalg.norm(v)
    products = 0
    start = 0
    while True:
        for j in range(start, size):
            w = A @ V[j]
            products += 1
            coef = np.zeros(j + 1)
            if j > start:
                # The three-term recurrence takes out the large components;
                # one pass over the basis then removes what rounding left.
                coef[j - 1], coef[j] = T[j - 1, j], V[j] @ w
                w -= coef[j] * V[j] + coef[j - 1] * V[j - 1]
            # Right after a restart A V[j] has components on every kept Ritz
            # vector, so that step orthogonalizes twice.
            for _ in range(1 if j > start else 2):
                h = V[: j + 1] @ w
                w -= h @ V[: j + 1]
                coef += h
            # Last, so that no subtraction brings u's direction back.
            if u is not None:
                w -= (u @ w) * u
            T[: j + 1, j] = T[j, : j + 1] = coef
            beta = float(np.linalg.norm(w))
            theta, S = np.linalg.eigh(T[: j + 1, : j + 1])
            residual = beta * abs(S[j, -1])
            if residual <= LANCZOS_TOL:
                return float(theta[-1]), S[:, -1] @ V[: j + 1], products
            if products >= LANCZOS_MAX_PRODUCTS:
                raise NoConvergenceError(products, residual)
            V[j + 1] = w / beta
            if j + 1 < size:
                T[j, j + 1] = T[j + 1, j] = beta
        V[:keep] = S[:, -keep:].T @ V[:size]
        V[keep] = V[size]
        T[:] = 0.0
        T[range(keep), range(keep)] = theta[-keep:]
        start = keep


def tv_decay_curve(
    model: TransitionModel,
    x0: TwoMotzkinPath,
    horizon: int,
) -> list[tuple[int, float]]:
    """TV(P^t(x0, .), pi) for t = 0..horizon via iterated row products."""
    if horizon < 0:
        raise ConfigInvalidError("horizon must be nonnegative")
    dist = np.zeros(model.n)
    dist[model.index.index_of(x0)] = 1.0
    curve = [(0, tv_distance(dist, model.pi))]
    for t in range(1, horizon + 1):
        dist = dist @ model.P
        curve.append((t, tv_distance(dist, model.pi)))
    return curve
