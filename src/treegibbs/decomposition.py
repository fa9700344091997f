"""Block decompositions of the path chain and their structural checks.

The state space splits three ways: by the number k of up steps, then by
the level-step color word q, then by the up/down skeleton s.  Every
block inherits a restriction chain (reject moves that leave the block)
and induces a projection chain (pi-weighted aggregate transitions).
This module rebuilds all three levels from a verified model, compares
the projected k-distribution against its closed form, and checks the
product lower bound relating the full spectral gap to the projection
and restriction gaps.

Every state is labelled once per ``StateIndex`` (``label_blocks``) and
every level groups those labels.  Restrictions and projections are
``exact.Chain``s, a kernel with its stationary law, like the full
chain.  A restriction chain is a slice of the verified kernel's arrays
to a strictly ascending block, which keeps each row's columns in order
without a sort, with each row's rejected mass added to its stored
diagonal; one routine projects any chain onto a partition by summing the
flows on those arrays into another :class:`Kernel`.  The skeleton checks
of every (k, q) block read off one projection of the kernel onto the
(k, q, s) labels, with no restriction chain.  Every gap, full, projected
or restricted, is ``exact.spectral_gap``: thick-restart Lanczos on the
chain's kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import comb, log

import numpy as np

from .energy import EnergyParams
from .errors import (
    ConfigInvalidError,
    EmptyBlockError,
    InternalInvariantViolationError,
    NotAPartitionError,
)
from .exact import Chain, Kernel, StateIndex, TransitionModel, build_transition_model, spectral_gap
from .law import logsumexp
from .paths import catalan


def blocks_at(index: StateIndex, depth: int) -> dict:
    """State indices grouped by the first ``depth`` of the (k, q, s) labels.

    Keys are sorted (k = 0..floor(m/2) alone at depth 1, a tuple otherwise);
    each block lists its states in ascending index order.  Coarser levels
    merge the runs of finer blocks that share a prefix, which sorting makes
    adjacent.
    """
    if depth == 3:
        return dict(index.label_blocks)
    runs: dict = {}
    for label, idx in index.label_blocks.items():
        runs.setdefault(label[0] if depth == 1 else label[:depth], []).append(idx)
    return {key: np.sort(np.concatenate(parts)) for key, parts in runs.items()}


def restriction_chain(model: TransitionModel, block: np.ndarray) -> Chain:
    """Restrict the kernel to ``block``, rejecting transitions that leave it.

    The chain's state i is ``block[i]``, and its law is pi restricted to the
    block and renormalized.  ``block`` lists states of ``model`` in strictly
    ascending order; ``NotAPartitionError`` for a repeated or out-of-order
    index, or one outside the space.  ``InternalInvariantViolationError``
    for a row of the kernel that stores no diagonal entry, which every built
    kernel has.
    """
    block = np.asarray(block, dtype=np.intp)
    if block.size == 0:
        raise EmptyBlockError("restriction over an empty block")
    P, size = model.P, len(block)
    if (block[1:] <= block[:-1]).any():
        raise NotAPartitionError("block indices must ascend strictly")
    if block[0] < 0 or block[-1] >= P.n:
        raise NotAPartitionError(f"block indices must lie in [0, {P.n})")
    place = np.full(P.n, -1, dtype=np.intp)
    place[block] = np.arange(size)
    # The entries of rows block[0], block[1], ... in that order, their columns
    # renumbered by place in the block, which keeps them ascending; those that
    # leave the block drop out.
    lengths = P.indptr[block + 1] - P.indptr[block]
    ends = np.cumsum(lengths)
    entries = np.arange(ends[-1]) + np.repeat(P.indptr[block] - (ends - lengths), lengths)
    indices = place[P.indices[entries]]
    inside = indices >= 0
    rows = np.repeat(np.arange(size), lengths)[inside]
    indices, data = indices[inside], P.data[entries[inside]]
    indptr = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    # Rejected mass joins the self-loop, restoring stochastic rows.
    diagonal = np.flatnonzero(indices == rows)
    if len(diagonal) != size:
        raise InternalInvariantViolationError("a kernel row stores no diagonal entry")
    data[diagonal] += 1.0 - np.bincount(rows, data, minlength=size)
    weight = model.pi[block]
    return Chain(Kernel(indptr, indices, data), weight / weight.sum())


def projection_chain(chain: Chain, blocks: list[np.ndarray]) -> Chain:
    """Project a chain onto a partition of its states.

    ``blocks`` index the states of ``chain``, a full chain or a restriction
    (whose state i is its block's i-th state).  State i of the projection is
    ``blocks[i]``, and its law is the blocks' masses under pi.
    """
    P, pi = chain.P, chain.pi
    n = len(pi)
    if not blocks:
        raise NotAPartitionError("no blocks to partition the state space")
    flat = np.concatenate([np.asarray(b, dtype=int) for b in blocks])
    if not np.array_equal(np.sort(flat), np.arange(n)):
        raise NotAPartitionError("blocks must partition the state space")
    n_blocks = len(blocks)
    membership = np.empty(n, dtype=int)
    for b_idx, block in enumerate(blocks):
        membership[np.asarray(block, dtype=int)] = b_idx
    # Aggregate flows pi(x) P(x, y) by block of x and block of y, each sum
    # taken in entry order, into the (block, block) codes that occur, which
    # ascend: row by row, columns ascending, as a Kernel stores them.
    pairs = P.of_rows(membership)
    pairs *= n_blocks
    pairs += membership[P.indices]
    weights = P.of_rows(pi)
    weights *= P.data
    flows = _dense_flows if n_blocks * n_blocks <= P.nnz else _sorted_flows
    codes, flow = flows(pairs, weights, n_blocks)
    rows, cols = np.divmod(codes, n_blocks)
    pi_bar = np.array([pi[np.asarray(b, dtype=int)].sum() for b in blocks])
    indptr = np.zeros(n_blocks + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n_blocks), out=indptr[1:])
    return Chain(Kernel(indptr, cols, flow / pi_bar[rows]), pi_bar)


def _dense_flows(
    pairs: np.ndarray, weights: np.ndarray, n_blocks: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (block, block) codes that occur among ``pairs``, ascending, and the
    sum of ``weights`` over each, taken in entry order: one ``bincount``
    over all n_blocks^2 codes, for partitions with no more codes than
    entries."""
    seen = np.zeros(n_blocks * n_blocks, dtype=bool)
    seen[pairs] = True
    codes = np.flatnonzero(seen)
    return codes, np.bincount(pairs, weights=weights, minlength=len(seen))[codes]


def _sorted_flows(
    pairs: np.ndarray, weights: np.ndarray, n_blocks: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_dense_flows` by sorting the entries' codes, for partitions with
    more codes than entries; ``n_blocks`` is not read.  (``np.unique`` would
    import ``numpy.ma``, about 1 MB and 10 ms per process, and its inverse
    takes twice the memory of a ``searchsorted``.)"""
    codes = np.sort(pairs)
    new = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=new[1:])
    codes = codes[new]
    slots = np.searchsorted(codes, pairs)
    return codes, np.bincount(slots, weights=weights, minlength=len(codes))


def projected_k_distribution(m: int, params: EnergyParams) -> np.ndarray:
    """Closed-form law of the up-step count k under the Gibbs distribution.

    The block weight is binom(m, 2k) * catalan(k) * exp(-alpha k)
    * (exp(-alpha) + exp(-beta))^(m - 2k), normalized in log space, so
    each value is accurate to about eps * |log w| relative: within 2.6e-14
    of the exact fractions at m <= 40.
    """
    a, b = params.alpha, params.beta
    log_t = np.logaddexp(-a, -b)
    log_w = np.array(
        [
            log(comb(m, 2 * k) * catalan(k)) - a * k + (m - 2 * k) * log_t
            for k in range(m // 2 + 1)
        ]
    )
    return np.exp(log_w - logsumexp(log_w))


@dataclass
class SkeletonProjectionReport:
    """Structure of one (k, q) block: skeleton family sizes and the induced
    chain over skeletons."""

    m: int
    k: int
    q: str
    skeleton_sizes: dict[str, int]
    expected_size: int
    sizes_match: bool
    energy_spread: float
    pi_uniform_maxdev: float
    offdiag_values: list[float]
    offdiag_expected: float
    offdiag_maxdev: float

    @property
    def uniform_ok(self) -> bool:
        return self.pi_uniform_maxdev <= 1e-12

    @property
    def matches_expected_rate(self) -> bool:
        return self.offdiag_maxdev <= 1e-12 * max(self.offdiag_expected, 1.0)


def check_skeleton_projection(
    model: TransitionModel,
) -> dict[tuple[int, str], SkeletonProjectionReport]:
    """Verify the skeleton-level structure of every (k, q) block of ``model``.

    Keyed by (k, q) in sorted order.  Checks that every skeleton family
    inside a block has size binom(m, 2k), that all block states share one
    energy, that the block's projected chain over skeletons is uniform, and
    reports the measured off-diagonal projected rates next to the nominal
    1 / (4 m^2).

    One projection onto the (k, q, s) labels serves every block.  Restricting
    the chain to a block changes only its diagonal and rescales pi on it by
    one constant, so the block's contiguous diagonal sub-block of that
    projection holds its restricted projection's off-diagonal rates, and its
    family masses up to that constant.
    """
    m = model.index.m
    families = model.index.label_blocks
    proj = projection_chain(model, list(families.values()))
    expected_rate = 1.0 / (4.0 * m * m)
    proj_rows = proj.P.rows
    reports = {}
    start = 0
    for (k, q), labels in groupby(families, key=lambda label: label[:2]):
        sizes = {s: len(families[k, q, s]) for _, _, s in labels}
        stop = start + len(sizes)
        energies = model.energies[np.concatenate([families[k, q, s] for s in sizes])]
        pi = proj.pi[start:stop] / proj.pi[start:stop].sum()
        # The family's entries between its own labels, off the diagonal, row
        # by row and columns ascending.
        lo, hi = proj.P.indptr[start], proj.P.indptr[stop]
        rows, cols, vals = proj_rows[lo:hi], proj.P.indices[lo:hi], proj.P.data[lo:hi]
        inside = (cols >= start) & (cols < stop) & (cols != rows) & (vals > 0.0)
        positive = vals[inside].tolist()
        expected_size = comb(m, 2 * k)
        reports[k, q] = SkeletonProjectionReport(
            m=m,
            k=k,
            q=q,
            skeleton_sizes=sizes,
            expected_size=expected_size,
            sizes_match=all(v == expected_size for v in sizes.values()),
            energy_spread=float(energies.max() - energies.min()),
            pi_uniform_maxdev=float(np.abs(pi - 1.0 / len(sizes)).max()),
            offdiag_values=positive,
            offdiag_expected=expected_rate,
            offdiag_maxdev=max((abs(v - expected_rate) for v in positive), default=0.0),
        )
        start = stop
    return reports


@dataclass
class DecompositionBoundReport:
    """Gap(P) versus the product bound from one partition level."""

    gap_full: float
    gap_projection: float
    restriction_gaps: dict
    min_restriction_gap: float
    bound: float
    holds: bool


def check_decomposition_bound(model: TransitionModel) -> DecompositionBoundReport:
    """Check Gap(P) >= 1/2 * Gap(projection) * min(block restriction gaps)
    for the up-step-count partition k = 0..floor(m/2).

    The restriction gaps are keyed by k.  A one-state block or projection
    contributes gap 1 so the product stays meaningful.  Every other gap,
    the full one too, is ``spectral_gap``.
    """

    def gap(chain: Chain) -> float:
        return 1.0 if chain.n == 1 else spectral_gap(chain).gap

    blocks = blocks_at(model.index, 1)
    gap_full = spectral_gap(model).gap
    gap_proj = gap(projection_chain(model, list(blocks.values())))
    restriction_gaps = {k: gap(restriction_chain(model, block)) for k, block in blocks.items()}
    min_gap = min(restriction_gaps.values())
    bound = 0.5 * gap_proj * min_gap
    return DecompositionBoundReport(
        gap_full=gap_full,
        gap_projection=gap_proj,
        restriction_gaps=restriction_gaps,
        min_restriction_gap=min_gap,
        bound=bound,
        holds=gap_full >= bound - 1e-13,
    )


def decomposition_report(m: int, params: EnergyParams, level: str = "k") -> dict:
    """JSON-ready structural report at the requested partition depth."""
    if level not in ("k", "kq", "kqs"):
        raise ConfigInvalidError(f"level must be one of k, kq, kqs; got {level!r}")
    model = build_transition_model(m, params)
    by_k = blocks_at(model.index, 1)

    closed = projected_k_distribution(m, params)
    pi_bar = np.array([model.pi[idx].sum() for idx in by_k.values()])
    bound = check_decomposition_bound(model)
    log_closed = np.log(closed)
    interior = range(1, len(closed) - 1)
    report: dict = {
        "m": m,
        "params": {"alpha": params.alpha, "beta": params.beta},
        "level": level,
        "k_partition": {
            "block_sizes": {int(k): int(len(idx)) for k, idx in by_k.items()},
            "pi_bar_closed_form": closed.tolist(),
            "pi_bar_from_model": pi_bar.tolist(),
            "pi_bar_max_abs_diff": float(np.abs(closed - pi_bar).max()),
            "log_concave": bool(
                all(
                    2 * log_closed[i] + 1e-12 >= log_closed[i - 1] + log_closed[i + 1]
                    for i in interior
                )
            ),
            "gap_full": bound.gap_full,
            "gap_projection": bound.gap_projection,
            "restriction_gaps": {int(k): float(v) for k, v in bound.restriction_gaps.items()},
            "product_bound": bound.bound,
            "bound_holds": bound.holds,
        },
    }
    if level in ("kq", "kqs"):
        by_kq = blocks_at(model.index, 2)
        energies = model.energies
        spreads = [energies[idx].max() - energies[idx].min() for idx in by_kq.values()]
        report["kq_partition"] = {
            "num_blocks": len(by_kq),
            "block_size_formula_ok": all(
                len(idx) == comb(m, 2 * k) * catalan(k) for (k, q), idx in by_kq.items()
            ),
            "max_energy_spread_within_block": float(max(spreads)),
        }
    if level == "kqs":
        rows = []
        all_sizes_ok = True
        all_uniform_ok = True
        all_rates_ok = True
        for rep in check_skeleton_projection(model).values():
            all_sizes_ok &= rep.sizes_match
            all_uniform_ok &= rep.uniform_ok
            all_rates_ok &= rep.matches_expected_rate
            rows.append(
                {
                    "k": rep.k,
                    "q": rep.q,
                    "family_size": rep.expected_size,
                    "sizes_match": rep.sizes_match,
                    "pi_uniform_maxdev": rep.pi_uniform_maxdev,
                    "offdiag_maxdev": rep.offdiag_maxdev,
                }
            )
        report["kqs_partition"] = {
            "family_size_binomial_ok": bool(all_sizes_ok),
            "skeleton_projection_uniform_ok": bool(all_uniform_ok),
            "offdiag_rate_expected": 1.0 / (4.0 * m * m),
            "offdiag_rate_matches": bool(all_rates_ok),
            "blocks": rows,
        }
    return report
