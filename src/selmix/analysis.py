"""Posterior summaries: similarity matrices, point-estimate partitions,
prior cluster-count simulation, and repulsion-scale elicitation.

Importing the module loads numpy alone, so ``analyze`` loads no scipy.
``prior_ma_simulation`` imports the Selberg sampler when called, and
``elicit_zeta`` imports scipy's k-means and the ensemble sampler.

Partition summaries are label-invariant: they depend only on which
observations share a component, never on the component indices themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PosteriorTrace",
    "posterior_similarity",
    "canonical_labels",
    "distinct_partitions",
    "binder_loss",
    "binder_estimate",
    "prior_ma_simulation",
    "center_gap_by_dimension",
    "elicit_zeta",
]


@dataclass
class PosteriorTrace:
    """Retained MCMC samples, one row per draw.

    ``alloc`` is (T, n) with 0-based component labels; ``m_allocated`` is
    the number of distinct labels per draw; ``weights`` is an optional list
    of per-draw weight vectors (ragged across draws when m changes).
    """

    m: np.ndarray
    m_allocated: np.ndarray
    alloc: np.ndarray
    gamma: np.ndarray
    zeta: np.ndarray
    weights: list | None = None

    @classmethod
    def concat(cls, traces):
        """One trace holding the draws of ``traces`` in order.

        ``weights`` are kept when every input records them and dropped
        (``None``) when any input does not, so that each kept weight vector
        still belongs to its draw.
        """
        traces = list(traces)
        if not traces:
            raise ValueError("need at least one trace")
        if len({t.n_obs for t in traces}) != 1:
            raise ValueError("traces disagree on the number of observations")
        weights = None
        if all(t.weights is not None for t in traces):
            weights = [w for t in traces for w in t.weights]
        return cls(
            m=np.concatenate([t.m for t in traces]),
            m_allocated=np.concatenate([t.m_allocated for t in traces]),
            alloc=np.vstack([t.alloc for t in traces]),
            gamma=np.concatenate([t.gamma for t in traces]),
            zeta=np.concatenate([t.zeta for t in traces]),
            weights=weights,
        )

    @property
    def n_samples(self):
        return self.m.shape[0]

    @property
    def n_obs(self):
        return self.alloc.shape[1]


def posterior_similarity(trace):
    """Pairwise co-allocation frequencies across the trace, shape (n, n).

    Entry (i, j) is the fraction of samples in which observations i and j
    share a component; the diagonal is exactly 1.

    The integer co-counts C = sum_t Z_t Z_t^T (Z_t the one-hot allocation
    matrix of draw t) come from one matrix product per block of draws.  The
    first block's product becomes C; each later block adds its product in
    chunks of ``_block_width(n)`` rows, so C is the only (n, n) array and a
    chunk is no larger than a block.  Every partial sum is an integer below
    2**53, so C is exact and ``C / T`` is the correctly rounded frequency.
    Labels must be non-negative integers.
    """
    if trace.n_samples < 1:
        raise ValueError("trace must contain at least one sample")
    alloc = np.asarray(trace.alloc)
    if alloc.size and alloc.min() < 0:
        raise ValueError("allocation labels must be non-negative")
    n = trace.n_obs
    step = _block_width(n)
    blocks = _indicator_blocks(alloc)
    _, z, _ = next(blocks)
    counts = z @ z.T
    for _, z, _ in blocks:
        for start in range(0, n, step):
            counts[start:start + step] += z[start:start + step] @ z.T
    counts /= trace.n_samples
    return counts


def canonical_labels(alloc):
    """Relabel a partition by order of first appearance (label-invariant form).

    ``alloc`` is one allocation vector or a (T, n) array of them; each row
    is relabelled on its own and the result has the input's shape.
    """
    alloc = np.atleast_1d(np.asarray(alloc))
    out = np.empty(alloc.shape, dtype=np.int64)
    for row in np.ndindex(alloc.shape[:-1]):
        _, first, inverse = np.unique(alloc[row], return_index=True, return_inverse=True)
        # a label's canonical value is the rank of its first position
        out[row] = np.argsort(np.argsort(first))[inverse]
    return out


def distinct_partitions(alloc):
    """Indices of the first draw of each distinct partition, ascending.

    ``alloc`` is a (T, n) array of allocation vectors; two draws are the
    same partition when their canonical labels agree.
    """
    return _first_of_each_row(canonical_labels(alloc))


def _first_of_each_row(rows):
    """Indices of the first occurrence of each distinct row, ascending."""
    first = {}
    for t, row in enumerate(rows):
        first.setdefault(row.tobytes(), t)
    return np.fromiter(first.values(), dtype=np.intp, count=len(first))


def binder_loss(alloc, sim):
    """Sum over pairs i < j of (co-allocation indicator - similarity)^2.

    ``sim`` is a symmetric (n, n) similarity matrix.  Computed as
    sum_{i<j} s_ij^2 + sum_{i<j, same block} (1 - 2 s_ij), with the block
    sums taken from ``sim @ Z`` for the one-hot partition matrix Z.  The
    squares are summed by ``einsum``, not BLAS, so the result does not
    depend on the BLAS thread count.
    """
    sim = np.asarray(sim, dtype=float)
    partition = canonical_labels(np.asarray(alloc).ravel())[None, :]
    diag = np.diagonal(sim)
    squares = 0.5 * (np.einsum("ij,ij->", sim, sim) - np.einsum("i,i->", diag, diag))
    pairs, sums = _block_sums(partition, sim)
    return float(squares + pairs[0] - sums[0] + diag.sum())


def binder_estimate(trace, sim):
    """Sampled partition minimizing the pairwise squared loss against ``sim``.

    Ties break toward the earliest sample.  Returns the allocation vector
    exactly as sampled (labels included), though the choice itself depends
    only on the induced partition.

    Up to a term that no partition changes, the loss of partition c is
    P_c - B_c, with P_c its number of same-block pairs and B_c the sum of
    ``sim`` over ordered same-block pairs (i, i included).  Each distinct
    sampled partition is scored once.  When every entry of ``sim`` is c / T
    for the trace's T draws (as ``posterior_similarity`` returns), the
    scores are computed as exact integers, so exact ties are seen as ties.
    """
    if trace.n_samples < 1:
        raise ValueError("trace must contain at least one sample")
    sim = np.asarray(sim, dtype=float)
    canon = canonical_labels(trace.alloc)
    first = _first_of_each_row(canon)
    scale = trace.n_samples if _is_multiple_of(sim, trace.n_samples) else None
    pairs, sums = _block_sums(canon[first], sim, scale)
    if scale is not None:
        pairs = pairs * scale
    return trace.alloc[first[np.argmin(pairs - sums)]].copy()


def _block_width(n):
    """Columns of a one-hot block of n observations, max(64, n // 8).

    Wide enough that each product with the block does that many flops per
    entry of the (n, n) matrix it streams, and for n > 512 at most an eighth
    of that matrix's memory.
    """
    return max(64, n // 8)


def _indicator_blocks(labels):
    """Yield (rows, Z, cols) over blocks of consecutive rows of ``labels``.

    ``labels`` is (R, n) with non-negative integer entries.  Row r owns
    ``labels[r].max() + 1`` columns of the Fortran-ordered one-hot matrix
    Z (n, columns); ``cols[r', i]`` is the column of observation i for the
    r'-th row of the block.  A block holds rows until Z reaches
    ``_block_width(n)`` columns (always at least one row).
    """
    n = labels.shape[1]
    widths = labels.max(axis=1, initial=-1) + 1
    ends = np.cumsum(widths)
    max_cols = _block_width(n)
    start = 0
    while start < labels.shape[0]:
        base = ends[start] - widths[start]
        stop = max(start + 1, int(np.searchsorted(ends, base + max_cols, side="right")))
        cols = labels[start:stop] + (ends[start:stop] - widths[start:stop] - base)[:, None]
        z = np.zeros((n, int(ends[stop - 1] - base)), order="F")
        z[np.arange(n), cols] = 1.0
        yield slice(start, stop), z, cols
        start = stop


def _block_sums(partitions, sim, scale=None):
    """Same-block pair counts and similarity sums of canonical partitions.

    For each row c of ``partitions`` returns P_c, the number of pairs
    i < j in one block, and B_c, the sum of ``sim[i, j]`` over ordered pairs
    in one block (diagonal included).  With ``scale`` T, every block sum
    ``(sim @ Z)[i, k]`` is taken as the integer T times it rounds to, so B_c
    is T times the exact sum when ``sim`` holds multiples of 1/T (the
    rounding error of each block sum stays below 1/2 while n * n * T is far
    below 2**52).
    """
    n = partitions.shape[1]
    squared_sizes = np.empty(partitions.shape[0])
    sums = np.empty(partitions.shape[0])
    for rows, z, cols in _indicator_blocks(partitions):
        # summing each observation's block size over i gives sum_k n_k^2
        squared_sizes[rows] = z.sum(axis=0)[cols].sum(axis=1)
        picked = (sim @ z)[np.arange(n), cols]
        if scale is not None:
            picked = np.rint(picked * scale)
        sums[rows] = picked.sum(axis=1)
    return 0.5 * (squared_sizes - n), sums


# _is_multiple_of reads an (n, n) matrix in blocks of rows of about this many
# entries, so its temporaries stay near 128 kB each
_ROW_BLOCK_ENTRIES = 1 << 14


def _is_multiple_of(sim, denominator):
    """True when every entry of ``sim`` is c / denominator for an integer c."""
    sim = np.asarray(sim)
    step = max(1, _ROW_BLOCK_ENTRIES // max(sim.shape[1], 1))
    for start in range(0, sim.shape[0], step):
        block = sim[start:start + step]
        if not np.array_equal(np.rint(block * denominator) / denominator, block):
            return False
    return True


def prior_ma_simulation(alpha0, gamma, m, n, reps, rng):
    """Distribution of the allocated-component count under the prior.

    Draws ``reps`` independent weight vectors exactly from the Selberg
    Dirichlet, assigns ``n`` observations categorically under each, and
    counts the distinct components hit.  Returns a probability vector of
    length m + 1 indexed by the count (entry 0 is always zero).
    """
    from .selberg import SdirParams, sample_sdir

    if n < 1 or reps < 1:
        raise ValueError("n and reps must be >= 1")
    weights = sample_sdir(SdirParams(alpha0, gamma, m), reps, rng)
    counts = rng.multinomial(n, weights)
    hit = (counts > 0).sum(axis=1)
    probs = np.bincount(hit, minlength=m + 1).astype(float) / reps
    return probs


def center_gap_by_dimension(centers):
    """Mean absolute pairwise center distance, one entry per dimension."""
    centers = np.asarray(centers, dtype=float)
    k = centers.shape[0]
    if k < 2:
        raise ValueError("need at least two centers")
    iu = np.triu_indices(k, 1)
    gaps = np.abs(centers[:, None, :] - centers[None, :, :])
    return gaps[iu].mean(axis=0)


def elicit_zeta(y, k, zeta_grid, rng, reps=200):
    """Pick the grid zeta whose ensemble matches the data's cluster spread.

    Runs scipy's k-means (best of 10 restarts from k distinct observations),
    takes the mean absolute pairwise center distance averaged over
    dimensions, computes the same statistic for ``reps`` location-ensemble
    draws at each candidate zeta, and returns the first candidate with the
    smallest absolute discrepancy.  The ensemble gap shrinks as zeta grows,
    so degenerate single-cluster data selects the largest grid value.
    """
    from scipy.cluster.vq import kmeans

    from .ensemble import GeParams, sample_ge

    if reps < 1:
        raise ValueError("reps must be >= 1")
    zeta_grid = [float(z) for z in zeta_grid]
    if not zeta_grid or any(z <= 0.0 for z in zeta_grid):
        raise ValueError("zeta grid must hold positive values")
    if not 2 <= k <= len(y):
        raise ValueError("k must lie in 2..n")
    centers, _ = kmeans(np.asarray(y, dtype=float), k, iter=10, rng=rng)
    # scipy drops a centre that ends with no observations (repeated points
    # can do that); a single centre left means the data show no spread
    target = float(center_gap_by_dimension(centers).mean()) if len(centers) > 1 else 0.0

    def discrepancy(z):
        # the k locations of each draw are k centres, one draw per dimension
        draws = sample_ge(GeParams(z, k), reps, rng)
        return abs(float(center_gap_by_dimension(draws.T).mean()) - target)

    return min(zeta_grid, key=discrepancy)
