"""Posterior summaries: similarity matrices, point-estimate partitions,
prior cluster-count simulation, and repulsion-scale elicitation.

The module runs on numpy alone.  ``prior_ma_simulation`` imports the
Selberg sampler when called, and ``elicit_zeta`` the ensemble sampler.

Partition summaries are label-invariant: they depend only on which
observations share a component, never on the component indices themselves.
``partition_summary`` gives ``analyze`` integer co-counts, the Binder draw,
its exact loss and the number of distinct partitions from one relabelling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import require_count, require_number

__all__ = [
    "PosteriorTrace",
    "posterior_similarity",
    "canonical_labels",
    "binder_loss",
    "binder_estimate",
    "partition_summary",
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
        arrays = {name: np.concatenate([getattr(t, name) for t in traces])
                  for name in ("m", "m_allocated", "alloc", "gamma", "zeta")}
        return cls(**arrays, weights=weights)

    @property
    def n_samples(self):
        return self.m.shape[0]

    @property
    def n_obs(self):
        return self.alloc.shape[1]


def posterior_similarity(trace):
    """Pairwise co-allocation frequencies across the trace, shape (n, n).

    Entry (i, j) is the fraction of samples in which observations i and j
    share a component, the exact co-count over T correctly rounded; the
    diagonal is exactly 1.  Labels must be non-negative integers.
    """
    _, group, counts = _grouped_counts(trace)
    return counts[np.ix_(group, group)] / trace.n_samples


def partition_summary(trace):
    """``(counts, group, t, loss, count)``: ``counts[np.ix_(group, group)] / T``
    is ``posterior_similarity(trace)`` (see ``_grouped_counts``), ``t`` the
    earliest draw of least ``binder_loss`` against it, ``loss`` that loss
    and ``count`` the number of distinct partitions.

    Up to a term that no partition changes, T times the loss of partition c
    is the integer T * P_c - B_c, with P_c its number of same-block pairs
    and B_c the co-count summed over ordered same-block pairs (i, i
    included), so exact ties are seen as ties.  Each distinct partition
    coarsens the groups, so it is scored once, on them, weighted by their
    sizes (``_block_sums``).  T**2 times the loss is
    T * score + (sum_ij C_ij**2 + n * T**2) / 2, divided by T**2 once.
    """
    labels, group, counts = _grouped_counts(trace)
    n_samples = trace.n_samples
    sizes = np.bincount(group, minlength=counts.shape[0])
    first = {}
    for t, row in enumerate(labels):
        first.setdefault(row.tobytes(), t)
    first = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    pairs, sums = _block_sums(labels[first], counts, sizes)
    scores = n_samples * pairs - sums
    best = np.argmin(scores)
    # each row sum is an integer at most n * T**2, exact while below 2**53
    squares = int(np.einsum("gh,gh,h->g", counts, counts, sizes).astype(np.int64) @ sizes)
    twice = 2 * n_samples * int(scores[best]) + squares + trace.n_obs * n_samples**2
    return counts, group, int(first[best]), twice // 2 / n_samples**2, first.size


def _grouped_counts(trace):
    """``(labels, group, counts)`` over the G groups of observations that share
    a label in every draw: the (T, G) canonical labels of each group's first
    observation, the group of each observation, and the (G, G) co-counts
    C = sum_t Z_t Z_t^T (Z_t the one-hot matrix of draw t over the groups),
    summed exactly in floats from one matrix product per block of draws.
    """
    if trace.n_samples < 1:
        raise ValueError("trace must contain at least one sample")
    alloc = np.asarray(trace.alloc)
    if alloc.size and alloc.min() < 0:
        raise ValueError("allocation labels must be non-negative")
    # an observation's labels in the narrowest signed type that holds 0..n-1,
    # as one bytewise-sorted key (axis=1 would compare field by field)
    columns = canonical_labels(alloc).T.astype(np.min_scalar_type(-trace.n_obs - 1), order="C")
    keys = columns.view(np.dtype((np.void, columns.shape[1] * columns.itemsize))).ravel()
    _, reps, group = np.unique(keys, return_index=True, return_inverse=True)
    labels = columns[reps].T
    step = _block_width(reps.size)
    counts = np.zeros((reps.size, reps.size))
    for _, z, _ in _indicator_blocks(labels):
        for start in range(0, reps.size, step):
            counts[start:start + step] += z[start:start + step] @ z.T
    return labels, group, counts


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
    pairs, sums = _block_sums(partition, sim, np.ones(diag.size))
    return float(squares + pairs[0] - sums[0] + diag.sum())


def binder_estimate(trace):
    """Sampled partition closest in ``binder_loss`` to the trace's own
    posterior similarity (least-squares clustering, Dahl 2006).

    Ties break toward the earliest sample, and the scores are exact
    integers (``partition_summary``), so exact ties are seen as ties.
    Returns the allocation vector exactly as sampled (labels included),
    though the choice itself depends only on the induced partition.
    Against another similarity S the draw is
    ``min(trace.alloc, key=lambda a: binder_loss(a, S))``.
    """
    return trace.alloc[partition_summary(trace)[2]].copy()


def _block_width(n):
    """Columns of a one-hot block of n items, max(64, n // 8).

    Wide enough that each product with the block does that many flops per
    entry of the (n, n) matrix it streams, and for n > 512 at most an eighth
    of that matrix's memory.
    """
    return max(64, n // 8)


def _indicator_blocks(labels):
    """Yield (rows, Z, cols) over blocks of consecutive rows of ``labels``.

    ``labels`` is (R, n) with non-negative integer entries.  Row r owns
    ``labels[r].max() + 1`` columns of the Fortran-ordered one-hot matrix
    Z (n, columns); ``cols[r', i]`` is the column of item i for the
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


def _block_sums(partitions, mat, sizes):
    """(P, B) of partitions of items, item g standing for ``sizes[g]``
    observations whose pairs with item h all have entry ``mat[g, h]``.

    For row c of ``partitions``, P_c counts the observation pairs i < j in
    one block and B_c sums the entries of ordered pairs in one block (i, i
    included).
    """
    items = partitions.shape[1]
    squared_sizes = np.empty(partitions.shape[0])
    sums = np.empty(partitions.shape[0])
    for rows, z, cols in _indicator_blocks(partitions):
        z *= sizes[:, None]
        # each item's block size times the item's size, summed: sum_k n_k^2
        squared_sizes[rows] = (z.sum(axis=0)[cols] * sizes).sum(axis=1)
        sums[rows] = ((mat @ z)[np.arange(items), cols] * sizes).sum(axis=1)
    return 0.5 * (squared_sizes - sizes.sum()), sums


def prior_ma_simulation(alpha0, gamma, m, n, reps, rng):
    """Distribution of the allocated-component count under the prior.

    Draws ``reps`` independent weight vectors exactly from the Selberg
    Dirichlet, assigns ``n`` observations categorically under each, and
    counts the distinct components hit.  Returns a probability vector of
    length m + 1 indexed by the count (entry 0 is always zero).
    """
    from .selberg import SdirParams, sample_sdir

    require_count("n", n)
    require_count("reps", reps)
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

    Runs k-means (best of 10 restarts from k distinct observations),
    takes the mean absolute pairwise center distance averaged over
    dimensions, computes the same statistic for ``reps`` location-ensemble
    draws at each candidate zeta, and returns the first candidate with the
    smallest absolute discrepancy.  The ensemble gap shrinks as zeta grows,
    so degenerate single-cluster data selects the largest grid value.
    """
    from .ensemble import GeParams, sample_ge

    if np.ndim(y) != 2:
        raise ValueError("data must be a 2-D array (n, d)")
    require_count("k", k, 2)
    require_count("reps", reps)
    for z in zeta_grid:
        require_number("zeta grid entry", z)
    zeta_grid = [float(z) for z in zeta_grid]
    if not zeta_grid or any(not 0.0 < z < np.inf for z in zeta_grid):
        raise ValueError("zeta grid must hold positive finite values")
    if k > len(y):
        raise ValueError("k must lie in 2..n")
    centers = _kmeans(np.asarray(y, dtype=float), k, rng)
    # a single centre left means the data show no spread
    target = float(center_gap_by_dimension(centers).mean()) if len(centers) > 1 else 0.0

    def discrepancy(z):
        # the k locations of each draw are k centres, one draw per dimension
        draws = sample_ge(GeParams(z, k), reps, rng)
        return abs(float(center_gap_by_dimension(draws.T).mean()) - target)

    return min(zeta_grid, key=discrepancy)


def _kmeans(y, k, rng):
    """The centres of ``scipy.cluster.vq.kmeans(y, k, iter=10, rng=rng)``, bit for
    bit and from the same draws: the best of 10 runs, the first of equals."""
    if not np.isfinite(y).all():
        raise ValueError("array must not contain infs or NaNs")
    runs = [_lloyd(y, y[rng.choice(len(y), size=k, replace=False)]) for _ in range(10)]
    return min(runs, key=lambda run: run[1])[0]


def _lloyd(y, book):
    """Lloyd's iterations until the mean distance to the nearest centre changes
    by at most 1e-5: (centres, emptied ones dropped; that mean distance)."""
    diff = prev = np.inf
    while diff > 1e-5:
        # as scipy's vq below 5 features and its update_cluster_means: squares
        # summed feature by feature, ties to the first centre, sums in row order
        sq = sum((y[:, j, None] - book[:, j]) ** 2 for j in range(y.shape[1]))
        code, dist = sq.argmin(axis=1), np.sqrt(sq.min(axis=1)).mean()
        counts = np.bincount(code, minlength=len(book))
        sums = np.stack([np.bincount(code, col, len(book)) for col in y.T], axis=1)
        book = sums[counts > 0] / counts[counts > 0, None]
        diff, prev = abs(prev - dist), dist
    return book, dist
