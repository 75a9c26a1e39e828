"""Posterior summaries: similarity matrices, point-estimate partitions,
prior cluster-count simulation, and repulsion-scale elicitation.

Partition summaries are label-invariant: they depend only on which
observations share a component, never on the component indices themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm

from .ensemble import GeParams, sample_ge
from .selberg import SdirParams, sample_sdir

__all__ = [
    "PosteriorTrace",
    "count_allocated",
    "posterior_similarity",
    "canonical_labels",
    "distinct_partitions",
    "binder_loss",
    "binder_estimate",
    "prior_ma_simulation",
    "kmeans",
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


def count_allocated(alloc):
    """Number of distinct labels in one allocation vector."""
    alloc = np.asarray(alloc)
    if alloc.size == 0:
        raise ValueError("allocation vector must be non-empty")
    return int(np.unique(alloc).size)


def posterior_similarity(trace):
    """Pairwise co-allocation frequencies across the trace, shape (n, n).

    Entry (i, j) is the fraction of samples in which observations i and j
    share a component; the diagonal is exactly 1.

    The integer co-counts C = sum_t Z_t Z_t^T (Z_t the one-hot allocation
    matrix of draw t) are accumulated in place by one BLAS product per block
    of draws.  Every partial sum is an integer below 2**53, so C is exact and
    ``C / T`` is the correctly rounded frequency.  Labels must be
    non-negative integers.
    """
    if trace.n_samples < 1:
        raise ValueError("trace must contain at least one sample")
    alloc = np.asarray(trace.alloc)
    if alloc.size and alloc.min() < 0:
        raise ValueError("allocation labels must be non-negative")
    n = trace.n_obs
    counts = np.zeros((n, n), order="F")
    for _, z, _ in _indicator_blocks(alloc):
        counts = dgemm(1.0, z, z, beta=1.0, c=counts, trans_b=True, overwrite_c=True)
    counts /= trace.n_samples
    # C-ordered view of the same (symmetric) matrix, so rows are contiguous
    return counts.T


# row-wise work on (T, n) labels or an (n, n) matrix goes through blocks of
# rows of about this many entries, so its temporaries stay near 128 kB each
_ROW_BLOCK_ENTRIES = 1 << 14


def canonical_labels(alloc):
    """Relabel a partition by order of first appearance (label-invariant form).

    ``alloc`` is one allocation vector or a (T, n) array of them; each row
    is relabelled on its own and the result has the input's shape.
    """
    alloc = np.atleast_1d(np.asarray(alloc))
    n = alloc.shape[-1]
    rows = alloc.reshape(alloc.size // n if n else 1, n)
    out = np.empty(rows.shape, dtype=np.int64)
    step = max(1, _ROW_BLOCK_ENTRIES // max(n, 1))
    for start in range(0, rows.shape[0], step):
        out[start:start + step] = _first_appearance_labels(rows[start:start + step])
    return out.reshape(alloc.shape)


def _first_appearance_labels(rows):
    n = rows.shape[1]
    pos = np.arange(n)
    # a stable sort groups equal labels with the first occurrence leading
    order = np.argsort(rows, axis=1, kind="stable")
    ranked = np.take_along_axis(rows, order, axis=1)
    starts = np.ones(rows.shape, dtype=bool)
    starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    group_start = np.maximum.accumulate(np.where(starts, pos, 0), axis=1)
    first = np.empty_like(order)
    np.put_along_axis(first, order, np.take_along_axis(order, group_start, axis=1), axis=1)
    # a label's canonical value counts the distinct labels seen before it
    seen = np.cumsum(first == pos, axis=1) - 1
    return np.take_along_axis(seen, first, axis=1)


def distinct_partitions(alloc):
    """Indices of the first draw of each distinct partition, ascending.

    ``alloc`` is a (T, n) array of allocation vectors; two draws are the
    same partition when their canonical labels agree.
    """
    canon = np.ascontiguousarray(canonical_labels(alloc))
    # one opaque key per row: np.unique(axis=0) would build one field per column
    keys = canon.view(np.dtype((np.void, canon.itemsize * canon.shape[1]))).ravel()
    _, first = np.unique(keys, return_index=True)
    return np.sort(first)


def binder_loss(alloc, sim):
    """Sum over pairs i < j of (co-allocation indicator - similarity)^2.

    ``sim`` is a symmetric (n, n) similarity matrix.  Computed as
    sum_{i<j} s_ij^2 + sum_{i<j, same block} (1 - 2 s_ij), with the block
    sums taken from ``sim @ Z`` for the one-hot partition matrix Z.
    """
    sim = np.asarray(sim, dtype=float)
    partition = canonical_labels(np.asarray(alloc).ravel())[None, :]
    diag = np.diagonal(sim)
    squares = 0.5 * (np.vdot(sim, sim) - np.vdot(diag, diag))
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
    first = distinct_partitions(trace.alloc)
    scale = trace.n_samples if _is_multiple_of(sim, trace.n_samples) else None
    pairs, sums = _block_sums(canonical_labels(trace.alloc[first]), sim, scale)
    if scale is not None:
        pairs = pairs * scale
    return trace.alloc[first[np.argmin(pairs - sums)]].copy()


def _indicator_blocks(labels):
    """Yield (rows, Z, cols) over blocks of consecutive rows of ``labels``.

    ``labels`` is (R, n) with non-negative integer entries.  Row r owns
    ``labels[r].max() + 1`` columns of the Fortran-ordered one-hot matrix
    Z (n, columns); ``cols[r', i]`` is the column of observation i for the
    r'-th row of the block.  A block holds rows until Z reaches
    max(64, n // 8) columns (always at least one row): wide enough that each
    BLAS product does that many flops per entry of the (n, n) matrix it
    streams, and for n > 512 at most an eighth of that matrix's memory.
    """
    n = labels.shape[1]
    widths = labels.max(axis=1, initial=-1) + 1
    ends = np.cumsum(widths)
    max_cols = max(64, n // 8)
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
        # sim @ z through the same BLAS as posterior_similarity (sim.T is the
        # Fortran-ordered view of a C-ordered sim), so one set of buffers serves
        picked = dgemm(1.0, sim.T, z, trans_a=True)[np.arange(n), cols]
        if scale is not None:
            picked = np.rint(picked * scale)
        sums[rows] = picked.sum(axis=1)
    return 0.5 * (squared_sizes - n), sums


def _is_multiple_of(sim, denominator):
    """True when every entry of ``sim`` is c / denominator for an integer c."""
    sim = np.asarray(sim)
    step = max(1, _ROW_BLOCK_ENTRIES // max(sim.shape[1], 1))
    for start in range(0, sim.shape[0], step):
        block = sim[start:start + step]
        if not np.array_equal(np.rint(block * denominator) / denominator, block):
            return False
    return True


def prior_ma_simulation(alpha0, gamma, m, n, reps, rng, burn_in=1000, thin=5):
    """Distribution of the allocated-component count under the prior.

    Repeatedly draws a weight vector from the Selberg Dirichlet, assigns
    ``n`` observations categorically, and counts the distinct components
    hit.  Returns a probability vector of length m + 1 indexed by the
    count (entry 0 is always zero).
    """
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be >= 1")
    weights = sample_sdir(SdirParams(alpha0, gamma, m), reps, rng, burn_in=burn_in, thin=thin)
    counts = rng.multinomial(n, weights)
    hit = (counts > 0).sum(axis=1)
    probs = np.bincount(hit, minlength=m + 1).astype(float) / reps
    return probs


def kmeans(y, k, rng, n_restarts=10, tol=1e-8, max_iter=300):
    """Lloyd's algorithm with k-means++ seeding and multiple restarts.

    Returns (centers, labels, inertia) for the best restart by within-
    cluster sum of squares.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if k < 1 or k > n:
        raise ValueError("k must lie in 1..n")
    best = None
    for _ in range(n_restarts):
        centers = _kmeans_pp_init(y, k, rng)
        for _ in range(max_iter):
            dists = ((y[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            labels = dists.argmin(axis=1)
            new_centers = centers.copy()
            for j in range(k):
                mask = labels == j
                if mask.any():
                    new_centers[j] = y[mask].mean(axis=0)
                else:
                    new_centers[j] = y[rng.integers(n)]
            shift = np.abs(new_centers - centers).max()
            centers = new_centers
            if shift < tol:
                break
        dists = ((y[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = dists.argmin(axis=1)
        inertia = float(dists[np.arange(n), labels].sum())
        if best is None or inertia < best[2]:
            best = (centers, labels, inertia)
    return best


def _kmeans_pp_init(y, k, rng):
    n = y.shape[0]
    centers = np.empty((k, y.shape[1]))
    centers[0] = y[rng.integers(n)]
    closest = ((y - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centers[j] = y[rng.integers(n)]
        else:
            centers[j] = y[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, ((y - centers[j]) ** 2).sum(axis=1))
    return centers


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

    Runs k-means on the data, computes the mean absolute pairwise center
    distance averaged over dimensions, simulates the same gap statistic
    under the location ensemble for each candidate zeta, and returns the
    candidate with the smallest absolute discrepancy.  The ensemble gap
    shrinks as zeta grows, so degenerate single-cluster data selects the
    largest grid value.
    """
    zeta_grid = [float(z) for z in zeta_grid]
    if not zeta_grid or any(z <= 0.0 for z in zeta_grid):
        raise ValueError("zeta grid must hold positive values")
    centers, _, _ = kmeans(np.asarray(y, dtype=float), k, rng)
    target = float(center_gap_by_dimension(centers).mean())
    iu = np.triu_indices(k, 1)
    best_z, best_gap = None, np.inf
    for z in zeta_grid:
        draws = sample_ge(GeParams(z, k), reps, rng)
        gaps = np.abs(draws[:, :, None] - draws[:, None, :])[:, iu[0], iu[1]]
        stat = float(gaps.mean())
        if abs(stat - target) < best_gap:
            best_gap = abs(stat - target)
            best_z = z
    return best_z
