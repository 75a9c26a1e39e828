"""Shared density and sampling helpers built on numpy and ``math``.

Everything here is standard-distribution plumbing used by the other
modules, with the rules they share: what a point of the simplex is
(``validate_weights``), and the two rules for a value a caller hands in:
every number goes through ``require_number`` and every count and seed
through ``require_count``.  Log densities are hand-rolled on top of
``log_gamma`` so that ratios needed inside tight Metropolis loops stay cheap
and so that degenerate one-component edge cases behave predictably.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache

import numpy as np

LOG_2PI = np.log(2.0 * np.pi)

# a weight vector may miss a sum of 1 by this much
SIMPLEX_TOL = 1e-12


def log_gamma(x):
    """log |Gamma(x)| as ``math.lgamma``, with +inf where that overflows."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


@lru_cache(maxsize=128)
def _upper_pairs(k):
    """Row and column indices of the pairs i < j, in ``np.triu_indices`` order."""
    rows, cols = np.triu_indices(k, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def pairwise_log_gap_sum(values):
    """Sum of log |v_i - v_j| over all pairs i < j.

    Returns 0.0 for inputs with fewer than two entries (empty product) and
    -inf whenever two entries tie exactly.
    """
    vals = np.asarray(values, dtype=float)
    rows, cols = _upper_pairs(vals.shape[0])
    gaps = np.abs(vals[rows] - vals[cols])
    if np.count_nonzero(gaps) < gaps.size:
        return -np.inf
    return float(np.log(gaps).sum())


def require_number(name, value, sign=None):
    """A ValueError naming ``name`` unless ``value`` is a real number (no
    bool); with ``sign`` "positive" or "non-negative", also unless it is
    finite and of that sign (NaN is neither)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if sign is None:
        return
    if abs(value) == math.inf:
        raise ValueError(f"{name} must be finite")
    if not (value > 0.0 if sign == "positive" else value >= 0.0):
        raise ValueError(f"{name} must be {sign}")


def require_count(name, value, least=1):
    """A ValueError naming ``name`` unless ``value`` is an integer >= ``least`` (no bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}")


def validate_weights(w, m=None):
    """Check that ``w`` lies on the probability simplex and return it as a
    float array: a non-empty vector (of ``m`` entries when given) in [0, 1]
    that sums to 1 within ``SIMPLEX_TOL``."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must form a non-empty vector")
    if m is not None and w.size != m:
        raise ValueError(f"expected {m} weights, got {w.size}")
    if not ((w >= 0.0) & (w <= 1.0)).all():  # NaN fails both comparisons
        raise ValueError("weights must lie in [0, 1]")
    if abs(w.sum() - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"weights must sum to 1 within {SIMPLEX_TOL:g}")
    return w


def gamma_log_pdf(x, shape, rate):
    """Gamma log density under the shape/rate parameterization."""
    if x <= 0.0:
        return -np.inf
    return float(shape * np.log(rate) - log_gamma(shape) + (shape - 1.0) * np.log(x) - rate * x)


def invwishart_log_pdf(sigma, scale, df):
    """Inverse-Wishart log density with scale matrix ``scale`` and ``df`` dof."""
    scale = np.asarray(scale, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    d = scale.shape[0]
    if df <= d - 1:
        raise ValueError("degrees of freedom must exceed dim - 1")
    chol_scale = np.linalg.cholesky(scale)
    chol_sigma = np.linalg.cholesky(sigma)
    logdet_scale = 2.0 * np.log(np.diag(chol_scale)).sum()
    logdet_sigma = 2.0 * np.log(np.diag(chol_sigma)).sum()
    # tr(scale @ sigma^{-1}) through a solve against the Cholesky factor
    half = np.linalg.solve(chol_sigma, chol_scale)
    trace = (half * half).sum()
    log_multigamma = 0.25 * d * (d - 1) * math.log(math.pi)
    log_multigamma += sum(log_gamma(0.5 * df - 0.5 * j) for j in range(d))
    return float(
        0.5 * df * logdet_scale
        - 0.5 * df * d * np.log(2.0)
        - log_multigamma
        - 0.5 * (df + d + 1.0) * logdet_sigma
        - 0.5 * trace
    )


@lru_cache(maxsize=32)
def _bartlett_slots(d):
    """Flat indices, in a d x d matrix, of the diagonal and of the entries
    below it in ``np.tril_indices(d, -1)`` order."""
    rows, cols = np.tril_indices(d, -1)
    slots = np.concatenate((np.arange(d) * (d + 1), rows * d + cols))
    slots.setflags(write=False)
    return slots


def sample_invwishart(rng, scale, df):
    """Draw inverse-Wishart matrices by the Bartlett decomposition.

    ``scale`` is one (d, d) matrix or an (m, d, d) stack, and ``df`` one
    value or one per matrix; the result has the shape of ``scale``.  Each
    matrix draws its d chi-squares and then its normal variates in turn, so
    a stack gives the same bits as one call per matrix in order; the
    inverses, factorisations and products are batched.  Requires every
    df > d - 1 (NaN is refused too); fractional degrees of freedom are fine
    because the Bartlett diagonal uses chi-square variates with real-valued
    dof.  Raises LinAlgError when any factorisation fails.  The draw is
    ``invwishart_from_variates(scale, bartlett_variates(rng, d, df))``; a
    caller that may not keep its matrix can draw the variates alone and form
    the matrix later.
    """
    scale = np.asarray(scale, dtype=float)
    d = scale.shape[-1]
    dfs = np.empty(scale.size // (d * d))
    dfs[:] = df
    return invwishart_from_variates(scale, bartlett_variates(rng, d, dfs))


def bartlett_variates(rng, d, df):
    """The random variates of inverse-Wishart draws in dimension ``d``, one
    row per matrix and one matrix per entry of ``df`` (a scalar gives one):
    the d chi-squares, with df, df - 1, ..., df - d + 1 degrees of freedom,
    then the d(d-1)/2 normals, drawn matrix by matrix in that order.
    Requires every df > d - 1 (NaN is refused too) before drawing any."""
    dfs = np.asarray(df, dtype=float).reshape(-1).tolist()
    if not all(df_i > d - 1 for df_i in dfs):
        raise ValueError("degrees of freedom must exceed dim - 1")
    n_normal = d * (d - 1) // 2
    draws = []
    for df_i in dfs:
        for k in range(d):
            draws.append(rng.chisquare(df_i - k))
        # a scalar call draws the variate an array call of one would, for less
        if n_normal == 1:
            draws.append(rng.standard_normal())
        elif n_normal:
            draws += rng.standard_normal(n_normal).tolist()
    return np.array(draws).reshape(len(dfs), -1)


def invwishart_from_variates(scale, variates):
    """The inverse-Wishart matrices that ``variates``
    (``bartlett_variates``) give with scale ``scale``, one (d, d) matrix or
    a stack with one matrix per row of ``variates``; the result has the
    shape of ``scale``.  Raises LinAlgError when any factorisation fails."""
    scale = np.asarray(scale, dtype=float)
    d = scale.shape[-1]
    scales = scale.reshape(-1, d, d)
    chol_prec = np.linalg.cholesky(np.linalg.inv(scales))
    bart = np.zeros((len(variates), d * d))
    bart[:, _bartlett_slots(d)] = variates
    np.sqrt(bart[:, :: d + 1], out=bart[:, :: d + 1])
    root = chol_prec @ bart.reshape(scales.shape)
    sigma = np.linalg.inv(root @ root.transpose(0, 2, 1))
    sym = sigma + sigma.transpose(0, 2, 1)
    sym *= 0.5
    return sym.reshape(scale.shape)
