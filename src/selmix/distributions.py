"""Shared density and sampling helpers built on scipy primitives.

Everything here is standard-distribution plumbing used by the model,
sampler and analysis modules.  Log densities are hand-rolled on top of
``gammaln`` so that ratios needed inside tight Metropolis loops stay cheap
and so that degenerate one-component edge cases behave predictably.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaln, multigammaln

LOG_2PI = np.log(2.0 * np.pi)


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
    if (gaps == 0.0).any():
        return -np.inf
    return float(np.log(gaps).sum())


def require_finite(name, value):
    """Raise a ValueError naming ``name`` when ``value`` is +-inf.

    A plain comparison, cheap enough for every parameter construction; NaN
    passes here and fails the caller's range check.
    """
    if abs(value) == np.inf:
        raise ValueError(f"{name} must be finite")


def gamma_log_pdf(x, shape, rate):
    """Gamma log density under the shape/rate parameterization."""
    if x <= 0.0:
        return -np.inf
    return float(shape * np.log(rate) - gammaln(shape) + (shape - 1.0) * np.log(x) - rate * x)


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
    # tr(scale @ sigma^{-1}) through triangular solves against the Cholesky factor
    half = solve_triangular(chol_sigma, chol_scale, lower=True)
    trace = (half * half).sum()
    return float(
        0.5 * df * logdet_scale
        - 0.5 * df * d * np.log(2.0)
        - multigammaln(0.5 * df, d)
        - 0.5 * (df + d + 1.0) * logdet_sigma
        - 0.5 * trace
    )


def sample_invwishart(rng, scale, df):
    """Draw inverse-Wishart matrices by the Bartlett decomposition.

    ``scale`` is one (d, d) matrix or an (m, d, d) stack, and ``df`` one
    value or one per matrix; the result has the shape of ``scale``.  Each
    matrix draws its d chi-squares and then its normal variates in turn, so
    a stack gives the same bits as one call per matrix in order; the
    inverses, factorisations and products are batched.  Requires every
    df > d - 1; fractional degrees of freedom are fine because the Bartlett
    diagonal uses chi-square variates with real-valued dof.  Raises
    LinAlgError when any factorisation fails.
    """
    scale = np.asarray(scale, dtype=float)
    d = scale.shape[-1]
    scales = scale.reshape(-1, d, d)
    dfs = np.empty(len(scales))
    dfs[:] = df
    if (dfs <= d - 1).any():
        raise ValueError("degrees of freedom must exceed dim - 1")
    chol_prec = np.linalg.cholesky(np.linalg.inv(scales))
    n_off = d * (d - 1) // 2
    chi2 = np.empty((dfs.size, d))
    normals = np.empty((dfs.size, n_off))
    for i, row_dfs in enumerate((dfs[:, None] - np.arange(d)).tolist()):
        chi2[i] = rng.chisquare(row_dfs)
        normals[i] = rng.standard_normal(n_off)
    bart = np.zeros(scales.shape)
    diag = np.arange(d)
    bart[:, diag, diag] = np.sqrt(chi2)
    rows, cols = np.tril_indices(d, -1)
    bart[:, rows, cols] = normals
    root = chol_prec @ bart
    sigma = np.linalg.inv(root @ root.transpose(0, 2, 1))
    return (0.5 * (sigma + sigma.transpose(0, 2, 1))).reshape(scale.shape)
