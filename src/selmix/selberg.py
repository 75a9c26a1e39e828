"""Selberg Dirichlet distributions on the probability simplex.

The Selberg Dirichlet family multiplies a symmetric Dirichlet density by a
pairwise repulsion factor

    prod_{1 <= i < j <= M-1} |w_i - w_j|^(2*gamma)

taken over the first M - 1 coordinates only; the last coordinate is the one
left implicit by the simplex constraint and stays out of the repulsion
product.  The normalizing constant is a Selberg-type integral with a closed
form in gamma functions, which also yields closed-form moments for the
excluded coordinate and for symmetric product moments.

A generalized variant with per-coordinate concentrations is supported in
unnormalized form only; its constant has no known closed form and all uses
in this package need ratios where it cancels.

All constants are evaluated in log space through ``gammaln`` and stay finite
well beyond M = 50.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, xlogy

from .distributions import pairwise_log_gap_sum

__all__ = [
    "SdirParams",
    "GsdirParams",
    "SdirMoments",
    "validate_weights",
    "log_pairwise_repulsion",
    "sdir_log_norm_const",
    "sdir_log_density",
    "mehta_log_integral",
    "sdir_moments",
    "internal_dispersion_expectation",
    "gsdir_log_density_unnorm",
    "sample_sdir",
]

SIMPLEX_TOL = 1e-12


@dataclass(frozen=True)
class SdirParams:
    """Symmetric Selberg Dirichlet parameters.

    alpha : common concentration, > 0
    gamma : repulsion strength, >= 0
    m     : number of mixture weights, >= 1

    With m = 1 the simplex degenerates to the single point (1.0) and the
    density is the constant 1; the trans-dimensional sampler passes through
    such states, so they are accepted here.  With m = 2 the repulsion
    product is empty and the family coincides with the Dirichlet for every
    gamma.
    """

    alpha: float
    gamma: float
    m: int

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        if self.gamma < 0.0:
            raise ValueError("gamma must be non-negative")
        if int(self.m) != self.m or self.m < 1:
            raise ValueError("m must be an integer >= 1")


@dataclass(frozen=True)
class GsdirParams:
    """Generalized variant with one concentration per coordinate."""

    alphas: np.ndarray
    gamma: float

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=float)
        if alphas.ndim != 1 or alphas.size < 1:
            raise ValueError("alphas must be a non-empty vector")
        if not np.all(alphas > 0.0):
            raise ValueError("every concentration must be positive")
        if self.gamma < 0.0:
            raise ValueError("gamma must be non-negative")
        object.__setattr__(self, "alphas", alphas)

    @property
    def m(self):
        return self.alphas.size


@dataclass(frozen=True)
class SdirMoments:
    """Closed-form moments of the coordinate excluded from the repulsion."""

    mean: float
    second_moment: float
    variance: float
    marginal_k_moment: float
    product_moment_k: float


def validate_weights(w, m=None):
    """Check that ``w`` lies on the probability simplex and return it.

    Entries must fall in [0, 1] and sum to 1 within 1e-12.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must form a non-empty vector")
    if m is not None and w.size != m:
        raise ValueError(f"expected {m} weights, got {w.size}")
    if np.any(w < 0.0) or np.any(w > 1.0):
        raise ValueError("weights must lie in [0, 1]")
    if abs(w.sum() - 1.0) > SIMPLEX_TOL:
        raise ValueError("weights must sum to 1 within 1e-12")
    return w


def log_pairwise_repulsion(w, convention="exclude-last"):
    """Log of the pairwise-gap product, -inf when two entries tie.

    ``convention`` selects the coordinates entering the product:
    "exclude-last" uses the first M - 1 weights (the simplex default here),
    "all" uses every coordinate.
    """
    w = validate_weights(w)
    if convention == "exclude-last":
        return pairwise_log_gap_sum(w[:-1])
    if convention == "all":
        return pairwise_log_gap_sum(w)
    raise ValueError("convention must be 'exclude-last' or 'all'")


def sdir_log_norm_const(params):
    """Log normalizing constant of the symmetric family.

    Evaluates the Selberg-type closed form

        Gamma(alpha) / Gamma(M*alpha + gamma*(M-1)*(M-2))
        * prod_{j=1}^{M-1} Gamma(alpha + (j-1)*gamma) Gamma(1 + j*gamma)
                           / Gamma(1 + gamma)

    entirely in log space.  For m = 1 the empty product gives 0.0.  Values
    are cached per (alpha, gamma, m): the sampler asks for the same few
    constants on every sweep.
    """
    return _sdir_log_norm_const(float(params.alpha), float(params.gamma), int(params.m))


@lru_cache(maxsize=1024)
def _sdir_log_norm_const(a, g, m):
    total = gammaln(a) - gammaln(m * a + g * (m - 1) * (m - 2))
    for j in range(1, m):
        total += gammaln(a + (j - 1) * g) + gammaln(1.0 + j * g) - gammaln(1.0 + g)
    return float(total)


def sdir_log_density(w, params):
    """Normalized log density at a simplex point.

    Returns -inf wherever the density vanishes: tied repelled coordinates
    with gamma > 0, or zero weights with alpha > 1.  Zero weights with
    alpha < 1 sit on an integrable singularity and return +inf.  The kernel
    is the generalized family's with every concentration equal to alpha.
    """
    gsdir = GsdirParams(np.full(int(params.m), params.alpha), params.gamma)
    return gsdir_log_density_unnorm(w, gsdir) - sdir_log_norm_const(params)


def mehta_log_integral(alpha, beta, gamma, m):
    """Log of the Mehta-type simplex integral with a reweighted last coordinate.

    This generalizes the normalizing constant by giving the excluded
    coordinate its own exponent beta - 1; it reduces to
    ``sdir_log_norm_const`` at beta == alpha, and ratios of the two produce
    the closed-form marginal moments of the excluded coordinate.
    """
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("alpha and beta must be positive")
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    if int(m) != m or m < 1:
        raise ValueError("m must be an integer >= 1")
    total = gammaln(beta) - gammaln(alpha * (m - 1) + beta + (m - 1) * (m - 2) * gamma)
    for j in range(1, m):
        total += gammaln(alpha + (j - 1) * gamma) + gammaln(1.0 + j * gamma) - gammaln(1.0 + gamma)
    return float(total)


def sdir_moments(params, k=1):
    """Closed-form moments of the excluded (last) coordinate, plus the
    order-k symmetric product moment.

    With eta = alpha*M + (M-1)*(M-2)*gamma:

        mean          = alpha / eta
        second moment = alpha*(alpha+1) / ((eta+1)*eta)
        variance      = mean * (1 - mean) / (eta + 1)
        k-th moment   = Gamma(alpha+k) Gamma(eta) / (Gamma(alpha) Gamma(eta+k))
        E prod w_i^k  = D(alpha+k, gamma, M) / D(alpha, gamma, M)

    The repelled coordinates share a different common mean,
    (1 - mean) / (M - 1), by symmetry among the first M - 1 entries.
    """
    if int(k) != k or k < 1:
        raise ValueError("k must be a positive integer")
    a, g, m = params.alpha, params.gamma, params.m
    eta = a * m + (m - 1) * (m - 2) * g
    mean = a / eta
    second = a * (a + 1.0) / ((eta + 1.0) * eta)
    variance = mean * (1.0 - mean) / (eta + 1.0)
    marginal_k = float(np.exp(gammaln(a + k) + gammaln(eta) - gammaln(a) - gammaln(eta + k)))
    bumped = SdirParams(a + k, g, m)
    product_k = float(np.exp(sdir_log_norm_const(bumped) - sdir_log_norm_const(params)))
    return SdirMoments(
        mean=mean,
        second_moment=second,
        variance=variance,
        marginal_k_moment=marginal_k,
        product_moment_k=product_k,
    )


def internal_dispersion_expectation(params, tau):
    """Expected pairwise-gap product raised to tau, in closed form.

    Equals D(alpha, gamma + tau/2, M) / D(alpha, gamma, M); the statistic is
    1 at tau = 0, rises with gamma and falls with alpha, M and tau.
    """
    if tau < 0.0:
        raise ValueError("tau must be non-negative")
    shifted = SdirParams(params.alpha, params.gamma + 0.5 * tau, params.m)
    return float(np.exp(sdir_log_norm_const(shifted) - sdir_log_norm_const(params)))


def gsdir_log_density_unnorm(w, params):
    """Unnormalized log density of the generalized family."""
    w = validate_weights(w, params.m)
    if params.gamma > 0.0:
        repulsion = 2.0 * params.gamma * pairwise_log_gap_sum(w[:-1])
        if repulsion == -np.inf:
            return -np.inf
    else:
        repulsion = 0.0
    return float(xlogy(params.alphas - 1.0, w).sum() + repulsion)


def _batch_repelled_log_gaps(wmat):
    """Exclude-last pairwise log-gap sums for every row of ``wmat``."""
    core = wmat[:, :-1]
    k = core.shape[1]
    total = np.zeros(wmat.shape[0])
    if k < 2:
        return total
    with np.errstate(divide="ignore"):
        for i in range(k - 1):
            for j in range(i + 1, k):
                total += np.log(np.abs(core[:, i] - core[:, j]))
    return total


def sample_sdir(params, n, rng, burn_in=1000, thin=5):
    """Draw ``n`` weight vectors by independence Metropolis-Hastings.

    Proposals come from the symmetric Dirichlet(alpha); the acceptance ratio
    is the repulsion factor ratio, so at gamma = 0 the proposals are the
    target and exact i.i.d. draws are returned directly.  Draws are recorded
    every ``thin`` sweeps after ``burn_in`` warm-up sweeps.

    Returns an (n, m) array; rows never contain tied repelled coordinates
    when gamma > 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if burn_in < 0 or thin < 1:
        raise ValueError("burn_in must be >= 0 and thin >= 1")
    alpha_vec = np.full(params.m, params.alpha)
    if params.gamma == 0.0:
        return rng.dirichlet(alpha_vec, size=n)

    total = burn_in + n * thin
    proposals = rng.dirichlet(alpha_vec, size=total)
    log_gaps = _batch_repelled_log_gaps(proposals).tolist()
    log_u = np.log(rng.random(total)).tolist()
    two_gamma = 2.0 * params.gamma

    out = np.empty((n, params.m))
    cur_idx = -1
    cur_gap = -np.inf
    kept = 0
    for t in range(total):
        if log_u[t] < two_gamma * (log_gaps[t] - cur_gap):
            cur_idx = t
            cur_gap = log_gaps[t]
        if t >= burn_in and (t - burn_in) % thin == thin - 1:
            out[kept] = proposals[cur_idx]
            kept += 1
    return out
