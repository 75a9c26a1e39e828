"""Selberg Dirichlet distributions on the probability simplex.

The Selberg Dirichlet family multiplies a symmetric Dirichlet density by a
pairwise repulsion factor

    prod_{1 <= i < j <= M-1} |w_i - w_j|^(2*gamma)

taken over the first M - 1 coordinates only; the last coordinate is the one
left implicit by the simplex constraint and stays out of the repulsion
product.  The normalizing constant is a Selberg-type integral with a closed
form in gamma functions, which also yields closed-form moments for the
excluded coordinate and for symmetric product moments.

All constants are evaluated in log space through ``log_gamma`` and stay finite
well beyond M = 50.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import (
    log_gamma,
    pairwise_log_gap_sum,
    require_count,
    require_number,
    validate_weights,
)

__all__ = [
    "SdirParams",
    "SdirMoments",
    "sdir_log_norm_const",
    "sdir_log_density",
    "sdir_moments",
    "internal_dispersion_expectation",
    "sample_sdir",
]

_SVD_BLOCK_ENTRIES = 1 << 20  # matrix entries per stacked SVD in sample_sdir


@dataclass(frozen=True)
class SdirParams:
    """Symmetric Selberg Dirichlet parameters.

    alpha : common concentration, finite and > 0
    gamma : repulsion strength, finite and >= 0
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
        require_number("alpha", self.alpha, "positive")
        require_number("gamma", self.gamma, "non-negative")
        require_count("m", self.m)


@dataclass(frozen=True)
class SdirMoments:
    """Closed-form moments of the coordinate excluded from the repulsion."""

    mean: float
    second_moment: float
    variance: float
    marginal_k_moment: float
    product_moment_k: float


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
    total = log_gamma(a) - log_gamma(m * a + g * (m - 1) * (m - 2))
    for j in range(1, m):
        total += log_gamma(a + (j - 1) * g) + log_gamma(1.0 + j * g) - log_gamma(1.0 + g)
    return float(total)


def sdir_log_density(w, params):
    """Normalized log density at a simplex point.

    Returns -inf wherever the density vanishes: tied repelled coordinates
    with gamma > 0, or zero weights with alpha > 1.  Zero weights with
    alpha < 1 sit on an integrable singularity and return +inf.
    """
    w = validate_weights(w, params.m)
    if params.gamma > 0.0:
        repulsion = 2.0 * params.gamma * pairwise_log_gap_sum(w[:-1])
        if repulsion == -np.inf:
            return -np.inf
    else:
        repulsion = 0.0
    with np.errstate(divide="ignore"):  # alpha = 1 gives 0, also where a weight is 0
        kernel = 0.0 if params.alpha == 1.0 else ((params.alpha - 1.0) * np.log(w)).sum()
    return float(kernel + repulsion - sdir_log_norm_const(params))


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
    require_count("k", k)
    a, g, m = params.alpha, params.gamma, params.m
    eta = a * m + (m - 1) * (m - 2) * g
    mean = a / eta
    second = a * (a + 1.0) / ((eta + 1.0) * eta)
    variance = mean * (1.0 - mean) / (eta + 1.0)
    marginal_k = float(np.exp(log_gamma(a + k) + log_gamma(eta) - log_gamma(a) - log_gamma(eta + k)))
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
    require_number("tau", tau, "non-negative")
    shifted = SdirParams(params.alpha, params.gamma + 0.5 * tau, params.m)
    return float(np.exp(sdir_log_norm_const(shifted) - sdir_log_norm_const(params)))


def sample_sdir(params, n, rng):
    """Draw ``n`` independent weight vectors exactly; returns an (n, m) array.

    With k = M - 1, let B be lower bidiagonal with chi(2*alpha + 2*gamma*(k-1-i))
    entries on the diagonal, i = 0..k-1, and chi(2*gamma*(k-1)), ..., chi(2*gamma)
    below it (Dumitriu & Edelman, "Matrix models for beta ensembles", J. Math.
    Phys. 43, 2002).  Its halved squared singular values x_1..x_k, in random
    order, follow the beta-Laguerre ensemble with beta = 2*gamma, density
    prop. to prod x_i^(alpha-1) e^(-x_i) |Delta(x)|^(2*gamma).  With x_M ~
    Gamma(alpha), w = x / sum(x) is Selberg Dirichlet (exclude-last) and
    independent of sum(x) ~ Gamma(M*alpha + gamma*(M-1)*(M-2)).  gamma = 0 or
    M <= 2 draws the Dirichlet(alpha).
    """
    require_count("n", n)
    a, g, m = params.alpha, params.gamma, params.m
    if g == 0.0 or m <= 2:
        return rng.dirichlet(np.full(m, a), size=n)

    k = m - 1
    steps = g * np.arange(k - 1, -1, -1)
    diag = np.sqrt(rng.chisquare(2.0 * (a + steps), size=(n, k)))
    sub = np.sqrt(rng.chisquare(2.0 * steps[:-1], size=(n, k - 1)))
    x = np.empty((n, k))
    idx = np.arange(k)
    rows = max(1, _SVD_BLOCK_ENTRIES // (k * k))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        bidiag = np.zeros((stop - start, k, k))
        bidiag[:, idx, idx] = diag[start:stop]
        bidiag[:, idx[1:], idx[:-1]] = sub[start:stop]
        x[start:stop] = 0.5 * np.linalg.svd(bidiag, compute_uv=False) ** 2
    x = np.column_stack([rng.permuted(x, axis=1), rng.standard_gamma(a, size=n)])
    return x / x.sum(axis=1, keepdims=True)
