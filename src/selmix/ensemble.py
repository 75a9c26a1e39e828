"""Gaussian ensemble priors for component locations on the real line.

The density couples a Gaussian confinement with a pairwise repulsion over
every coordinate,

    (1 / G(M, zeta)) * prod_m exp(-zeta x_m^2 / 2) * prod_{i<j} |x_i - x_j|^zeta,

with a closed-form constant G in gamma functions.  Exact sampling goes
through the tridiagonal beta-Hermite construction: a symmetric tridiagonal
matrix with Gaussian diagonal and chi off-diagonals has eigenvalues
distributed as the ensemble at inverse temperature beta = zeta, and a final
1/sqrt(zeta) rescaling maps them onto this parameterization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import LOG_2PI, log_gamma, pairwise_log_gap_sum, require_count, require_number

__all__ = ["GeParams", "ge_log_norm_const", "ge_log_density", "sample_ge"]


@dataclass(frozen=True)
class GeParams:
    """Ensemble parameters: finite repulsion/temperature zeta > 0 and size m >= 1."""

    zeta: float
    m: int

    def __post_init__(self):
        require_number("zeta", self.zeta, "positive")
        require_count("m", self.m)


def ge_log_norm_const(params):
    """Log of the ensemble constant G(M, zeta).

    G(M, zeta) = zeta^(-M/2 - zeta M (M-1)/4) * (2 pi)^(M/2)
                 * prod_{j=1}^{M} Gamma(1 + j zeta / 2) / Gamma(1 + zeta / 2).

    G(1, zeta) reduces to sqrt(2 pi / zeta) and G(2, 2) equals pi.  Values
    are cached per (zeta, m).  Raises ValueError when zeta is so large that
    the log constant overflows.
    """
    return _ge_log_norm_const(float(params.zeta), int(params.m))


@lru_cache(maxsize=1024)
def _ge_log_norm_const(z, m):
    with np.errstate(over="ignore", invalid="ignore"):
        total = (-0.5 * m - 0.25 * z * m * (m - 1)) * np.log(z) + 0.5 * m * LOG_2PI
        for j in range(2, m + 1):  # the j = 1 factor is one
            total += log_gamma(1.0 + 0.5 * j * z) - log_gamma(1.0 + 0.5 * z)
    if not np.isfinite(total):
        raise ValueError(f"zeta = {z!r} overflows the ensemble constant at m = {m}")
    return float(total)


def ge_log_density(x, params):
    """Normalized log density; -inf when two coordinates tie or the squares overflow.

    Never NaN and never a RuntimeWarning: a zeta whose constant overflows
    raises ValueError (see ``ge_log_norm_const``), and kernel terms that
    overflow are combined without NaN.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != params.m:
        raise ValueError(f"expected a vector of length {params.m}")
    if not np.all(np.isfinite(x)):
        raise ValueError("coordinates must be finite")
    with np.errstate(over="ignore"):
        squares = (x * x).sum()
    if squares == np.inf:
        # the confinement falls as x^2 and the repulsion rises only as log |x|;
        # while the squares stay finite no gap can overflow
        return -np.inf
    gaps = pairwise_log_gap_sum(x)
    z = params.zeta
    log_const = ge_log_norm_const(params)
    with np.errstate(over="ignore", invalid="ignore"):
        log_kernel = -0.5 * z * squares + z * gaps
        if np.isnan(log_kernel):
            # both terms overflowed in opposite directions; their finite
            # difference, scaled once, rounds to the right value or infinity
            log_kernel = z * (gaps - 0.5 * squares)
    return float(log_kernel - log_const)


def sample_ge(params, n, rng):
    """Draw ``n`` exact ensemble vectors via the tridiagonal construction.

    Each draw builds the beta-Hermite tridiagonal matrix at beta = zeta
    (Gaussian diagonal with variance 2, chi off-diagonals with dof
    beta*(M-1), ..., beta, all divided by sqrt(2)), takes its eigenvalues
    and rescales by 1/sqrt(zeta).  Coordinates are shuffled so the output
    is exchangeable rather than sorted.
    """
    require_count("n", n)
    z, m = params.zeta, params.m
    out = np.empty((n, m))
    if m == 1:
        out[:, 0] = rng.standard_normal(n) / np.sqrt(z)
        return out
    off_dof = z * np.arange(m - 1, 0, -1)
    scale = 1.0 / np.sqrt(2.0)
    tri = np.zeros((m, m))
    for i in range(n):
        tri.flat[:: m + 1] = rng.normal(0.0, np.sqrt(2.0), size=m) * scale  # the diagonal
        tri.flat[m :: m + 1] = np.sqrt(rng.chisquare(off_dof)) * scale  # and below it
        eigs = np.linalg.eigvalsh(tri, UPLO="L")
        vec = eigs / np.sqrt(z)
        rng.shuffle(vec)
        out[i] = vec
    return out
