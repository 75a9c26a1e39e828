"""Mixture model state, hyperparameters and the complete joint density.

The model is a Gaussian mixture with a random number of components M:

    M - 1        ~ Poisson(lam)                    (shifted Poisson, M >= 1)
    w | M        ~ Selberg Dirichlet(alpha0, gamma, M)
    mu[:, d] | M ~ Gaussian ensemble(zeta, M)      independently per dimension
    Sigma_m      ~ inverse-Wishart(v0, nu0)
    c_i | w      ~ Categorical(w)
    y_i | c_i    ~ N(mu_{c_i}, Sigma_{c_i})

gamma may be fixed or given a Gamma hyperprior; zeta may be fixed, given
its own Gamma hyperprior, or tied to gamma through a fixed ratio.
``log_complete_joint`` evaluates the full joint over data, allocations and
all parameters and is the single source of truth every Metropolis step in
the sampler is tested against.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    LOG_2PI,
    gamma_log_pdf,
    invwishart_log_pdf,
    log_gamma,
    require_count,
    require_number,
)
from .ensemble import GeParams, ge_log_density
# bench/tests/test_tracer.py calls selmix.model.simulate_benchmark; ROADMAP
# item 1 drops that call and this import together
from .planted import simulate_benchmark  # noqa: F401
from .selberg import SdirParams, sdir_log_density

__all__ = [
    "MixtureState",
    "Hyperparams",
    "shifted_poisson_log_pmf",
    "weight_prior_log_density",
    "log_likelihood",
    "log_complete_joint",
]


@dataclass
class MixtureState:
    """Full parameter state of the mixture at one sweep.

    Components are indexed 0..m-1; ``alloc`` holds one such index per
    observation.  A component with no observations assigned is
    "non-allocated" and is carried by the prior alone.
    """

    m: int
    weights: np.ndarray
    mus: np.ndarray      # (m, d)
    sigmas: np.ndarray   # (m, d, d)
    alloc: np.ndarray    # (n,) ints in 0..m-1
    gamma: float
    zeta: float

    @property
    def dim(self):
        return self.mus.shape[1]

    @property
    def n_obs(self):
        return self.alloc.shape[0]

    def counts(self):
        return np.bincount(self.alloc, minlength=self.m)

    @property
    def m_allocated(self):
        return int((self.counts() > 0).sum())


@dataclass
class Hyperparams:
    """Priors, proposal scales and run lengths for the sampler.

    gamma is fixed when ``gamma_fixed`` is set, otherwise it carries a
    Gamma(gamma_shape, gamma_rate) hyperprior.  zeta_mode selects between
    "fixed" (value ``zeta_fixed``), "gamma" (its own Gamma hyperprior) and
    "ratio" (zeta tied to rho * gamma).  ``step_mu`` and ``step_gamma`` are
    proposal variances.

    Every number that is set must be a real number (not a bool), and every
    number in use finite and in range; the run lengths must be integers (not
    bools) and ``adapt`` a bool.  Each ValueError names its field.

    Each covariance has an inverse-Wishart(v0, nu0) prior; ``resolved``
    fills in v0 = I and nu0 = d and requires both finite, v0 symmetric
    positive definite and nu0 >= d - 1/2.  The smallest Bartlett chi-square
    then has at least 1/2 degree of freedom: below that its variates
    underflow to zero often enough that chains die in the covariance step.

    ``birth_death`` selects the trans-dimensional bookkeeping.  "reversible"
    (default) inserts newborn components at a uniformly chosen slot so every
    death is the exact reverse of some birth; it recovers the Poi1(lam) prior
    on the component count exactly.  "append" always places the newborn at the
    last slot and drops the slot-choice acceptance factor.  It is not a
    posterior sampler: it is not reversible on labeled states (a death in a
    middle slot has no reverse birth), and with data a Geweke simulation
    (tests/test_geweke.py) finds mean M of 2.13 against a prior mean of 4.
    Its sparser posteriors on the cluster count come from the kernel, not
    the weight prior; the test-suite repulsion studies pin them down.
    """

    alpha0: float = 1.0
    lam: float = 3.0
    v0: np.ndarray | None = None
    nu0: float | None = None
    gamma_fixed: float | None = None
    gamma_shape: float = 3.0
    gamma_rate: float = 2.0
    zeta_mode: str = "fixed"
    zeta_fixed: float = 0.1
    zeta_shape: float = 3.0
    zeta_rate: float = 2.0
    rho: float = 1.0
    q_birth: float = 0.5
    step_mu: float = 0.25
    step_gamma: float = 0.25
    burn_in: int = 5000
    thin: int = 10
    n_samples: int = 5000
    birth_death: str = "reversible"
    adapt: bool = True

    def __post_init__(self):
        if self.zeta_mode not in ("fixed", "gamma", "ratio"):
            raise ValueError("zeta_mode must be 'fixed', 'gamma' or 'ratio'")
        if self.birth_death not in ("reversible", "append"):
            raise ValueError("birth_death must be 'reversible' or 'append'")
        # every number that is set (a field annotated float) must be a real
        # number; those in use must also be finite and in range (NaN fails the
        # range check), so a hyperprior that is not in use is only typed
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.type.startswith("float") and value is not None:
                require_number(field.name, value)
        positive = ["alpha0", "lam", "step_mu", "step_gamma"]
        if self.gamma_free:
            positive += ["gamma_shape", "gamma_rate"]
        elif self.zeta_mode == "ratio":
            positive.append("gamma_fixed")
        positive += {
            "fixed": ["zeta_fixed"], "gamma": ["zeta_shape", "zeta_rate"], "ratio": ["rho"],
        }[self.zeta_mode]
        for name in positive:
            require_number(name, getattr(self, name), "positive")
        if self.gamma_fixed is not None:
            require_number("gamma_fixed", self.gamma_fixed, "non-negative")
        if not 0.0 < self.q_birth < 1.0:
            raise ValueError("q_birth must lie strictly between 0 and 1")
        for name, low in (("burn_in", 0), ("thin", 1), ("n_samples", 1)):
            require_count(name, getattr(self, name), low)
        if not isinstance(self.adapt, (bool, np.bool_)):
            raise ValueError(f"adapt must be true or false, got {self.adapt!r}")
        if self.v0 is not None:
            try:
                v0 = np.asarray(self.v0)
            except ValueError:  # rows of unequal length
                v0 = np.asarray(None)
            if v0.dtype.kind not in "iuf":
                raise ValueError(f"v0 must be a matrix of numbers, got {self.v0!r}")
            self.v0 = np.asarray(v0, dtype=float)

    @property
    def gamma_free(self):
        return self.gamma_fixed is None

    @property
    def zeta_free(self):
        return self.zeta_mode == "gamma"

    def resolved(self, dim):
        """Return a copy with v0/nu0 defaults filled in for dimension ``dim``."""
        v0 = np.eye(dim) if self.v0 is None else np.asarray(self.v0, dtype=float)
        if v0.shape != (dim, dim):
            raise ValueError(f"v0 must be a {dim}x{dim} matrix")
        if not np.isfinite(v0).all():
            raise ValueError("v0 must be finite")
        if not np.array_equal(v0, v0.T):
            raise ValueError("v0 must be symmetric")
        try:
            np.linalg.cholesky(v0)
        except np.linalg.LinAlgError:
            raise ValueError("v0 must be positive definite") from None
        nu0 = float(dim) if self.nu0 is None else float(self.nu0)
        if abs(nu0) == math.inf:
            raise ValueError("nu0 must be finite")
        if not nu0 >= dim - 0.5:
            raise ValueError(f"nu0 must be at least dim - 1/2 = {dim - 0.5}")
        return dataclasses.replace(self, v0=v0, nu0=nu0)


def shifted_poisson_log_pmf(m, lam):
    """Log pmf of the component count: M - 1 ~ Poisson(lam), support M >= 1."""
    require_number("lam", lam, "positive")
    if int(m) != m or m < 1:
        return -np.inf
    return float((m - 1) * np.log(lam) - lam - log_gamma(m))


def weight_prior_log_density(w, alpha0, gamma, m):
    """Weight-prior log density; the one-component simplex is a unit point mass."""
    return sdir_log_density(w, SdirParams(alpha0, gamma, m))


def component_log_pdfs(y, state):
    """(n, m) matrix of per-component Gaussian log densities.

    One batched Cholesky factors every covariance and one batched inverse
    of the factors whitens every component's residuals.
    """
    n, dim = y.shape
    if not (np.isfinite(y).all() and np.isfinite(state.mus).all()):
        raise ValueError("array must not contain infs or NaNs")
    chol = np.linalg.cholesky(state.sigmas)
    half_logdet = np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    resid = (y - state.mus[:, None, :]) @ np.linalg.inv(chol).transpose(0, 2, 1)  # (m, n, d)
    resid *= resid
    # row-major, so reductions over a row (in log_likelihood) add in order
    out = np.empty((n, state.m))
    np.multiply(_last_axis_sums(resid).T, -0.5, out=out)
    out -= half_logdet
    out -= 0.5 * dim * LOG_2PI
    return out


def _last_axis_sums(a):
    """``a.sum(axis=-1)`` bit for bit.  numpy adds fewer than 8 numbers along
    a contiguous axis in order, so a short axis is summed by additions of
    whole slices ``a[..., i]``, several times faster than numpy's own
    reduction over a large array; 8 or more go to numpy, which adds them
    pairwise."""
    k = a.shape[-1]
    if k >= 8:
        return a.sum(axis=-1)
    total = np.zeros(a.shape[:-1])
    for i in range(k):
        total += a[..., i]
    return total


def allocation_log_probs(y, state):
    """(n, m) matrix of log w_j + log N(y_i | mu_j, Sigma_j): the mixture
    density, unnormalized over j, that every data term is read from."""
    log_p = component_log_pdfs(y, state)
    with np.errstate(divide="ignore"):
        log_p += np.log(state.weights)
    return log_p


def log_likelihood(y, state):
    """Mixture log likelihood of the data, allocations marginalized out."""
    y = np.asarray(y, dtype=float)
    log_p = allocation_log_probs(y, state)
    top = log_p.max(axis=1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    return float((np.log(np.exp(log_p - top).sum(axis=1)) + top[:, 0]).sum())


def log_complete_joint(y, state, hyper):
    """Log joint of data, allocations and every parameter block.

    This is the reference density for the sampler: each Metropolis
    acceptance ratio must equal the change in this value plus its proposal
    correction.  Requires resolved hyperparameters (concrete v0, nu0).
    """
    y = np.asarray(y, dtype=float)
    total = shifted_poisson_log_pmf(state.m, hyper.lam)
    total += weight_prior_log_density(state.weights, hyper.alpha0, state.gamma, state.m)
    ge = GeParams(state.zeta, state.m)
    for d in range(state.dim):
        total += ge_log_density(state.mus[:, d], ge)
    for j in range(state.m):
        total += invwishart_log_pdf(state.sigmas[j], hyper.v0, hyper.nu0)
    total += float(allocation_log_probs(y, state)[np.arange(state.n_obs), state.alloc].sum())
    if hyper.gamma_free:
        total += gamma_log_pdf(state.gamma, hyper.gamma_shape, hyper.gamma_rate)
    if hyper.zeta_free:
        total += gamma_log_pdf(state.zeta, hyper.zeta_shape, hyper.zeta_rate)
    return float(total)
