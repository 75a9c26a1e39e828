"""Shared test utilities: Monte Carlo error bars, independent quadrature
oracles for the normalizing constants, random valid sampler states,
joint-density oracles for every Metropolis acceptance ratio, slow reference
samplers and densities, loop references for the partition summaries, and
per-component references for the sweep steps.

The oracles deliberately reimplement every proposal density with scipy
primitives so that agreement with the package is a genuine cross-check
rather than a tautology.
"""

import csv
import dataclasses
import os
import warnings
from pathlib import Path

import numpy as np
from scipy import integrate, stats
from scipy.linalg import solve_triangular
from scipy.special import gammaln, xlogy

import selmix
from selmix import ensemble, sampler, selberg
from selmix.distributions import LOG_2PI, gamma_log_pdf
from selmix.ensemble import GeParams, ge_log_density
from selmix.model import Hyperparams, MixtureState, log_complete_joint, weight_prior_log_density


def child_env(**overrides):
    """The environment for a child interpreter that imports this checkout's
    selmix: its src directory leads PYTHONPATH, whatever is installed."""
    src = str(Path(selmix.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **overrides)


# ---------------------------------------------------------------------------
# Monte Carlo error bars
# ---------------------------------------------------------------------------

def batch_means_se(x, n_batches=25):
    """Standard error of the mean of a (possibly correlated) sequence."""
    x = np.asarray(x, dtype=float)
    usable = (x.size // n_batches) * n_batches
    batches = x[:usable].reshape(n_batches, -1).mean(axis=1)
    return batches.std(ddof=1) / np.sqrt(n_batches)


def moment_z_scores(x, true_mean, true_var, n_batches=25):
    """Z-scores of the sample mean and of the centered second moment.

    The variance comparison centers at the exact mean, so the statistic
    (x - true_mean)^2 has expectation exactly true_var and its own batch
    means give a valid error bar.
    """
    x = np.asarray(x, dtype=float)
    z_mean = (x.mean() - true_mean) / batch_means_se(x, n_batches)
    sq = (x - true_mean) ** 2
    z_var = (sq.mean() - true_var) / batch_means_se(sq, n_batches)
    return z_mean, z_var


# ---------------------------------------------------------------------------
# quadrature oracles
# ---------------------------------------------------------------------------

def selberg_constant_quad_m3(alpha, gamma, weight=None):
    """Adaptive nested quadrature of the three-part simplex integral.

    Integrates w1^(a-1) w2^(a-1) (1-w1-w2)^(a-1) |w1-w2|^(2g) over the
    open simplex; ``weight`` optionally multiplies the integrand by a
    function of (w1, w2, w3) to produce moment integrals.
    """

    def inner(w1):
        def f(w2):
            w3 = 1.0 - w1 - w2
            val = (w1 ** (alpha - 1.0) * w2 ** (alpha - 1.0)
                   * w3 ** (alpha - 1.0) * abs(w1 - w2) ** (2.0 * gamma))
            if weight is not None:
                val *= weight(w1, w2, w3)
            return val

        top = 1.0 - w1
        points = [w1] if 0.0 < w1 < top else None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(f, 0.0, top, points=points,
                                    epsabs=0.0, epsrel=1e-9, limit=300)
        return val

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(inner, 0.0, 1.0,
                                epsabs=0.0, epsrel=1e-9, limit=300)
    return val


def ensemble_constant_quad_m2(zeta):
    """Direct double integral of exp(-zeta*(x^2+y^2)/2) |x-y|^zeta.

    The integrand is symmetric in x and y, so it is integrated over y < x and
    doubled: the kink of |x - y| then lies on the inner integral's boundary.
    """

    def f(y, x):
        return np.exp(-0.5 * zeta * (x * x + y * y)) * (x - y) ** zeta

    val, _ = integrate.dblquad(f, -np.inf, np.inf, -np.inf, lambda x: x,
                               epsabs=1e-12, epsrel=1e-10)
    return 2.0 * val


# ---------------------------------------------------------------------------
# random sampler states
# ---------------------------------------------------------------------------

def random_hyper(rng, dim, zeta_mode="fixed", gamma_fixed=None,
                 birth_death="reversible"):
    hyper = Hyperparams(
        alpha0=float(rng.uniform(0.5, 2.0)),
        lam=float(rng.uniform(1.0, 4.0)),
        gamma_fixed=gamma_fixed,
        gamma_shape=float(rng.uniform(1.5, 4.0)),
        gamma_rate=float(rng.uniform(1.0, 3.0)),
        zeta_mode=zeta_mode,
        zeta_fixed=float(rng.uniform(0.2, 2.0)),
        zeta_shape=float(rng.uniform(1.5, 4.0)),
        zeta_rate=float(rng.uniform(1.0, 3.0)),
        rho=float(rng.uniform(0.3, 3.0)),
        q_birth=float(rng.uniform(0.3, 0.7)),
        birth_death=birth_death,
    )
    return hyper.resolved(dim)


def random_state(rng, m, dim, n, gamma=None, zeta=None, force_empty=None):
    """A structurally valid state with every label in range.

    ``force_empty`` lists component indices that must stay non-allocated;
    remaining observations spread over the other components so that death
    moves and refresh moves have well-defined targets.
    """
    gamma = float(rng.uniform(0.1, 2.0)) if gamma is None else float(gamma)
    zeta = float(rng.uniform(0.2, 2.0)) if zeta is None else float(zeta)
    weights = rng.dirichlet(np.full(m, 2.0))
    mus = rng.normal(0.0, 2.0, size=(m, dim))
    sigmas = np.empty((m, dim, dim))
    for j in range(m):
        a = rng.normal(size=(dim, dim))
        sigmas[j] = a @ a.T + 0.5 * np.eye(dim)
    if n:
        allowed = [j for j in range(m) if not (force_empty and j in force_empty)]
        alloc = rng.choice(allowed, size=n).astype(np.int64)
    else:
        alloc = np.empty(0, dtype=np.int64)
    state = MixtureState(m=m, weights=weights, mus=mus, sigmas=sigmas,
                         alloc=alloc, gamma=gamma, zeta=zeta)
    validate_state(state)
    return state


def validate_state(state):
    """Raise ValueError on any broken structural invariant of a MixtureState."""
    if state.m < 1:
        raise ValueError("m must be >= 1")
    if state.weights.shape != (state.m,):
        raise ValueError("weights length must equal m")
    if abs(state.weights.sum() - 1.0) > 1e-12 or np.any(state.weights < 0.0):
        raise ValueError("weights must lie on the simplex")
    if state.mus.shape != (state.m, state.dim):
        raise ValueError("mus must have shape (m, d)")
    if state.sigmas.shape != (state.m, state.dim, state.dim):
        raise ValueError("sigmas must have shape (m, d, d)")
    for sig in state.sigmas:
        np.linalg.cholesky(sig)
    if state.alloc.size and (state.alloc.min() < 0 or state.alloc.max() >= state.m):
        raise ValueError("alloc entries must lie in 0..m-1")
    if not (state.gamma >= 0.0 and state.zeta > 0.0):
        raise ValueError("gamma must be >= 0 and zeta > 0")


def replace_state(state, **kwargs):
    return dataclasses.replace(state, **kwargs)


# ---------------------------------------------------------------------------
# joint-density oracles for the acceptance ratios
# ---------------------------------------------------------------------------

def _delta_joint(y, old, new, hyper):
    return log_complete_joint(y, new, hyper) - log_complete_joint(y, old, hyper)


def oracle_mean_rw(y, state, hyper, j, d, mu_new):
    """Symmetric random walk: the ratio is the raw joint-density change."""
    mus = state.mus.copy()
    mus[j, d] = mu_new
    return _delta_joint(y, state, replace_state(state, mus=mus), hyper)


def oracle_mean_refresh(y, state, hyper, j, d, mu_new, proposal_sd):
    mus = state.mus.copy()
    mus[j, d] = mu_new
    delta = _delta_joint(y, state, replace_state(state, mus=mus), hyper)
    return (delta
            + stats.norm.logpdf(state.mus[j, d], 0.0, proposal_sd)
            - stats.norm.logpdf(mu_new, 0.0, proposal_sd))


def oracle_weights(y, state, hyper, w_new):
    alpha_post = hyper.alpha0 + state.counts()
    delta = _delta_joint(y, state, replace_state(state, weights=w_new), hyper)
    return (delta
            + stats.dirichlet.logpdf(state.weights, alpha_post)
            - stats.dirichlet.logpdf(w_new, alpha_post))


def oracle_gamma(y, state, hyper, gamma_new):
    delta = _delta_joint(y, state, replace_state(state, gamma=gamma_new), hyper)
    return delta + np.log(gamma_new) - np.log(state.gamma)


def oracle_zeta(y, state, hyper, zeta_new):
    delta = _delta_joint(y, state, replace_state(state, zeta=zeta_new), hyper)
    return delta + np.log(zeta_new) - np.log(state.zeta)


def oracle_tied(y, state, hyper, gamma_new):
    new = replace_state(state, gamma=gamma_new, zeta=hyper.rho * gamma_new)
    delta = _delta_joint(y, state, new, hyper)
    return delta + np.log(gamma_new) - np.log(state.gamma)


def oracle_birth(y, state, hyper, slot, w_new, mu_new, sigma_new, forced):
    """Joint change plus the full forward/reverse proposal correction."""
    counts = state.counts()
    m_na = state.m - int((counts > 0).sum())
    alpha_post = hyper.alpha0 + counts.astype(float)

    alloc = state.alloc.copy()
    alloc[alloc >= slot] += 1
    new = MixtureState(
        m=state.m + 1, weights=np.asarray(w_new, dtype=float),
        mus=np.insert(state.mus, slot, mu_new, axis=0),
        sigmas=np.insert(state.sigmas, slot, sigma_new, axis=0),
        alloc=alloc, gamma=state.gamma, zeta=state.zeta,
    )
    delta = _delta_joint(y, state, new, hyper)

    log_fwd = 0.0 if forced else np.log(hyper.q_birth)
    if hyper.birth_death == "reversible":
        log_fwd -= np.log(state.m + 1.0)
    log_fwd += stats.dirichlet.logpdf(w_new, np.insert(alpha_post, slot, hyper.alpha0))
    log_fwd += stats.norm.logpdf(mu_new, 0.0, 1.0 / np.sqrt(state.zeta)).sum()
    log_fwd += stats.invwishart.logpdf(sigma_new, df=hyper.nu0, scale=hyper.v0)

    log_rev = np.log1p(-hyper.q_birth) - np.log(m_na + 1.0)
    log_rev += stats.dirichlet.logpdf(state.weights, alpha_post)
    return delta + log_rev - log_fwd


def oracle_death(y, state, hyper, j, w_hat):
    counts = state.counts()
    m_na = state.m - int((counts > 0).sum())
    alpha_post = hyper.alpha0 + counts.astype(float)

    alloc = state.alloc.copy()
    alloc[alloc > j] -= 1
    new = MixtureState(
        m=state.m - 1, weights=np.asarray(w_hat, dtype=float),
        mus=np.delete(state.mus, j, axis=0),
        sigmas=np.delete(state.sigmas, j, axis=0),
        alloc=alloc, gamma=state.gamma, zeta=state.zeta,
    )
    delta = _delta_joint(y, state, new, hyper)

    log_fwd = np.log1p(-hyper.q_birth) - np.log(m_na)
    log_fwd += stats.dirichlet.logpdf(w_hat, np.delete(alpha_post, j))

    reverse_forced = m_na == 1
    log_rev = 0.0 if reverse_forced else np.log(hyper.q_birth)
    if hyper.birth_death == "reversible":
        log_rev -= np.log(state.m)
    log_rev += stats.dirichlet.logpdf(state.weights, alpha_post)
    log_rev += stats.norm.logpdf(state.mus[j], 0.0, 1.0 / np.sqrt(state.zeta)).sum()
    log_rev += stats.invwishart.logpdf(state.sigmas[j], df=hyper.nu0, scale=hyper.v0)
    return delta + log_rev - log_fwd


# ---------------------------------------------------------------------------
# loop references for the partition summaries
# ---------------------------------------------------------------------------

def posterior_similarity_loop(trace):
    """Co-allocation frequencies from one n x n comparison per draw."""
    n = trace.n_obs
    sim = np.zeros((n, n))
    for row in trace.alloc:
        sim += row[:, None] == row[None, :]
    sim /= trace.n_samples
    return sim


def canonical_labels_loop(alloc):
    """First-appearance relabelling of one allocation vector, label by label."""
    order = {}
    out = np.empty(len(alloc), dtype=np.int64)
    for i, lab in enumerate(np.asarray(alloc).tolist()):
        out[i] = order.setdefault(lab, len(order))
    return out


def binder_loss_dense(alloc, sim):
    """Pairwise squared loss summed over the upper triangle of dense n x n arrays."""
    alloc = np.asarray(alloc)
    eq = (alloc[:, None] == alloc[None, :]).astype(float)
    iu = np.triu_indices(alloc.size, 1)
    return float(((eq - sim)[iu] ** 2).sum())


def binder_estimate_scan(trace, sim):
    """Score each distinct sampled partition with binder_loss_dense, in draw
    order; a strictly smaller loss replaces the current choice."""
    seen = {}
    for idx, row in enumerate(trace.alloc):
        seen.setdefault(canonical_labels_loop(row).tobytes(), idx)
    best_idx, best_loss = None, np.inf
    for idx in sorted(seen.values()):
        loss = binder_loss_dense(trace.alloc[idx], sim)
        if loss < best_loss:
            best_idx, best_loss = idx, loss
    return trace.alloc[best_idx].copy()


def binder_estimate_exact(trace):
    """Earliest draw minimizing the loss against the trace's own PSM, in
    integers: T^2 times the loss is sum_{i<j} (T * same_ij - count_ij)^2."""
    t = trace.n_samples
    same = [row[:, None] == row[None, :] for row in trace.alloc]
    counts = sum(s.astype(np.int64) for s in same)
    iu = np.triu_indices(trace.n_obs, 1)
    losses = [int(((t * s.astype(np.int64) - counts)[iu] ** 2).sum()) for s in same]
    return trace.alloc[int(np.argmin(losses))].copy()


def write_matrix_csv_repr(path, mat):
    """The PSM file format: csv rows of ``repr(float(v))`` cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.atleast_2d(np.asarray(mat)):
            writer.writerow([repr(float(v)) for v in row])


# ---------------------------------------------------------------------------
# slow reference samplers and densities
# ---------------------------------------------------------------------------

def dirichlet_log_pdf(w, alpha):
    """Dirichlet log density; valid for any dimension >= 1."""
    w = np.asarray(w, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if w.shape != alpha.shape:
        raise ValueError("weight and concentration vectors must match in length")
    return float(gammaln(alpha.sum()) - gammaln(alpha).sum() + xlogy(alpha - 1.0, w).sum())


def sample_ge_mh(params, n, rng, burn_in=2000, thin=5, proposal_sd=None):
    """Reference sampler: independence MH with wide Gaussian proposals.

    A slow oracle for validating the tridiagonal construction; the
    proposal is i.i.d. N(0, s^2) per coordinate with s^2 = 2*M + 2/zeta by
    default, which covers the ensemble bulk and dominates its tails.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    z, m = params.zeta, params.m
    if proposal_sd is None:
        proposal_sd = np.sqrt(2.0 * m + 2.0 / z)
    total = burn_in + n * thin
    proposals = proposal_sd * rng.standard_normal((total, m))

    # log target (unnormalized) minus log proposal, vectorized per draw
    sq = (proposals * proposals).sum(axis=1)
    gaps = np.zeros(total)
    with np.errstate(divide="ignore"):
        for i in range(m - 1):
            for j in range(i + 1, m):
                gaps += np.log(np.abs(proposals[:, i] - proposals[:, j]))
    log_ratio = (-0.5 * z * sq + z * gaps + 0.5 * sq / proposal_sd**2).tolist()
    log_u = np.log(rng.random(total)).tolist()

    out = np.empty((n, m))
    cur_idx = -1
    cur = -np.inf
    kept = 0
    for t in range(total):
        if log_u[t] < log_ratio[t] - cur:
            cur_idx = t
            cur = log_ratio[t]
        if t >= burn_in and (t - burn_in) % thin == thin - 1:
            out[kept] = proposals[cur_idx]
            kept += 1
    return out


# ---------------------------------------------------------------------------
# per-component references for the sweep steps
#
# The sweep batches its factorisations, groups points by one sort and
# caches closed-form constants.  These are the straightforward versions it
# replaced: one density, one slice and one inverse-Wishart draw per
# component, and constants recomputed on every call.  The fast code must
# match them bit for bit and leave the generator in the same state.  The
# separate gamma, zeta and tied scale moves, and the death ratio spelled out
# term by term, are the code that the single scale move and the death ratio
# taken from the birth ratio replaced.  The single-matrix Bartlett draw is
# the code that the stacked draw replaced, and the Selberg density is a
# frozen copy of the package's arithmetic; the no-data start draws its
# prior covariances one at a time.
# ---------------------------------------------------------------------------

def sample_invwishart_ref(rng, scale, df):
    scale = np.asarray(scale, dtype=float)
    d = scale.shape[0]
    if df <= d - 1:
        raise ValueError("degrees of freedom must exceed dim - 1")
    chol_prec = np.linalg.cholesky(np.linalg.inv(scale))
    bart = np.zeros((d, d))
    diag_df = df - np.arange(d)
    bart[np.diag_indices(d)] = np.sqrt(rng.chisquare(diag_df))
    if d > 1:
        bart[np.tril_indices(d, -1)] = rng.standard_normal(d * (d - 1) // 2)
    root = chol_prec @ bart
    wishart = root @ root.T
    sigma = np.linalg.inv(wishart)
    return 0.5 * (sigma + sigma.T)


def sdir_log_density_ref(w, params):
    w = selberg.validate_weights(w, params.m)
    if params.gamma > 0.0:
        repulsion = 2.0 * params.gamma * selberg.pairwise_log_gap_sum(w[:-1])
        if repulsion == -np.inf:
            return -np.inf
    else:
        repulsion = 0.0
    kernel = xlogy(params.alpha - 1.0, w).sum()
    return float(kernel + repulsion - selberg.sdir_log_norm_const(params))


def pairwise_log_gap_sum_ref(values):
    vals = np.asarray(values, dtype=float)
    k = vals.shape[0]
    if k < 2:
        return 0.0
    gaps = np.abs(vals[:, None] - vals[None, :])[np.triu_indices(k, 1)]
    if np.any(gaps == 0.0):
        return -np.inf
    return float(np.log(gaps).sum())


def sdir_log_norm_const_ref(params):
    a, g, m = params.alpha, params.gamma, params.m
    total = gammaln(a) - gammaln(m * a + g * (m - 1) * (m - 2))
    for j in range(1, m):
        total += gammaln(a + (j - 1) * g) + gammaln(1.0 + j * g) - gammaln(1.0 + g)
    return float(total)


def ge_log_norm_const_ref(params):
    z, m = params.zeta, params.m
    total = (-0.5 * m - 0.25 * z * m * (m - 1)) * np.log(z) + 0.5 * m * LOG_2PI
    for j in range(1, m + 1):
        total += gammaln(1.0 + 0.5 * j * z) - gammaln(1.0 + 0.5 * z)
    return float(total)


def gaussian_log_pdf(y, mean, cov):
    """Multivariate normal log density for every row of ``y``.

    Parameters
    ----------
    y : array of shape (n, d)
    mean : array of shape (d,)
    cov : SPD array of shape (d, d)

    Returns
    -------
    array of shape (n,)
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    d = y.shape[1]
    chol = np.linalg.cholesky(np.asarray(cov, dtype=float))
    resid = y - np.asarray(mean, dtype=float)
    z = solve_triangular(chol, resid.T, lower=True)
    return -0.5 * (z * z).sum(axis=0) - np.log(np.diag(chol)).sum() - 0.5 * d * LOG_2PI


def component_log_pdfs_ref(y, state):
    out = np.empty((y.shape[0], state.m))
    for j in range(state.m):
        out[:, j] = gaussian_log_pdf(y, state.mus[j], state.sigmas[j])
    return out


def update_allocations_ref(y, state, rng):
    out = state.copy()
    if state.n_obs == 0:
        return out
    with np.errstate(divide="ignore"):
        log_p = component_log_pdfs_ref(y, state) + np.log(state.weights)[None, :]
    gumbel = rng.gumbel(size=log_p.shape)
    out.alloc = np.argmax(log_p + gumbel, axis=1).astype(np.int64)
    return out


def coord_ge_log_ratio_ref(column, j, new, zeta):
    old = column[j]
    others = np.delete(column, j)
    term = 0.0
    if others.size:
        new_gaps = np.abs(others - new)
        if np.any(new_gaps == 0.0):
            return -np.inf
        with np.errstate(divide="ignore"):
            term = float(np.log(new_gaps).sum() - np.log(np.abs(others - old)).sum())
    return zeta * term - 0.5 * zeta * (new * new - old * old)


def mean_rw_log_accept_ref(state, j, d, mu_new, points):
    la = coord_ge_log_ratio_ref(state.mus[:, d], j, mu_new, state.zeta)
    if la == -np.inf or points is None or len(points) == 0:
        return la
    n = points.shape[0]
    h = mu_new - state.mus[j, d]
    resid_sum = points.sum(axis=0) - n * state.mus[j]
    rhs = np.zeros((state.dim, 2))
    rhs[:, 0] = resid_sum
    rhs[d, 1] = 1.0
    solved = np.linalg.solve(state.sigmas[j], rhs)
    la += h * solved[d, 0] - 0.5 * n * h * h * solved[d, 1]
    return float(la)


def mean_refresh_log_accept_ref(state, j, d, mu_new, proposal_sd):
    la = coord_ge_log_ratio_ref(state.mus[:, d], j, mu_new, state.zeta)
    if la == -np.inf:
        return la
    old = state.mus[j, d]
    return float(la + 0.5 * (mu_new * mu_new - old * old) / proposal_sd**2)


def update_means_ref(y, state, rng, step_mu):
    out = state.copy()
    rw_sd = np.sqrt(step_mu)
    refresh_sd = np.sqrt(2.0 * out.m + 1.0 / out.zeta)
    counts = out.counts()
    rw_acc = rw_att = ref_acc = ref_att = 0
    for j in range(out.m):
        if counts[j]:
            points = y[out.alloc == j]
            for d in range(out.dim):
                prop = out.mus[j, d] + rw_sd * rng.standard_normal()
                la = mean_rw_log_accept_ref(out, j, d, prop, points)
                rw_att += 1
                if np.log(rng.random()) < la:
                    out.mus[j, d] = prop
                    rw_acc += 1
        else:
            for d in range(out.dim):
                prop = refresh_sd * rng.standard_normal()
                la = mean_refresh_log_accept_ref(out, j, d, prop, refresh_sd)
                ref_att += 1
                if np.log(rng.random()) < la:
                    out.mus[j, d] = prop
                    ref_acc += 1
    return out, (rw_acc, rw_att, ref_acc, ref_att)


def update_covariances_ref(y, state, hyper, rng):
    out = state.copy()
    counts = out.counts()
    for j in range(out.m):
        if counts[j]:
            resid = y[out.alloc == j] - out.mus[j]
            scale = resid.T @ resid + hyper.v0
            scale = 0.5 * (scale + scale.T)
            df = hyper.nu0 + counts[j]
        else:
            scale = hyper.v0
            df = hyper.nu0
        out.sigmas[j] = sample_invwishart_ref(rng, scale, df)
    return out


def initial_state_ref(y, hyper, rng):
    """The start without data (``y`` has no rows)."""
    dim = y.shape[1]
    gamma0 = hyper.gamma_fixed if not hyper.gamma_free else hyper.gamma_shape / hyper.gamma_rate
    if hyper.zeta_mode == "fixed":
        zeta0 = hyper.zeta_fixed
    elif hyper.zeta_mode == "gamma":
        zeta0 = hyper.zeta_shape / hyper.zeta_rate
    else:
        zeta0 = hyper.rho * gamma0
    m0 = 1 + int(rng.poisson(hyper.lam))
    mus = np.empty((m0, dim))
    for d in range(dim):
        mus[:, d] = ensemble.sample_ge(GeParams(zeta0, m0), 1, rng)[0]
    sigmas = np.stack([sample_invwishart_ref(rng, hyper.v0, hyper.nu0) for _ in range(m0)])
    while True:
        weights = rng.dirichlet(np.full(m0, hyper.alpha0))
        if gamma0 == 0.0 or pairwise_log_gap_sum_ref(weights[:-1]) > -np.inf:
            break
    return MixtureState(
        m=m0, weights=weights, mus=mus, sigmas=sigmas, alloc=np.empty(0, dtype=np.int64),
        gamma=float(gamma0), zeta=float(zeta0),
    )


def gamma_log_accept_ref(state, hyper, gamma_new):
    if gamma_new <= 0.0:
        return -np.inf
    a0 = hyper.alpha0
    la = weight_prior_log_density(state.weights, a0, gamma_new, state.m)
    la -= weight_prior_log_density(state.weights, a0, state.gamma, state.m)
    la += gamma_log_pdf(gamma_new, hyper.gamma_shape, hyper.gamma_rate)
    la -= gamma_log_pdf(state.gamma, hyper.gamma_shape, hyper.gamma_rate)
    return float(la + np.log(gamma_new) - np.log(state.gamma))


def zeta_log_accept_ref(state, hyper, zeta_new):
    if zeta_new <= 0.0:
        return -np.inf
    la = 0.0
    new_params = GeParams(zeta_new, state.m)
    old_params = GeParams(state.zeta, state.m)
    for d in range(state.dim):
        column = state.mus[:, d]
        la += ge_log_density(column, new_params) - ge_log_density(column, old_params)
    la += gamma_log_pdf(zeta_new, hyper.zeta_shape, hyper.zeta_rate)
    la -= gamma_log_pdf(state.zeta, hyper.zeta_shape, hyper.zeta_rate)
    return float(la + np.log(zeta_new) - np.log(state.zeta))


def tied_gamma_log_accept_ref(state, hyper, gamma_new):
    if gamma_new <= 0.0:
        return -np.inf
    zeta_new = hyper.rho * gamma_new
    la = 0.0
    new_params = GeParams(zeta_new, state.m)
    old_params = GeParams(state.zeta, state.m)
    for d in range(state.dim):
        column = state.mus[:, d]
        la += ge_log_density(column, new_params) - ge_log_density(column, old_params)
    a0 = hyper.alpha0
    la += weight_prior_log_density(state.weights, a0, gamma_new, state.m)
    la -= weight_prior_log_density(state.weights, a0, state.gamma, state.m)
    la += gamma_log_pdf(gamma_new, hyper.gamma_shape, hyper.gamma_rate)
    la -= gamma_log_pdf(state.gamma, hyper.gamma_shape, hyper.gamma_rate)
    return float(la + np.log(gamma_new) - np.log(state.gamma))


def update_gamma_ref(state, hyper, rng, step_gamma):
    if state.gamma <= 0.0:
        raise sampler.SamplerError("gamma updates require a positive current value")
    out = state.copy()
    prop = out.gamma * np.exp(np.sqrt(step_gamma) * rng.standard_normal())
    accepted = np.log(rng.random()) < gamma_log_accept_ref(out, hyper, prop)
    if accepted:
        out.gamma = prop
    return out, bool(accepted)


def update_zeta_full_conditional_ref(state, hyper, rng, step_gamma):
    out = state.copy()
    prop = out.zeta * np.exp(np.sqrt(step_gamma) * rng.standard_normal())
    accepted = np.log(rng.random()) < zeta_log_accept_ref(out, hyper, prop)
    if accepted:
        out.zeta = prop
    return out, bool(accepted)


def update_gamma_ratio_tied_ref(state, hyper, rng, step_gamma):
    if state.gamma <= 0.0:
        raise sampler.SamplerError("gamma updates require a positive current value")
    out = state.copy()
    prop = out.gamma * np.exp(np.sqrt(step_gamma) * rng.standard_normal())
    accepted = np.log(rng.random()) < tied_gamma_log_accept_ref(out, hyper, prop)
    if accepted:
        out.gamma = prop
        out.zeta = hyper.rho * prop
    return out, bool(accepted)


def update_scale_ref(state, hyper, rng, key, step_gamma):
    """The separate gamma, zeta and tied updates ``update_scale`` replaced,
    picked by the walked scale and the zeta mode."""
    if key == "zeta":
        return update_zeta_full_conditional_ref(state, hyper, rng, step_gamma)
    if hyper.zeta_mode == "ratio":
        return update_gamma_ratio_tied_ref(state, hyper, rng, step_gamma)
    return update_gamma_ref(state, hyper, rng, step_gamma)


def repulsion_log_ratio_ref(gamma, w_num, w_den):
    if gamma == 0.0:
        return 0.0
    num = pairwise_log_gap_sum_ref(np.asarray(w_num, dtype=float)[:-1])
    if num == -np.inf:
        return -np.inf
    den = pairwise_log_gap_sum_ref(np.asarray(w_den, dtype=float)[:-1])
    if den == -np.inf:
        return np.inf
    return 2.0 * gamma * (num - den)


def birth_log_accept_ref(state, hyper, w_new, mu_new, forced):
    m, dim = state.m, state.dim
    counts = state.counts()
    m_na = m - int((counts > 0).sum())
    g, z, a0 = state.gamma, state.zeta, hyper.alpha0
    sdir, ge = selberg.SdirParams, ensemble.GeParams

    la = np.log(hyper.lam) - np.log(m)
    la += sdir_log_norm_const_ref(sdir(a0, g, m)) - sdir_log_norm_const_ref(sdir(a0, g, m + 1))
    rep = repulsion_log_ratio_ref(g, w_new, state.weights)
    if rep == -np.inf:
        return -np.inf
    la += rep
    la += dim * (ge_log_norm_const_ref(ge(z, m)) - ge_log_norm_const_ref(ge(z, m + 1)))
    cross = np.abs(state.mus - mu_new[None, :])
    if np.any(cross == 0.0):
        return -np.inf
    la += z * float(np.log(cross).sum())
    la += np.log1p(-hyper.q_birth)
    if not forced:
        la -= np.log(hyper.q_birth)
    la -= np.log(m_na + 1.0)
    if hyper.birth_death == "reversible":
        la += np.log(m + 1.0)
    conc_total = m * a0 + counts.sum()
    la += gammaln(a0) + gammaln(conc_total) - gammaln(conc_total + a0)
    la += 0.5 * dim * (LOG_2PI - np.log(z))
    return float(la)


def death_log_accept_ref(state, hyper, j, w_hat):
    m, dim = state.m, state.dim
    if m == 1:
        return -np.inf
    counts = state.counts()
    if counts[j]:
        raise ValueError("death move targets a non-allocated component")
    m_na = m - int((counts > 0).sum())
    g, z, a0 = state.gamma, state.zeta, hyper.alpha0
    sdir, ge = selberg.SdirParams, ensemble.GeParams

    la = np.log(m - 1.0) - np.log(hyper.lam)
    la += sdir_log_norm_const_ref(sdir(a0, g, m)) - sdir_log_norm_const_ref(sdir(a0, g, m - 1))
    rep = repulsion_log_ratio_ref(g, w_hat, state.weights)
    if rep == -np.inf:
        return -np.inf
    la += rep
    la += dim * (ge_log_norm_const_ref(ge(z, m)) - ge_log_norm_const_ref(ge(z, m - 1)))
    cross = np.abs(np.delete(state.mus, j, axis=0) - state.mus[j][None, :])
    with np.errstate(divide="ignore"):
        la -= z * float(np.log(cross).sum())
    if m_na > 1:
        la += np.log(hyper.q_birth)
    la -= np.log1p(-hyper.q_birth)
    la += np.log(m_na)
    if hyper.birth_death == "reversible":
        la -= np.log(m)
    conc_total = m * a0 + counts.sum()
    la += gammaln(conc_total) - gammaln(a0) - gammaln(conc_total - a0)
    la -= 0.5 * dim * (LOG_2PI - np.log(z))
    return float(la)


def birth_death_step_ref(y, state, hyper, rng):
    counts = state.counts()
    m_na = state.m - int((counts > 0).sum())
    forced = m_na == 0
    alpha_post = hyper.alpha0 + counts
    if forced or rng.random() < hyper.q_birth:
        if hyper.birth_death == "reversible":
            slot = int(rng.integers(state.m + 1))
        else:
            slot = state.m
        w_new = rng.dirichlet(np.insert(alpha_post, slot, hyper.alpha0))
        mu_new = rng.normal(0.0, 1.0 / np.sqrt(state.zeta), size=state.dim)
        sigma_new = sample_invwishart_ref(rng, hyper.v0, hyper.nu0)
        la = birth_log_accept_ref(state, hyper, w_new, mu_new, forced)
        if np.log(rng.random()) < la:
            alloc = state.alloc.copy()
            alloc[alloc >= slot] += 1
            state = MixtureState(
                m=state.m + 1, weights=w_new,
                mus=np.insert(state.mus, slot, mu_new, axis=0),
                sigmas=np.insert(state.sigmas, slot, sigma_new, axis=0),
                alloc=alloc, gamma=state.gamma, zeta=state.zeta,
            )
            return state, "birth", True
        return state.copy(), "birth", False

    candidates = np.flatnonzero(counts == 0)
    j = int(candidates[rng.integers(candidates.size)])
    w_hat = rng.dirichlet(np.delete(alpha_post, j))
    la = death_log_accept_ref(state, hyper, j, w_hat)
    if np.log(rng.random()) < la:
        alloc = state.alloc.copy()
        alloc[alloc > j] -= 1
        state = MixtureState(
            m=state.m - 1, weights=w_hat,
            mus=np.delete(state.mus, j, axis=0),
            sigmas=np.delete(state.sigmas, j, axis=0),
            alloc=alloc, gamma=state.gamma, zeta=state.zeta,
        )
        return state, "death", True
    return state.copy(), "death", False


def reference_sweep_patches():
    """(module, name, reference) triples that turn ``run_sampler`` into the
    reference chain: every step and constant the fast sweep changed is
    swapped for its per-component, uncached version, in each namespace the
    sweep reaches it through."""
    return [
        (sampler, "update_allocations", update_allocations_ref),
        (sampler, "update_means", update_means_ref),
        (sampler, "update_covariances", update_covariances_ref),
        (sampler, "update_scale", update_scale_ref),
        (sampler, "birth_death_step", birth_death_step_ref),
        (sampler, "pairwise_log_gap_sum", pairwise_log_gap_sum_ref),
        (selberg, "pairwise_log_gap_sum", pairwise_log_gap_sum_ref),
        (ensemble, "pairwise_log_gap_sum", pairwise_log_gap_sum_ref),
        (sampler, "sdir_log_norm_const", sdir_log_norm_const_ref),
        (selberg, "sdir_log_norm_const", sdir_log_norm_const_ref),
        (sampler, "ge_log_norm_const", ge_log_norm_const_ref),
        (ensemble, "ge_log_norm_const", ge_log_norm_const_ref),
    ]
