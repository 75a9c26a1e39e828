"""Shared test utilities: Monte Carlo error bars, independent quadrature
oracles for the normalizing constants, random valid sampler states,
joint-density oracles for every Metropolis acceptance ratio, and loop
references for the partition summaries.

The oracles deliberately reimplement every proposal density with scipy
primitives so that agreement with the package is a genuine cross-check
rather than a tautology.
"""

import csv
import dataclasses
import warnings

import numpy as np
from scipy import integrate, stats

from selmix.model import Hyperparams, MixtureState, log_complete_joint


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
    """Direct double integral of exp(-zeta*(x^2+y^2)/2) |x-y|^zeta."""

    def f(y, x):
        return np.exp(-0.5 * zeta * (x * x + y * y)) * abs(x - y) ** zeta

    val, _ = integrate.dblquad(f, -np.inf, np.inf, -np.inf, np.inf,
                               epsabs=1e-12, epsrel=1e-10)
    return val


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
    state.validate()
    return state


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
