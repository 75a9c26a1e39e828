"""Trans-dimensional Gibbs/Metropolis sampler for the repulsive mixture.

One sweep visits, in order: allocations, component means, component
covariances, mixture weights, the repulsion scales, and a birth-death
move on non-allocated components.  ``sweep`` states that order once;
``run_sampler`` loops over it, and the test suite's Geweke simulation, which
redraws the data between sweeps, calls it directly.  gamma and zeta share
one log-normal move, ``update_scale`` with ratio ``scale_log_accept``; under
the ratio mode zeta follows rho * gamma.  Every Metropolis step has its log
acceptance ratio factored into a pure function of (state, proposal) so that
each ratio can be verified against the complete joint density; the sweep
steps only draw proposals and apply the accept/reject coin.

Birth inserts the new component at a uniformly chosen slot; death removes a
uniformly chosen non-allocated component and shifts higher labels down, so
allocated components never change identity.  Every death path is the exact
reverse of a birth path (and vice versa), which keeps the move reversible
even though the weight prior is not exchangeable, and the death ratio is
minus the ratio of that reverse birth; an append-only birth
would leave middle-slot deaths without a reverse path and visibly distorts
the prior on the component count.

The append-only variant, ``birth_death = "append"``, is not a posterior
sampler.  It is the bookkeeping of the usual derivation of the birth and
death ratios and satisfies the same pairwise reciprocity identity, but it
is not reversible on labeled states and leaves neither the prior nor the
posterior invariant: in a successive-conditional (Geweke) simulation with
data (d = 1, n = 5, gamma = 1, 3,000 sweeps), its mean M was 2.13 against
a prior mean of 4 (z = -30.6 against 5,000 exact prior draws), a test the
reversible kernel passes.  Its sparser posteriors on the number of clusters
come from the kernel, not from the weight prior.

Each step returns ``dataclasses.replace(state, <the blocks it changed>)``,
or ``state`` itself when it changed nothing (a rejected move, or
allocations without data).  A step never writes into an array it did not
create, and the blocks it leaves unchanged are shared with its input.
Only two places write into a state's arrays: ``update_means``, into its own
copy of the means, and ``_insert_component``/``_remove_component``, into
their own copy of ``alloc``.  The data go only to the allocation step and
``_grouped_points``, which ``sweep`` calls once after it: the means and
covariance steps share that read-only grouping, and every later step and
ratio takes its counts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .analysis import PosteriorTrace
from .distributions import (
    LOG_2PI,
    bartlett_variates,
    gamma_log_pdf,
    invwishart_from_variates,
    log_gamma,
    pairwise_log_gap_sum,
    sample_invwishart,
)
from .ensemble import GeParams, ge_log_density, ge_log_norm_const, sample_ge
from .model import Hyperparams, MixtureState, allocation_log_probs, weight_prior_log_density
from .selberg import SdirParams, sdir_log_norm_const

__all__ = [
    "SamplerConfig",
    "StepDiagnostics",
    "SamplerError",
    "update_allocations",
    "update_means",
    "update_covariances",
    "update_weights",
    "update_scale",
    "scale_log_accept",
    "birth_death_step",
    "initial_state",
    "sweep",
    "run_sampler",
]

RATE_KEYS = ("means", "weights", "gamma", "zeta", "birth", "death")


class SamplerError(RuntimeError):
    """Raised when a sweep fails; the message carries the sweep index."""


@dataclass
class SamplerConfig:
    hyper: Hyperparams
    seed: int = 0
    record_weights: bool = False


@dataclass
class StepDiagnostics:
    """Acceptance bookkeeping and the final (possibly adapted) step sizes."""

    accepts: dict
    attempts: dict
    step_mu_final: float
    step_gamma_final: float

    def rate(self, key):
        """Acceptance rate of one counter; 0.0 when it was never attempted."""
        att = self.attempts.get(key, 0)
        return self.accepts.get(key, 0) / att if att else 0.0

    def acceptance_rates(self):
        return {key: self.rate(key) for key in RATE_KEYS}


# ---------------------------------------------------------------------------
# log acceptance ratios (pure functions, unit-tested against the joint)
# ---------------------------------------------------------------------------

def repulsion_log_ratio(gamma, w_num, w_den):
    """2*gamma*(exclude-last log gap sum difference) between two weight vectors."""
    if gamma == 0.0:
        return 0.0
    num = pairwise_log_gap_sum(np.asarray(w_num, dtype=float)[:-1])
    if num == -np.inf:
        return -np.inf
    den = pairwise_log_gap_sum(np.asarray(w_den, dtype=float)[:-1])
    if den == -np.inf:
        return np.inf
    return 2.0 * gamma * (num - den)


def _coord_ge_log_ratio(column, j, new, zeta):
    """Change in the (unnormalized) ensemble log density when one coordinate
    moves: -inf when the move ties another coordinate, else +inf when it
    leaves a tie.  numpy adds fewer than 8 numbers in order, and its log of
    one number has the bits of its log of an array, so fewer than 8 gaps are
    taken one by one on Python floats; 8 or more go to numpy as one array."""
    others = column.tolist()
    old = others.pop(j)
    new = float(new)
    if len(others) >= 8:
        # the gaps from the new and from the old value, one row each
        gaps = np.abs(np.subtract.outer((new, old), others))
        if np.count_nonzero(gaps) < gaps.size:
            return -np.inf if np.count_nonzero(gaps[0]) < len(others) else np.inf
        new_log_gaps, old_log_gaps = np.log(gaps).sum(axis=1)
        term = float(new_log_gaps - old_log_gaps)
    else:
        new_log_gaps = old_log_gaps = 0.0
        leaves_tie = False
        for v in others:
            new_gap, old_gap = abs(new - v), abs(old - v)
            if new_gap == 0.0:
                return -np.inf
            if old_gap == 0.0:
                leaves_tie = True
                continue
            new_log_gaps += float(np.log(new_gap))
            old_log_gaps += float(np.log(old_gap))
        if leaves_tie:
            return np.inf
        term = new_log_gaps - old_log_gaps
    return zeta * term - 0.5 * zeta * (new * new - old * old)


def mean_rw_log_accept(state, j, d, mu_new, n, point_sum, prec):
    """Random-walk move on one coordinate of an allocated component's mean.

    The ensemble prior change in dimension ``d`` plus the likelihood change
    of the ``n`` points of component ``j``, which sum to ``point_sum``:
    h (prec r)_d - n h^2 prec_dd / 2 for a step h, with ``prec`` the inverse
    covariance and r = point_sum - n mu_j.  ``point_sum`` and ``prec`` may be
    arrays or (nested) lists; the term is formed on Python floats, the dot
    product added in order, so it is exactly 0 when n = 0.
    """
    la = _coord_ge_log_ratio(state.mus[:, d], j, mu_new, state.zeta)
    mu = state.mus[j].tolist()
    h = mu_new - mu[d]
    row = prec[d]
    dot = 0.0
    for p, s, mu_k in zip(row, point_sum, mu):
        dot += p * (s - n * mu_k)
    return float(la + (h * dot - 0.5 * n * h * h * row[d]))


def mean_refresh_log_accept(state, j, d, mu_new, proposal_sd):
    """Independence refresh of a non-allocated mean coordinate from N(0, sd^2)."""
    la = _coord_ge_log_ratio(state.mus[:, d], j, mu_new, state.zeta)
    old = state.mus[j, d]
    return float(la + 0.5 * (mu_new * mu_new - old * old) / proposal_sd**2)


def weights_log_accept(state, w_new):
    """Dirichlet full-conditional proposal leaves only the repulsion ratio."""
    return repulsion_log_ratio(state.gamma, w_new, state.weights)


def scale_log_accept(state, hyper, gamma_new, zeta_new):
    """Log-normal random walk on the repulsion scales.

    A change of zeta is weighed against the per-dimension ensemble priors, a
    change of gamma against the weight prior and gamma's hyperprior; a zeta
    move alone also meets zeta's hyperprior when zeta is free.  The Jacobian
    is that of the walked scale: gamma when it changes, else zeta.  A scale
    that is not positive and finite (an overflowed walk) is rejected, and so
    is a zeta whose ensemble constant overflows.
    """
    gamma_moves = gamma_new != state.gamma
    new, old = (gamma_new, state.gamma) if gamma_moves else (zeta_new, state.zeta)
    if not (0.0 < new < np.inf and 0.0 < zeta_new < np.inf):
        return -np.inf
    la = 0.0
    if zeta_new != state.zeta:
        new_params = GeParams(zeta_new, state.m)
        old_params = GeParams(state.zeta, state.m)
        try:
            ge_log_norm_const(new_params)
        except ValueError:  # so large a zeta overflows the ensemble constant
            return -np.inf
        for d in range(state.dim):
            column = state.mus[:, d]
            la += ge_log_density(column, new_params) - ge_log_density(column, old_params)
    if gamma_moves:
        a0 = hyper.alpha0
        la += weight_prior_log_density(state.weights, a0, gamma_new, state.m)
        la -= weight_prior_log_density(state.weights, a0, state.gamma, state.m)
        la += gamma_log_pdf(gamma_new, hyper.gamma_shape, hyper.gamma_rate)
        la -= gamma_log_pdf(state.gamma, hyper.gamma_shape, hyper.gamma_rate)
    elif hyper.zeta_free:
        la += gamma_log_pdf(zeta_new, hyper.zeta_shape, hyper.zeta_rate)
        la -= gamma_log_pdf(state.zeta, hyper.zeta_shape, hyper.zeta_rate)
    return float(la + np.log(new) - np.log(old))


def birth_log_accept(state, hyper, w_new, mu_new, forced, counts):
    """Log acceptance of inserting a non-allocated component.

    ``w_new`` is the proposed (m+1)-weight vector with the newborn's entry
    already in its slot, ``mu_new`` the proposed location (one coordinate
    per dimension); the proposed covariance draws from its prior and
    cancels exactly.  ``forced`` marks the move taken with probability one
    because no non-allocated component existed.  Under the default
    reversible bookkeeping the (m+1)/(m_na+1) factor pairs the uniform
    insertion-slot choice with the reverse move's uniform victim choice;
    the append variant keeps only 1/(m_na+1).  ``counts`` are the
    allocation counts of ``state``.
    """
    return _birth_log_ratio(state.weights, state.mus, state.m - np.count_nonzero(counts),
                            state, hyper, w_new, mu_new, forced)


def _birth_log_ratio(weights, mus, m_na, state, hyper, w_new, mu_new, forced):
    """``birth_log_accept`` from a state with ``weights`` and ``mus`` in place
    of those of ``state`` (one component fewer, for a death's reverse birth)
    and ``m_na`` non-allocated components; ``state`` gives the scales and n."""
    m, dim = mus.shape
    g, z, a0 = state.gamma, state.zeta, hyper.alpha0

    la = np.log(hyper.lam) - np.log(m)
    la += sdir_log_norm_const(SdirParams(a0, g, m)) - sdir_log_norm_const(SdirParams(a0, g, m + 1))
    la += repulsion_log_ratio(g, w_new, weights)
    la += dim * (ge_log_norm_const(GeParams(z, m)) - ge_log_norm_const(GeParams(z, m + 1)))
    cross = np.abs(mus - mu_new)
    if np.count_nonzero(cross) < cross.size:
        return -np.inf
    la += z * float(np.log(cross).sum())
    la += np.log1p(-hyper.q_birth)
    if not forced:
        la -= np.log(hyper.q_birth)
    la -= np.log(m_na + 1.0)
    if hyper.birth_death == "reversible":
        la += np.log(m + 1.0)
    conc_total = m * a0 + state.n_obs
    la += log_gamma(a0) + log_gamma(conc_total) - log_gamma(conc_total + a0)
    la += 0.5 * dim * (LOG_2PI - np.log(z))
    return float(la)


def death_log_accept(state, hyper, j, w_hat, counts):
    """Log acceptance of deleting non-allocated component ``j``.

    Minus the log acceptance of the birth that undoes it: the reduced state
    (weights ``w_hat``, component ``j`` gone) regrowing component ``j`` with
    the current weights and location.  Death from a single-component state
    is impossible because the component count prior has no mass below one.
    ``counts`` are the allocation counts of ``state``.
    """
    if state.m == 1:
        return -np.inf
    if counts[j]:
        raise ValueError("death move targets a non-allocated component")
    m_na = state.m - np.count_nonzero(counts)
    mus = np.concatenate((state.mus[:j], state.mus[j + 1:]))
    return -_birth_log_ratio(w_hat, mus, m_na - 1, state, hyper, state.weights, state.mus[j],
                             m_na == 1)


def _insert_component(state, slot, weights, mu, sigma):
    """``state`` with a component inserted at ``slot``; labels from ``slot`` up shift by one."""
    alloc = state.alloc.copy()
    alloc[alloc >= slot] += 1
    return dataclasses.replace(
        state, m=state.m + 1, weights=weights, alloc=alloc,
        mus=np.concatenate((state.mus[:slot], [mu], state.mus[slot:])),
        sigmas=np.concatenate((state.sigmas[:slot], [sigma], state.sigmas[slot:])),
    )


def _remove_component(state, j, weights):
    """``state`` without component ``j``; labels above ``j`` shift down by one."""
    alloc = state.alloc.copy()
    alloc[alloc > j] -= 1
    return dataclasses.replace(
        state, m=state.m - 1, weights=weights, alloc=alloc,
        mus=np.concatenate((state.mus[:j], state.mus[j + 1:])),
        sigmas=np.concatenate((state.sigmas[:j], state.sigmas[j + 1:])),
    )


# ---------------------------------------------------------------------------
# sweep steps
# ---------------------------------------------------------------------------

def _grouped_points(y, state):
    """``(counts, groups)``: the allocation counts of ``state`` and, per
    component, the rows of ``y`` that ``y[state.alloc == j]`` selects, in the
    same order, as slices of one stably sorted copy.  ``sweep`` makes it once
    for the steps after the allocation step, which share it, so it is
    read-only.  The labels are sorted as the narrowest unsigned type that
    holds m, for which numpy's stable sort is a radix sort; a stable sort
    gives one permutation, whatever the type."""
    counts = state.counts()
    counts.flags.writeable = False
    ys = y[np.argsort(state.alloc.astype(np.min_scalar_type(state.m)), kind="stable")]
    ys.flags.writeable = False
    ends = np.cumsum(counts).tolist()
    return counts, [ys[end - c:end] for c, end in zip(counts.tolist(), ends)]


def update_allocations(y, state, rng):
    """Resample every allocation from its categorical full conditional."""
    if state.n_obs == 0:
        return state
    log_p = allocation_log_probs(y, state)
    log_p += rng.gumbel(size=log_p.shape)
    return dataclasses.replace(state, alloc=np.argmax(log_p, axis=1).astype(np.int64, copy=False))


def update_means(state, rng, step_mu, grouped):
    """Coordinate-wise Metropolis pass over all component means.

    Allocated components take Gaussian random-walk proposals with variance
    ``step_mu``; non-allocated components are refreshed by independence
    proposals from N(0, 2*m + 1/zeta), wide enough to cover the ensemble
    bulk and dominate its tails.  ``grouped`` is the sweep's
    ``_grouped_points`` of ``state``.  Returns the new state and the tuple
    (rw_accepts, rw_attempts, refresh_accepts, refresh_attempts).
    """
    counts, groups = grouped
    mus = state.mus.copy()
    out = dataclasses.replace(state, mus=mus)
    rw_sd = float(np.sqrt(step_mu))
    refresh_sd = np.sqrt(2.0 * out.m + 1.0 / out.zeta)
    precs = np.linalg.inv(out.sigmas)
    rw_acc = rw_att = ref_acc = ref_att = 0
    for j, n in enumerate(counts.tolist()):
        if n:
            # per component: its statistics as Python floats, for every coordinate
            point_sum, prec = groups[j].sum(axis=0).tolist(), precs[j].tolist()
            for d in range(out.dim):
                prop = mus.item(j, d) + rw_sd * rng.standard_normal()
                la = mean_rw_log_accept(out, j, d, prop, n, point_sum, prec)
                rw_att += 1
                if np.log(rng.random()) < la:
                    mus[j, d] = prop
                    rw_acc += 1
        else:
            for d in range(out.dim):
                prop = refresh_sd * rng.standard_normal()
                la = mean_refresh_log_accept(out, j, d, prop, refresh_sd)
                ref_att += 1
                if np.log(rng.random()) < la:
                    mus[j, d] = prop
                    ref_acc += 1
    return out, (rw_acc, rw_att, ref_acc, ref_att)


def update_covariances(state, hyper, rng, grouped):
    """Gibbs draw of every covariance from its inverse-Wishart full conditional.

    Component j draws from IW(v0 + S_j, nu0 + n_j), S_j being the scatter of
    its n_j points about its mean.  A non-allocated component has S_j = 0 and
    draws from the prior IW(v0, nu0): v0 equals its transpose exactly, so
    symmetrising the stack keeps it.  One stacked ``sample_invwishart`` call
    draws them all; a failed factorisation raises LinAlgError, which
    ``run_sampler`` reports as a SamplerError naming the sweep.  ``grouped``
    is the sweep's ``_grouped_points`` of ``state``.
    """
    counts, groups = grouped
    scales = np.empty((state.m, state.dim, state.dim))
    for s_j, points, mu in zip(scales, groups, state.mus):
        resid = points - mu
        np.matmul(resid.T, resid, out=s_j)
    scales += hyper.v0
    scales = scales + scales.transpose(0, 2, 1)
    scales *= 0.5
    return dataclasses.replace(state, sigmas=sample_invwishart(rng, scales, hyper.nu0 + counts))


def update_weights(state, hyper, rng, counts):
    """Independence proposal from Dirichlet(alpha0 + counts); repulsion decides.
    ``counts`` are ``state.counts()``."""
    w_new = rng.dirichlet(hyper.alpha0 + counts)
    if np.log(rng.random()) < weights_log_accept(state, w_new):
        return dataclasses.replace(state, weights=w_new), True
    return state, False


def update_scale(state, hyper, rng, key, step_gamma):
    """Log-normal random-walk update of one repulsion scale, ``key`` being
    "gamma" or "zeta"; under the ratio mode zeta follows rho * gamma."""
    if getattr(state, key) <= 0.0:
        raise SamplerError(f"{key} updates require a positive current value")
    prop = getattr(state, key) * np.exp(np.sqrt(step_gamma) * rng.standard_normal())
    if key == "zeta":
        gamma_new, zeta_new = state.gamma, prop
    else:
        gamma_new = prop
        zeta_new = hyper.rho * prop if hyper.zeta_mode == "ratio" else state.zeta
    if np.log(rng.random()) < scale_log_accept(state, hyper, gamma_new, zeta_new):
        return dataclasses.replace(state, gamma=gamma_new, zeta=zeta_new), True
    return state, False


def birth_death_step(state, hyper, rng, counts):
    """One birth or death proposal on the non-allocated components.

    Birth is chosen with probability q (with probability one when every
    component is allocated) and inserts the newborn at a uniformly chosen
    slot, or at the last slot under the append bookkeeping; death picks its
    victim uniformly among the non-allocated.  Weights are redrawn wholesale
    from the matching Dirichlet in both directions.  A birth draws the
    newborn's covariance from the prior IW(v0, nu0), which cancels in its
    ratio: its variates are drawn before the accept coin, in the order
    ``sample_invwishart`` draws them, and the matrix is formed only when the
    birth is kept.  ``counts`` are ``state.counts()``.  Returns (state,
    move, accepted).
    """
    forced = np.count_nonzero(counts) == state.m
    alpha_post = hyper.alpha0 + counts
    if forced or rng.random() < hyper.q_birth:
        if hyper.birth_death == "reversible":
            slot = int(rng.integers(state.m + 1))
        else:
            slot = state.m
        alpha_new = np.concatenate((alpha_post[:slot], [hyper.alpha0], alpha_post[slot:]))
        w_new = rng.dirichlet(alpha_new)
        mu_new = rng.normal(0.0, 1.0 / np.sqrt(state.zeta), size=state.dim)
        sigma_variates = bartlett_variates(rng, state.dim, hyper.nu0)
        la = birth_log_accept(state, hyper, w_new, mu_new, forced, counts)
        if np.log(rng.random()) < la:
            sigma_new = invwishart_from_variates(hyper.v0, sigma_variates)
            return _insert_component(state, slot, w_new, mu_new, sigma_new), "birth", True
        return state, "birth", False

    candidates = np.flatnonzero(counts == 0)
    j = int(candidates[rng.integers(candidates.size)])
    w_hat = rng.dirichlet(np.concatenate((alpha_post[:j], alpha_post[j + 1:])))
    la = death_log_accept(state, hyper, j, w_hat, counts)
    if np.log(rng.random()) < la:
        return _remove_component(state, j, w_hat), "death", True
    return state, "death", False


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def initial_state(y, hyper, rng):
    """Build a starting state; data-driven when observations exist, prior otherwise."""
    n, dim = y.shape
    gamma0 = hyper.gamma_fixed if not hyper.gamma_free else hyper.gamma_shape / hyper.gamma_rate
    if hyper.zeta_mode == "fixed":
        zeta0 = hyper.zeta_fixed
    elif hyper.zeta_mode == "gamma":
        zeta0 = hyper.zeta_shape / hyper.zeta_rate
    else:
        zeta0 = hyper.rho * gamma0

    if n:
        m0 = max(2, int(round(hyper.lam)))
        alloc = rng.integers(0, m0, size=n).astype(np.int64)
        idx = rng.choice(n, size=m0, replace=n < m0)
        mus = y[idx] + 0.1 * rng.standard_normal((m0, dim))
        # one point has no sample covariance; start from the prior scale
        base = np.atleast_2d(np.cov(y, rowvar=False)) + 1e-6 * np.eye(dim) if n > 1 else hyper.v0
        sigmas = np.tile(base, (m0, 1, 1))
    else:
        m0 = 1 + int(rng.poisson(hyper.lam))
        alloc = np.empty(0, dtype=np.int64)
        mus = sample_ge(GeParams(zeta0, m0), dim, rng).T
        sigmas = sample_invwishart(rng, np.tile(hyper.v0, (m0, 1, 1)), hyper.nu0)

    alpha_post = hyper.alpha0 + np.bincount(alloc, minlength=m0)
    for _ in range(1000):
        weights = rng.dirichlet(alpha_post)
        if gamma0 == 0.0 or pairwise_log_gap_sum(weights[:-1]) > -np.inf:
            break
    else:
        raise ValueError(f"alpha0 = {hyper.alpha0:g} gave tied starting weights in "
                         "1000 Dirichlet draws; use a smaller alpha0")
    return MixtureState(
        m=m0, weights=weights, mus=mus, sigmas=sigmas, alloc=alloc,
        gamma=float(gamma0), zeta=float(zeta0),
    )


def _adapted(step, accepted, attempted):
    """``step`` halved (not below 1e-6) when the acceptance rate fell below
    20%, doubled (not above 1e6) when it rose above 40%, else unchanged."""
    if attempted:
        rate = accepted / attempted
        if rate < 0.2:
            return max(step * 0.5, 1e-6)
        if rate > 0.4:
            return min(step * 2.0, 1e6)
    return step


def sweep(y, state, hyper, rng, step_mu, step_gamma):
    """One sweep: allocations, means, covariances, weights, each free scale
    (gamma first) and a birth or death move.  Returns (state, counts), where
    ``counts`` maps each counter the sweep touched to (accepts, attempts).

    Only the first step moves the allocations, so the steps after it share
    one grouping of the data and one count per component."""
    state = update_allocations(y, state, rng)
    grouped = _grouped_points(y, state)
    alloc_counts = grouped[0]
    state, means = update_means(state, rng, step_mu, grouped)  # random walk, then refresh
    state = update_covariances(state, hyper, rng, grouped)
    state, w_acc = update_weights(state, hyper, rng, alloc_counts)
    counts = {"means": means[:2], "means_refresh": means[2:], "weights": (int(w_acc), 1)}
    for key in ("gamma", "zeta"):
        if getattr(hyper, f"{key}_free"):
            state, s_acc = update_scale(state, hyper, rng, key, step_gamma)
            counts[key] = (int(s_acc), 1)
    state, move, bd_acc = birth_death_step(state, hyper, rng, alloc_counts)
    counts[move] = (int(bd_acc), 1)
    return state, counts


def run_sampler(y, config):
    """Run the full chain and return (trace, diagnostics).

    The trace holds one record per retained sample: component count, count
    of allocated components, the allocation vector, gamma and zeta, plus the
    weight vectors when ``record_weights`` is set.  Proposal scales adapt
    multiplicatively toward a 20-40% acceptance band during burn-in and are
    frozen afterwards.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError("data must be a 2-D array (n, d)")
    hyper = config.hyper.resolved(y.shape[1])
    rng = np.random.default_rng(config.seed)
    state = initial_state(y, hyper, rng)

    accepts = dict.fromkeys(RATE_KEYS + ("means_refresh",), 0)
    attempts = dict(accepts)

    step_mu = hyper.step_mu
    step_gamma = hyper.step_gamma
    # the counts at the last adaptation; the window is the change since then
    seen_accepts, seen_attempts = dict(accepts), dict(attempts)

    burn, thin, n_keep = hyper.burn_in, hyper.thin, hyper.n_samples
    trace = PosteriorTrace(
        m=np.empty(n_keep, dtype=np.int64), m_allocated=np.empty(n_keep, dtype=np.int64),
        alloc=np.empty((n_keep, y.shape[0]), dtype=np.int64),
        gamma=np.empty(n_keep), zeta=np.empty(n_keep),
        weights=[] if config.record_weights else None,
    )

    for t in range(burn + thin * n_keep):
        try:
            state, counts = sweep(y, state, hyper, rng, step_mu, step_gamma)
        except Exception as exc:
            raise SamplerError(f"sweep {t} failed: {exc}") from exc
        for key, (acc, att) in counts.items():
            accepts[key] += acc
            attempts[key] += att

        if hyper.adapt and t < burn and (t + 1) % 100 == 0:
            window = {k: (accepts[k] - seen_accepts[k], attempts[k] - seen_attempts[k])
                      for k in accepts}
            step_mu = _adapted(step_mu, *window["means"])
            # the first free scale's window; zeta's is empty when it is not free
            step_gamma = _adapted(step_gamma, *window["gamma" if hyper.gamma_free else "zeta"])
            seen_accepts, seen_attempts = dict(accepts), dict(attempts)

        i, phase = divmod(t - burn, thin)
        if t >= burn and phase == thin - 1:
            trace.m[i] = state.m
            trace.m_allocated[i] = state.m_allocated
            trace.alloc[i] = state.alloc
            trace.gamma[i] = state.gamma
            trace.zeta[i] = state.zeta
            if trace.weights is not None:
                trace.weights.append(state.weights)

    diag = StepDiagnostics(
        accepts=accepts, attempts=attempts,
        step_mu_final=step_mu, step_gamma_final=step_gamma,
    )
    return trace, diag
