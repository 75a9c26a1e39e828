"""Trans-dimensional Gibbs/Metropolis sampler for the repulsive mixture.

One sweep visits, in order: allocations, component means, component
covariances, mixture weights, the repulsion scales, and a birth-death
move on non-allocated components.  gamma and zeta share one log-normal
move, ``update_scale`` with ratio ``scale_log_accept``; under the ratio
mode zeta follows rho * gamma.  Every Metropolis step has
its log acceptance ratio factored into a pure function of (state, proposal)
so that each ratio can be verified against the complete joint density; the
sweep drivers only draw proposals and apply the accept/reject coin.

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
data, its mean M was 2.17 and 2.13 against a prior mean of 4.  Its sparser
posteriors on the number of clusters come from the kernel, not from the
weight prior.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .analysis import PosteriorTrace
from .distributions import LOG_2PI, gamma_log_pdf, pairwise_log_gap_sum, sample_invwishart
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
    """Change in the (unnormalized) ensemble log density when one coordinate moves."""
    old = column[j]
    others = np.concatenate((column[:j], column[j + 1:]))
    with np.errstate(divide="ignore"):
        # -inf exactly when the move ties another coordinate
        new_log_gaps = np.log(np.abs(others - new)).sum()
        if new_log_gaps == -np.inf:
            return -np.inf
        term = float(new_log_gaps - np.log(np.abs(others - old)).sum())
    return zeta * term - 0.5 * zeta * (new * new - old * old)


def mean_rw_log_accept(state, j, d, mu_new, n, point_sum, prec):
    """Random-walk move on one coordinate of an allocated component's mean.

    The ensemble prior change in dimension ``d`` plus the likelihood change
    of the ``n`` points of component ``j``, which sum to ``point_sum``:
    h (prec r)_d - n h^2 prec_dd / 2 for a step h, with ``prec`` the inverse
    covariance and r = point_sum - n mu_j.
    """
    la = _coord_ge_log_ratio(state.mus[:, d], j, mu_new, state.zeta)
    h = mu_new - state.mus[j, d]
    resid_sum = point_sum - n * state.mus[j]
    la += h * (prec[d] @ resid_sum) - 0.5 * n * h * h * prec[d, d]
    return float(la)


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
    that is not positive and finite (an overflowed walk) is rejected.
    """
    gamma_moves = gamma_new != state.gamma
    new, old = (gamma_new, state.gamma) if gamma_moves else (zeta_new, state.zeta)
    if not (0.0 < new < np.inf and 0.0 < zeta_new < np.inf):
        return -np.inf
    la = 0.0
    if zeta_new != state.zeta:
        new_params = GeParams(zeta_new, state.m)
        old_params = GeParams(state.zeta, state.m)
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


def birth_log_accept(state, hyper, w_new, mu_new, forced):
    """Log acceptance of inserting a non-allocated component.

    ``w_new`` is the proposed (m+1)-weight vector with the newborn's entry
    already in its slot, ``mu_new`` the proposed location (one coordinate
    per dimension); the proposed covariance draws from its prior and
    cancels exactly.  ``forced`` marks the move taken with probability one
    because no non-allocated component existed.  Under the default
    reversible bookkeeping the (m+1)/(m_na+1) factor pairs the uniform
    insertion-slot choice with the reverse move's uniform victim choice;
    the append variant keeps only 1/(m_na+1).
    """
    m, dim = state.m, state.dim
    g, z, a0 = state.gamma, state.zeta, hyper.alpha0

    la = np.log(hyper.lam) - np.log(m)
    la += sdir_log_norm_const(SdirParams(a0, g, m)) - sdir_log_norm_const(SdirParams(a0, g, m + 1))
    la += repulsion_log_ratio(g, w_new, state.weights)
    la += dim * (ge_log_norm_const(GeParams(z, m)) - ge_log_norm_const(GeParams(z, m + 1)))
    cross = np.abs(state.mus - mu_new[None, :])
    if (cross == 0.0).any():
        return -np.inf
    la += z * float(np.log(cross).sum())
    la += np.log1p(-hyper.q_birth)
    if not forced:
        la -= np.log(hyper.q_birth)
    la -= np.log(state.m_nonallocated + 1.0)
    if hyper.birth_death == "reversible":
        la += np.log(m + 1.0)
    conc_total = m * a0 + state.n_obs
    la += gammaln(a0) + gammaln(conc_total) - gammaln(conc_total + a0)
    la += 0.5 * dim * (LOG_2PI - np.log(z))
    return float(la)


def death_log_accept(state, hyper, j, w_hat):
    """Log acceptance of deleting non-allocated component ``j``.

    Minus the log acceptance of the birth that undoes it: the reduced state
    regrowing component ``j`` with the current weights and location.  Death
    from a single-component state is impossible because the component count
    prior has no mass below one.
    """
    if state.m == 1:
        return -np.inf
    if state.counts()[j]:
        raise ValueError("death move targets a non-allocated component")
    reduced = _remove_component(state, j, w_hat)
    forced = state.m_nonallocated == 1
    return -birth_log_accept(reduced, hyper, state.weights, state.mus[j], forced)


def _insert_component(state, slot, weights, mu, sigma):
    """``state`` with a component inserted at ``slot``; labels from ``slot`` up shift by one."""
    alloc = state.alloc.copy()
    alloc[alloc >= slot] += 1
    return dataclasses.replace(
        state, m=state.m + 1, weights=weights, alloc=alloc,
        mus=np.insert(state.mus, slot, mu, axis=0),
        sigmas=np.insert(state.sigmas, slot, sigma, axis=0),
    )


def _remove_component(state, j, weights):
    """``state`` without component ``j``; labels above ``j`` shift down by one."""
    alloc = state.alloc.copy()
    alloc[alloc > j] -= 1
    return dataclasses.replace(
        state, m=state.m - 1, weights=weights, alloc=alloc,
        mus=np.delete(state.mus, j, axis=0),
        sigmas=np.delete(state.sigmas, j, axis=0),
    )


# ---------------------------------------------------------------------------
# sweep steps
# ---------------------------------------------------------------------------

def _grouped_points(y, alloc, counts):
    """Per component, the rows of ``y`` that ``y[alloc == j]`` selects, in the
    same order, as slices of one stably sorted copy."""
    ys = y[np.argsort(alloc, kind="stable")]
    ends = np.cumsum(counts).tolist()
    return [ys[end - c:end] for c, end in zip(counts.tolist(), ends)]


def update_allocations(y, state, rng):
    """Resample every allocation from its categorical full conditional."""
    out = state.copy()
    if state.n_obs == 0:
        return out
    log_p = allocation_log_probs(y, state)
    gumbel = rng.gumbel(size=log_p.shape)
    out.alloc = np.argmax(log_p + gumbel, axis=1).astype(np.int64)
    return out


def update_means(y, state, rng, step_mu):
    """Coordinate-wise Metropolis pass over all component means.

    Allocated components take Gaussian random-walk proposals with variance
    ``step_mu``; non-allocated components are refreshed by independence
    proposals from N(0, 2*m + 1/zeta), wide enough to cover the ensemble
    bulk and dominate its tails.  Returns the new state and the tuple
    (rw_accepts, rw_attempts, refresh_accepts, refresh_attempts).
    """
    out = state.copy()
    rw_sd = np.sqrt(step_mu)
    refresh_sd = np.sqrt(2.0 * out.m + 1.0 / out.zeta)
    counts = out.counts()
    groups = _grouped_points(y, out.alloc, counts)
    precs = np.linalg.inv(out.sigmas)
    rw_acc = rw_att = ref_acc = ref_att = 0
    for j in range(out.m):
        if counts[j]:
            n, point_sum = len(groups[j]), groups[j].sum(axis=0)
            for d in range(out.dim):
                prop = out.mus[j, d] + rw_sd * rng.standard_normal()
                la = mean_rw_log_accept(out, j, d, prop, n, point_sum, precs[j])
                rw_att += 1
                if np.log(rng.random()) < la:
                    out.mus[j, d] = prop
                    rw_acc += 1
        else:
            for d in range(out.dim):
                prop = refresh_sd * rng.standard_normal()
                la = mean_refresh_log_accept(out, j, d, prop, refresh_sd)
                ref_att += 1
                if np.log(rng.random()) < la:
                    out.mus[j, d] = prop
                    ref_acc += 1
    return out, (rw_acc, rw_att, ref_acc, ref_att)


def update_covariances(y, state, hyper, rng):
    """Gibbs draw of every covariance from its inverse-Wishart full conditional.

    An allocated component draws from IW(v0 + S_j, nu0 + n_j), S_j being the
    scatter of its n_j points about its mean; a non-allocated component draws
    from the prior IW(v0, nu0).  One stacked ``sample_invwishart`` call draws
    them all; a failed factorisation raises LinAlgError, which ``run_sampler``
    reports as a SamplerError naming the sweep.
    """
    out = state.copy()
    counts = out.counts()
    groups = _grouped_points(y, out.alloc, counts)
    scales = np.empty((out.m, out.dim, out.dim))
    scales[:] = hyper.v0
    for j in np.flatnonzero(counts):
        resid = groups[j] - out.mus[j]
        scale = resid.T @ resid + hyper.v0
        scales[j] = 0.5 * (scale + scale.T)
    out.sigmas = sample_invwishart(rng, scales, hyper.nu0 + counts)
    return out


def update_weights(state, hyper, rng):
    """Independence proposal from Dirichlet(alpha0 + counts); repulsion decides."""
    out = state.copy()
    alpha_post = hyper.alpha0 + out.counts()
    w_new = rng.dirichlet(alpha_post)
    accepted = np.log(rng.random()) < weights_log_accept(out, w_new)
    if accepted:
        out.weights = w_new
    return out, bool(accepted)


def update_scale(state, hyper, rng, key, step_gamma):
    """Log-normal random-walk update of one repulsion scale, ``key`` being
    "gamma" or "zeta"; under the ratio mode zeta follows rho * gamma."""
    if getattr(state, key) <= 0.0:
        raise SamplerError(f"{key} updates require a positive current value")
    out = state.copy()
    prop = getattr(out, key) * np.exp(np.sqrt(step_gamma) * rng.standard_normal())
    if key == "zeta":
        gamma_new, zeta_new = out.gamma, prop
    else:
        gamma_new = prop
        zeta_new = hyper.rho * prop if hyper.zeta_mode == "ratio" else out.zeta
    accepted = np.log(rng.random()) < scale_log_accept(out, hyper, gamma_new, zeta_new)
    if accepted:
        out.gamma, out.zeta = gamma_new, zeta_new
    return out, bool(accepted)


def birth_death_step(y, state, hyper, rng):
    """One birth or death proposal on the non-allocated components.

    Birth is chosen with probability q (with probability one when every
    component is allocated) and inserts the newborn at a uniformly chosen
    slot, or at the last slot under the append bookkeeping; death picks its
    victim uniformly among the non-allocated.  Weights are redrawn wholesale
    from the matching Dirichlet in both directions.  Returns
    (state, move, accepted).
    """
    counts = state.counts()
    candidates = np.flatnonzero(counts == 0)
    forced = candidates.size == 0
    alpha_post = hyper.alpha0 + counts
    if forced or rng.random() < hyper.q_birth:
        if hyper.birth_death == "reversible":
            slot = int(rng.integers(state.m + 1))
        else:
            slot = state.m
        w_new = rng.dirichlet(np.insert(alpha_post, slot, hyper.alpha0))
        mu_new = rng.normal(0.0, 1.0 / np.sqrt(state.zeta), size=state.dim)
        sigma_new = sample_invwishart(rng, hyper.v0, hyper.nu0)
        la = birth_log_accept(state, hyper, w_new, mu_new, forced)
        if np.log(rng.random()) < la:
            return _insert_component(state, slot, w_new, mu_new, sigma_new), "birth", True
        return state.copy(), "birth", False

    j = int(candidates[rng.integers(candidates.size)])
    w_hat = rng.dirichlet(np.delete(alpha_post, j))
    la = death_log_accept(state, hyper, j, w_hat)
    if np.log(rng.random()) < la:
        return _remove_component(state, j, w_hat), "death", True
    return state.copy(), "death", False


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
        base = np.atleast_2d(np.cov(y, rowvar=False)) + 1e-6 * np.eye(dim)
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

    # the first free scale's acceptances feed the step-size adaptation
    scale_keys = [key for key in ("gamma", "zeta") if getattr(hyper, f"{key}_free")]

    accepts = dict.fromkeys(RATE_KEYS + ("means_refresh",), 0)
    attempts = dict(accepts)

    step_mu = hyper.step_mu
    step_gamma = hyper.step_gamma
    # the counts at the last adaptation; the window is the change since then
    seen_accepts, seen_attempts = dict(accepts), dict(attempts)

    burn, thin, n_keep = hyper.burn_in, hyper.thin, hyper.n_samples
    total = burn + thin * n_keep
    m_out = np.empty(n_keep, dtype=np.int64)
    ma_out = np.empty(n_keep, dtype=np.int64)
    alloc_out = np.empty((n_keep, y.shape[0]), dtype=np.int64)
    gamma_out = np.empty(n_keep)
    zeta_out = np.empty(n_keep)
    weights_out = [] if config.record_weights else None

    kept = 0
    for t in range(total):
        try:
            state = update_allocations(y, state, rng)
            state, (rw_acc, rw_att, ref_acc, ref_att) = update_means(y, state, rng, step_mu)
            state = update_covariances(y, state, hyper, rng)
            state, w_acc = update_weights(state, hyper, rng)
            for key in scale_keys:
                state, s_acc = update_scale(state, hyper, rng, key, step_gamma)
                accepts[key] += s_acc
                attempts[key] += 1
            state, move, bd_acc = birth_death_step(y, state, hyper, rng)
        except SamplerError:
            raise
        except Exception as exc:
            raise SamplerError(f"sweep {t} failed: {exc}") from exc

        accepts["means"] += rw_acc
        attempts["means"] += rw_att
        accepts["means_refresh"] += ref_acc
        attempts["means_refresh"] += ref_att
        accepts["weights"] += w_acc
        attempts["weights"] += 1
        accepts[move] += bd_acc
        attempts[move] += 1

        if hyper.adapt and t < burn and (t + 1) % 100 == 0:
            window = {k: (accepts[k] - seen_accepts[k], attempts[k] - seen_attempts[k])
                      for k in accepts}
            step_mu = _adapted(step_mu, *window["means"])
            if scale_keys:
                step_gamma = _adapted(step_gamma, *window[scale_keys[0]])
            seen_accepts, seen_attempts = dict(accepts), dict(attempts)

        if t >= burn and (t - burn) % thin == thin - 1:
            m_out[kept] = state.m
            ma_out[kept] = state.m_allocated
            alloc_out[kept] = state.alloc
            gamma_out[kept] = state.gamma
            zeta_out[kept] = state.zeta
            if weights_out is not None:
                weights_out.append(state.weights.copy())
            kept += 1

    trace = PosteriorTrace(
        m=m_out, m_allocated=ma_out, alloc=alloc_out,
        gamma=gamma_out, zeta=zeta_out, weights=weights_out,
    )
    diag = StepDiagnostics(
        accepts=accepts, attempts=attempts,
        step_mu_final=step_mu, step_gamma_final=step_gamma,
    )
    return trace, diag
