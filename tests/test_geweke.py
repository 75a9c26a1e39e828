"""The sweep leaves the posterior invariant *with data*: Geweke's
successive-conditional simulation ("Getting it right", JASA 2004).

Alternating one ``sweep`` on theta with a fresh y ~ p(y | theta) leaves the
joint prior of (theta, y) invariant, so along that chain every functional
has the mean it has over exact prior draws.  The chain starts from an exact
prior draw and calls ``sweep`` directly with the default step sizes, so no
adaptation runs.  Each functional is scored by the difference of means over
its standard error, batch means (25 batches) for the chain and iid for the
prior draws.  The bound, run lengths and seeds were fixed before the first
run: at 10,000 sweeps M mixes too slowly for the bound to hold reliably.
"""

import functools

import numpy as np
import pytest

import helpers as H
from selmix.model import Hyperparams
from selmix.sampler import sweep

N_OBS = 5
SWEEPS = 20_000
PRIOR_DRAWS = 5_000
BOUND = 4.0
NAMES = ("M", "m_a", "mean mu^2", "mean log Sigma", "last weight", "mean y^2")


def geweke_hyper(gamma, birth_death="reversible"):
    return Hyperparams(
        gamma_fixed=gamma, zeta_mode="fixed", zeta_fixed=1.0, lam=3.0, alpha0=1.0, nu0=4.0,
        birth_death=birth_death,
    ).resolved(1)


def functionals(state, y):
    return (state.m, state.m_allocated, np.mean(state.mus**2),
            np.mean(np.log(state.sigmas[:, 0, 0])), state.weights[-1], np.mean(y**2))


def successive_conditional(hyper, sweeps, seed):
    rng = np.random.default_rng(seed)
    state, y = H.sample_joint_prior(hyper, N_OBS, 1, rng)
    out = np.empty((sweeps, len(NAMES)))
    for t in range(sweeps):
        state, _ = sweep(y, state, hyper, rng, hyper.step_mu, hyper.step_gamma)
        y = H.sample_data(state, rng)
        out[t] = functionals(state, y)
    return out


@functools.cache
def prior_functionals(gamma):
    rng = np.random.default_rng(2)
    hyper = geweke_hyper(gamma)
    return np.array([functionals(*H.sample_joint_prior(hyper, N_OBS, 1, rng))
                     for _ in range(PRIOR_DRAWS)])


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_sweep_leaves_the_joint_prior_invariant(gamma):
    chain = successive_conditional(geweke_hyper(gamma), SWEEPS, seed=1)
    z = H.chain_vs_iid_z(chain, prior_functionals(gamma))
    assert (np.abs(z) < BOUND).all(), dict(zip(NAMES, z.round(2)))


def test_append_kernel_loses_components():
    # the append bookkeeping is not a posterior sampler: with data it keeps
    # far fewer components than the prior's mean M of 4
    chain = successive_conditional(geweke_hyper(1.0, "append"), 3_000, seed=1)
    z = H.chain_vs_iid_z(chain, prior_functionals(1.0))
    assert z[0] < -BOUND, dict(zip(NAMES, z.round(2)))
