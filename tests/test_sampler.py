"""Metropolis ratios against the joint density, sweep-step behaviour, and
the end-to-end chain driver."""

import copy
import dataclasses
import gc
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

import helpers as H
from selmix.analysis import elicit_zeta, partition_summary, prior_ma_simulation
from selmix.distributions import pairwise_log_gap_sum, sample_invwishart
from selmix.ensemble import GeParams, ge_log_norm_const
from selmix.io import read_trace, write_trace
from selmix.model import Hyperparams, MixtureState, allocation_log_probs, component_log_pdfs
from selmix.sampler import (
    SamplerConfig,
    SamplerError,
    _grouped_points,
    birth_death_step,
    birth_log_accept,
    death_log_accept,
    initial_state,
    mean_refresh_log_accept,
    mean_rw_log_accept,
    repulsion_log_ratio,
    run_sampler,
    scale_log_accept,
    sweep,
    update_allocations,
    update_covariances,
    update_means,
    update_scale,
    update_weights,
    weights_log_accept,
)
from selmix.selberg import SdirParams, sdir_log_norm_const


def random_case(rng, zeta_mode="gamma", birth_death="reversible"):
    dim = int(rng.choice([1, 3]))
    m = int(rng.integers(2, 6))
    n = int(rng.choice([0, 8]))
    hyper = H.random_hyper(rng, dim, zeta_mode=zeta_mode, birth_death=birth_death)
    state = H.random_state(rng, m, dim, n, force_empty=[m - 1])
    y = rng.normal(0.0, 2.0, size=(n, dim))
    return y, state, hyper


class TestRatiosAgainstJoint:
    """Each pure acceptance ratio must equal the joint-density change plus
    the exact proposal correction, reproduced independently with scipy."""

    def test_mean_random_walk(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            y, state, hyper = random_case(rng)
            allocated = np.flatnonzero(state.counts() > 0)
            if allocated.size == 0:
                continue
            j = int(rng.choice(allocated))
            d = int(rng.integers(state.dim))
            mu_new = state.mus[j, d] + rng.normal(0.0, 0.7)
            p = y[state.alloc == j]
            got = mean_rw_log_accept(state, j, d, mu_new, len(p), p.sum(axis=0),
                                     np.linalg.inv(state.sigmas[j]))
            want = H.oracle_mean_rw(y, state, hyper, j, d, mu_new)
            assert got == pytest.approx(want, abs=1e-10)

    def test_mean_refresh_on_nonallocated(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            y, state, hyper = random_case(rng)
            j = state.m - 1
            d = int(rng.integers(state.dim))
            sd = np.sqrt(2.0 * state.m + 1.0 / state.zeta)
            mu_new = sd * rng.standard_normal()
            got = mean_refresh_log_accept(state, j, d, mu_new, sd)
            want = H.oracle_mean_refresh(y, state, hyper, j, d, mu_new, sd)
            assert got == pytest.approx(want, abs=1e-10)
        # a single component has no coordinate to repel: the prior change is
        # the Gaussian confinement alone, to the bit
        rng = np.random.default_rng(16)
        for _ in range(20):
            dim = int(rng.choice([1, 3]))
            hyper = H.random_hyper(rng, dim)
            state = H.random_state(rng, 1, dim, 0)
            d = int(rng.integers(dim))
            sd = np.sqrt(2.0 + 1.0 / state.zeta)
            mu_new = sd * rng.standard_normal()
            got = mean_refresh_log_accept(state, 0, d, mu_new, sd)
            step = mu_new * mu_new - state.mus[0, d] ** 2
            assert got == -0.5 * state.zeta * step + 0.5 * step / sd**2
            want = H.oracle_mean_refresh(np.empty((0, dim)), state, hyper, 0, d, mu_new, sd)
            assert got == pytest.approx(want, abs=1e-10)

    def test_weights(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            y, state, hyper = random_case(rng)
            w_new = rng.dirichlet(hyper.alpha0 + state.counts())
            got = weights_log_accept(state, w_new)
            want = H.oracle_weights(y, state, hyper, w_new)
            assert got == pytest.approx(want, abs=1e-10)

    def test_gamma(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            y, state, hyper = random_case(rng)
            gamma_new = state.gamma * np.exp(0.4 * rng.standard_normal())
            got = scale_log_accept(state, hyper, gamma_new, state.zeta)
            want = H.oracle_gamma(y, state, hyper, gamma_new)
            assert got == pytest.approx(want, abs=1e-10)

    def test_zeta(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            y, state, hyper = random_case(rng, zeta_mode="gamma")
            zeta_new = state.zeta * np.exp(0.4 * rng.standard_normal())
            got = scale_log_accept(state, hyper, state.gamma, zeta_new)
            want = H.oracle_zeta(y, state, hyper, zeta_new)
            assert got == pytest.approx(want, abs=1e-10)

    def test_tied_ratio_mode(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            y, state, hyper = random_case(rng, zeta_mode="ratio")
            state = H.replace_state(state, zeta=hyper.rho * state.gamma)
            gamma_new = state.gamma * np.exp(0.4 * rng.standard_normal())
            got = scale_log_accept(state, hyper, gamma_new, hyper.rho * gamma_new)
            want = H.oracle_tied(y, state, hyper, gamma_new)
            assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("bookkeeping", ["reversible", "append"])
    def test_birth(self, bookkeeping):
        rng = np.random.default_rng(7)
        for _ in range(40):
            y, state, hyper = random_case(rng, birth_death=bookkeeping)
            counts = state.counts()
            forced = np.count_nonzero(counts) == state.m
            slot = int(rng.integers(state.m + 1)) if bookkeeping == "reversible" else state.m
            alpha_post = hyper.alpha0 + counts.astype(float)
            w_new = rng.dirichlet(np.insert(alpha_post, slot, hyper.alpha0))
            mu_new = rng.normal(0.0, 1.0 / np.sqrt(state.zeta), size=state.dim)
            sigma_new = sample_invwishart(rng, hyper.v0, hyper.nu0)
            got = birth_log_accept(state, hyper, w_new, mu_new, forced, counts)
            want = H.oracle_birth(y, state, hyper, slot, w_new, mu_new, sigma_new, forced)
            assert got == pytest.approx(want, abs=1e-10)
            # tied repelled weights have zero prior density
            tied = w_new.copy()
            tied[1] = tied[0]
            assert birth_log_accept(state, hyper, tied / tied.sum(), mu_new, forced,
                                    counts) == -np.inf

    @pytest.mark.parametrize("bookkeeping", ["reversible", "append"])
    def test_death_of_middle_victim(self, bookkeeping):
        rng = np.random.default_rng(8)
        for _ in range(40):
            dim = int(rng.choice([1, 2]))
            m = int(rng.integers(3, 6))
            victim = int(rng.integers(1, m - 1))  # strictly interior slot
            hyper = H.random_hyper(rng, dim, birth_death=bookkeeping)
            state = H.random_state(rng, m, dim, 8, force_empty=[victim])
            y = rng.normal(0.0, 2.0, size=(8, dim))
            alpha_post = hyper.alpha0 + state.counts().astype(float)
            w_hat = rng.dirichlet(np.delete(alpha_post, victim))
            got = death_log_accept(state, hyper, victim, w_hat, state.counts())
            want = H.oracle_death(y, state, hyper, victim, w_hat)
            assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("bookkeeping", ["reversible", "append"])
    def test_birth_death_reciprocity(self, bookkeeping):
        # a birth and the death that undoes it must have log ratios
        # summing to zero when both reuse the same proposed values
        rng = np.random.default_rng(9)
        for _ in range(40):
            y, state, hyper = random_case(rng, birth_death=bookkeeping)
            counts = state.counts()
            forced = np.count_nonzero(counts) == state.m
            slot = int(rng.integers(state.m + 1)) if bookkeeping == "reversible" else state.m
            alpha_post = hyper.alpha0 + counts.astype(float)
            w_new = rng.dirichlet(np.insert(alpha_post, slot, hyper.alpha0))
            mu_new = rng.normal(0.0, 1.0, size=state.dim)
            la_birth = birth_log_accept(state, hyper, w_new, mu_new, forced, counts)

            alloc = state.alloc.copy()
            alloc[alloc >= slot] += 1
            sigma_new = sample_invwishart(rng, hyper.v0, hyper.nu0)
            grown = MixtureState(
                m=state.m + 1, weights=w_new,
                mus=np.insert(state.mus, slot, mu_new, axis=0),
                sigmas=np.insert(state.sigmas, slot, sigma_new, axis=0),
                alloc=alloc, gamma=state.gamma, zeta=state.zeta,
            )
            la_death = death_log_accept(grown, hyper, slot, state.weights, grown.counts())
            assert la_birth + la_death == pytest.approx(0.0, abs=1e-10)

    def test_forced_birth_differs_by_selection_probability(self):
        rng = np.random.default_rng(10)
        y, state, hyper = random_case(rng)
        w_new = rng.dirichlet(np.append(hyper.alpha0 + state.counts(), hyper.alpha0))
        mu_new = rng.normal(size=state.dim)
        la_free = birth_log_accept(state, hyper, w_new, mu_new, False, state.counts())
        la_forced = birth_log_accept(state, hyper, w_new, mu_new, True, state.counts())
        assert la_forced - la_free == pytest.approx(np.log(hyper.q_birth), abs=1e-12)


class TestRatioEdgeCases:
    def test_death_requires_nonallocated_victim(self):
        rng = np.random.default_rng(11)
        hyper = H.random_hyper(rng, 2)
        state = H.random_state(rng, 3, 2, 9)
        occupied = int(np.flatnonzero(state.counts() > 0)[0])
        with pytest.raises(ValueError):
            death_log_accept(state, hyper, occupied, np.array([0.5, 0.5]), state.counts())

    def test_death_from_single_component_impossible(self):
        rng = np.random.default_rng(12)
        hyper = H.random_hyper(rng, 1)
        state = H.random_state(rng, 1, 1, 0, gamma=1.0)
        assert death_log_accept(state, hyper, 0, np.array([1.0]), state.counts()) == -np.inf

    def test_repulsion_ratio_fast_path_and_ties(self):
        assert repulsion_log_ratio(0.0, [0.3, 0.3, 0.4], [0.2, 0.3, 0.5]) == 0.0
        assert repulsion_log_ratio(1.0, [0.3, 0.3, 0.4], [0.2, 0.3, 0.5]) == -np.inf
        assert repulsion_log_ratio(1.0, [0.2, 0.3, 0.5], [0.3, 0.3, 0.4]) == np.inf

    def test_gamma_update_requires_positive_value(self):
        rng = np.random.default_rng(13)
        hyper = H.random_hyper(rng, 1)
        state = H.random_state(rng, 2, 1, 0, gamma=0.0)
        with pytest.raises(SamplerError):
            update_scale(state, hyper, rng, "gamma", hyper.step_gamma)
        with pytest.raises(SamplerError):
            update_scale(state, dataclasses.replace(hyper, zeta_mode="ratio"), rng, "gamma",
                         hyper.step_gamma)

    def test_proposed_gamma_must_stay_positive(self):
        rng = np.random.default_rng(14)
        hyper = H.random_hyper(rng, 1)
        state = H.random_state(rng, 3, 1, 0, gamma=1.0)
        assert scale_log_accept(state, hyper, 0.0, state.zeta) == -np.inf
        assert scale_log_accept(state, hyper, state.gamma, -1.0) == -np.inf
        assert scale_log_accept(state, hyper, 0.0, hyper.rho * 0.0) == -np.inf

    @pytest.mark.parametrize("zeta_mode,key", [("fixed", "gamma"), ("gamma", "zeta"),
                                               ("ratio", "gamma")])
    def test_overflowed_scale_is_rejected(self, zeta_mode, key):
        # a walk whose exp overflows proposes inf: the ratio is -inf, with no
        # NaN arithmetic and no error from the parameter checks
        rng = np.random.default_rng(17)
        hyper = H.random_hyper(rng, 2, zeta_mode=zeta_mode)
        state = H.random_state(rng, 4, 2, 6)
        if key == "zeta":
            gamma_new, zeta_new = state.gamma, np.inf
        else:
            gamma_new = np.inf
            zeta_new = hyper.rho * np.inf if zeta_mode == "ratio" else state.zeta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert scale_log_accept(state, hyper, gamma_new, zeta_new) == -np.inf
        # the sweep's move draws its step and its accept coin, then rejects
        overflowed = 0
        for seed in range(40):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            with np.errstate(over="ignore"), warnings.catch_warnings():
                warnings.simplefilter("error")
                overflowed += np.isinf(np.exp(1e3 * twin.standard_normal()))
                twin.random()
                out, accepted = update_scale(state, hyper, rng, key, 1e6)
            if not accepted:
                assert (out.gamma, out.zeta) == (state.gamma, state.zeta)
            assert np.isfinite(out.gamma) and np.isfinite(out.zeta)
            assert rng.bit_generator.state == twin.bit_generator.state
        assert overflowed > 0

    def test_zeta_with_an_overflowing_constant_is_rejected(self):
        # a finite zeta so large that G(m, zeta) overflows: -inf, no warning,
        # no error, and the move draws its step and accept coin as always
        rng = np.random.default_rng(18)
        hyper = H.random_hyper(rng, 2, zeta_mode="gamma")
        state = H.random_state(rng, 2, 2, 6, zeta=1e305)
        assert np.isfinite(ge_log_norm_const(GeParams(state.zeta, state.m)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert scale_log_accept(state, hyper, state.gamma, 1e307) == -np.inf
        overflowing = 0
        for seed in range(40):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            zeta_new = state.zeta * np.exp(np.sqrt(4.0) * twin.standard_normal())
            try:
                ge_log_norm_const(GeParams(zeta_new, state.m))
            except ValueError:
                overflowing += 1
            twin.random()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out, accepted = update_scale(state, hyper, rng, "zeta", 4.0)
            if not accepted:
                assert out.zeta == state.zeta
            assert rng.bit_generator.state == twin.bit_generator.state
        assert overflowing > 0

    def test_zeta_limit_reduces_mean_move_to_likelihood(self):
        # a vanishing ensemble precision makes the prior flat, so the move
        # must reduce to the plain Gaussian likelihood ratio
        rng = np.random.default_rng(15)
        state = H.random_state(rng, 3, 2, 10, zeta=1e-12)
        y = rng.normal(size=(10, 2))
        j = int(state.alloc[0])
        points = y[state.alloc == j]
        mu_new = state.mus[j, 0] + 0.5
        got = mean_rw_log_accept(state, j, 0, mu_new, len(points), points.sum(axis=0),
                                 np.linalg.inv(state.sigmas[j]))
        mus = state.mus.copy()
        mus[j, 0] = mu_new
        moved = H.replace_state(state, mus=mus)
        want = sum(stats.multivariate_normal.logpdf(points, moved.mus[j], moved.sigmas[j])
                   - stats.multivariate_normal.logpdf(points, state.mus[j], state.sigmas[j]))
        assert got == pytest.approx(want, abs=1e-4)


class TestSweepSteps:
    def test_allocation_frequencies_match_full_conditional(self):
        rng = np.random.default_rng(20)
        state = H.random_state(rng, 3, 2, 1)
        y = rng.normal(0.0, 1.5, size=(1, 2))
        from selmix.sampler import allocation_log_probs
        log_p = allocation_log_probs(y, state)[0]
        probs = np.exp(log_p - log_p.max())
        probs /= probs.sum()
        hits = np.zeros(3)
        for _ in range(4000):
            out = update_allocations(y, state, rng)
            hits[out.alloc[0]] += 1
        freq = hits / 4000
        se = np.sqrt(probs * (1 - probs) / 4000)
        assert np.all(np.abs(freq - probs) < 4 * se + 1e-12)

    def test_allocation_noop_without_data(self):
        rng = np.random.default_rng(21)
        state = H.random_state(rng, 3, 2, 0)
        out = update_allocations(np.empty((0, 2)), state, rng)
        assert out.alloc.size == 0

    def test_update_means_touches_only_means(self):
        rng = np.random.default_rng(22)
        hyper = H.random_hyper(rng, 2)
        state = H.random_state(rng, 3, 2, 12, force_empty=[2])
        y = rng.normal(size=(12, 2))
        out, (rw_acc, rw_att, ref_acc, ref_att) = update_means(
            state, rng, hyper.step_mu, _grouped_points(y, state))
        assert rw_att == 2 * 2 and ref_att == 1 * 2
        assert 0 <= rw_acc <= rw_att and 0 <= ref_acc <= ref_att
        np.testing.assert_array_equal(out.alloc, state.alloc)
        np.testing.assert_array_equal(out.sigmas, state.sigmas)
        np.testing.assert_array_equal(out.weights, state.weights)

    def test_covariance_gibbs_targets_posterior_mean(self):
        rng = np.random.default_rng(23)
        true_cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        n = 400
        y = rng.multivariate_normal([2.0, -1.0], true_cov, size=n)
        hyper = Hyperparams(gamma_fixed=1.0).resolved(2)
        state = MixtureState(
            m=1, weights=np.array([1.0]), mus=np.array([[2.0, -1.0]]),
            sigmas=np.eye(2)[None, :, :], alloc=np.zeros(n, dtype=np.int64),
            gamma=1.0, zeta=0.1,
        )
        grouped = _grouped_points(y, state)
        draws = np.mean([update_covariances(state, hyper, rng, grouped).sigmas[0]
                         for _ in range(400)], axis=0)
        resid = y - state.mus[0]
        scale = resid.T @ resid + hyper.v0
        want = scale / (hyper.nu0 + n - 2 - 1)
        assert np.allclose(draws, want, rtol=0.05)

    def test_weights_always_accept_without_repulsion(self):
        rng = np.random.default_rng(25)
        hyper = H.random_hyper(rng, 2)
        state = H.random_state(rng, 4, 2, 10, gamma=0.0)
        for _ in range(25):
            out, accepted = update_weights(state, hyper, rng, state.counts())
            assert accepted
            state = out

    def test_gamma_full_conditional_is_hyperprior_at_two_components(self):
        # with two components the weight prior carries no repulsion pair and
        # a gamma-free constant, so the gamma chain must sample its prior
        rng = np.random.default_rng(26)
        hyper = Hyperparams(gamma_shape=3.0, gamma_rate=2.0, step_gamma=1.5).resolved(1)
        state = H.random_state(rng, 2, 1, 0, gamma=1.0)
        kept = []
        for t in range(30000):
            state, _ = update_scale(state, hyper, rng, "gamma", hyper.step_gamma)
            if t % 10 == 9:
                kept.append(state.gamma)
        marginal = stats.gamma(a=3.0, scale=0.5)
        assert stats.kstest(np.array(kept), marginal.cdf).pvalue > 1e-3

    def test_tied_update_keeps_ratio(self):
        rng = np.random.default_rng(27)
        hyper = H.random_hyper(rng, 2, zeta_mode="ratio")
        state = H.random_state(rng, 3, 2, 0, gamma=1.0, zeta=hyper.rho * 1.0)
        for _ in range(200):
            state, _ = update_scale(state, hyper, rng, "gamma", hyper.step_gamma)
            assert state.zeta == pytest.approx(hyper.rho * state.gamma, rel=1e-12)

    def test_zeta_update_moves_only_zeta(self):
        rng = np.random.default_rng(28)
        hyper = H.random_hyper(rng, 2, zeta_mode="gamma")
        state = H.random_state(rng, 3, 2, 0)
        out, accepted = update_scale(state, hyper, rng, "zeta", hyper.step_gamma)
        assert isinstance(accepted, bool)
        np.testing.assert_array_equal(out.mus, state.mus)
        assert out.gamma == state.gamma


class TestBirthDeathStep:
    def test_birth_insertion_preserves_bindings(self):
        rng = np.random.default_rng(30)
        hyper = H.random_hyper(rng, 2)
        state = H.random_state(rng, 3, 2, 30)
        for _ in range(200):
            out, move, accepted = birth_death_step(
                state, hyper, rng, state.counts())
            H.validate_state(out)
            if move == "birth" and accepted:
                assert out.m == state.m + 1
                # every observation must still point at the parameters it
                # was allocated to before the insertion
                for i in range(30):
                    old_mu = state.mus[state.alloc[i]]
                    np.testing.assert_array_equal(out.mus[out.alloc[i]], old_mu)
                break
        else:
            pytest.fail("no accepted birth in 200 attempts")

    def test_death_removal_preserves_bindings(self):
        rng = np.random.default_rng(31)
        hyper = H.random_hyper(rng, 2)
        for _ in range(300):
            state = H.random_state(rng, 4, 2, 20, force_empty=[1])
            out, move, accepted = birth_death_step(
                state, hyper, rng, state.counts())
            H.validate_state(out)
            if move == "death" and accepted:
                assert out.m == state.m - 1
                for i in range(20):
                    old_mu = state.mus[state.alloc[i]]
                    np.testing.assert_array_equal(out.mus[out.alloc[i]], old_mu)
                return
        pytest.fail("no accepted death in 300 attempts")

    def test_birth_forced_when_every_component_allocated(self):
        rng = np.random.default_rng(32)
        hyper = H.random_hyper(rng, 1)
        state = H.random_state(rng, 2, 1, 10)
        assert np.count_nonzero(state.counts()) == state.m
        for _ in range(10):
            _, move, _ = birth_death_step(state, hyper, rng, state.counts())
            assert move == "birth"

    def test_append_bookkeeping_always_appends(self):
        rng = np.random.default_rng(33)
        hyper = H.random_hyper(rng, 1, birth_death="append")
        state = H.random_state(rng, 3, 1, 15)
        seen_birth = False
        for _ in range(300):
            out, move, accepted = birth_death_step(state, hyper, rng, state.counts())
            if move == "birth" and accepted:
                seen_birth = True
                np.testing.assert_array_equal(out.mus[:state.m], state.mus)
                np.testing.assert_array_equal(out.alloc, state.alloc)
        assert seen_birth


class TestChainDriver:
    def prior_config(self, **kwargs):
        hyper = Hyperparams(
            gamma_fixed=1.0, zeta_mode="fixed", zeta_fixed=1.0,
            burn_in=50, thin=2, n_samples=40, **kwargs,
        )
        return SamplerConfig(hyper=hyper, seed=5, record_weights=True)

    def test_shapes_and_determinism(self):
        y = np.random.default_rng(0).normal(size=(25, 2))
        config = self.prior_config()
        trace1, diag1 = run_sampler(y, config)
        trace2, diag2 = run_sampler(y, config)
        assert trace1.m.shape == (40,)
        assert trace1.alloc.shape == (40, 25)
        assert len(trace1.weights) == 40
        np.testing.assert_array_equal(trace1.m, trace2.m)
        np.testing.assert_array_equal(trace1.alloc, trace2.alloc)
        assert diag1.accepts == diag2.accepts

    def test_acceptance_rate_keys(self):
        y = np.random.default_rng(1).normal(size=(10, 1))
        _, diag = run_sampler(y, self.prior_config())
        rates = diag.acceptance_rates()
        assert set(rates) == {"means", "weights", "gamma", "zeta", "birth", "death"}
        assert all(0.0 <= v <= 1.0 for v in rates.values())
        # fixed gamma and zeta leave their counters untouched
        assert rates["gamma"] == 0.0 and rates["zeta"] == 0.0

    def test_free_hyperparameters_move(self):
        y = np.random.default_rng(2).normal(size=(15, 1))
        hyper = Hyperparams(zeta_mode="gamma", burn_in=100, thin=1, n_samples=100)
        trace, diag = run_sampler(y, SamplerConfig(hyper=hyper, seed=3))
        assert np.unique(trace.gamma).size > 5
        assert np.unique(trace.zeta).size > 5
        assert diag.attempts["gamma"] > 0 and diag.attempts["zeta"] > 0

    def test_ratio_mode_ties_zeta(self):
        y = np.random.default_rng(3).normal(size=(15, 1))
        hyper = Hyperparams(zeta_mode="ratio", rho=2.0, burn_in=50, thin=1, n_samples=60)
        trace, _ = run_sampler(y, SamplerConfig(hyper=hyper, seed=4))
        np.testing.assert_allclose(trace.zeta, 2.0 * trace.gamma, rtol=1e-12)

    def test_rejects_flat_data(self):
        with pytest.raises(ValueError):
            run_sampler(np.zeros(7), self.prior_config())

    def test_step_failures_carry_sweep_index(self, monkeypatch):
        import selmix.sampler as sampler_mod

        def boom(y, state, rng):
            raise RuntimeError("boom")

        monkeypatch.setattr(sampler_mod, "update_allocations", boom)
        y = np.random.default_rng(4).normal(size=(8, 1))
        with pytest.raises(SamplerError, match="sweep 0"):
            run_sampler(y, self.prior_config())

        # a SamplerError raised by a step is named by its sweep too
        scale_calls = []

        def fail_on_third_call(state, hyper, rng, key, step_gamma):
            scale_calls.append(key)
            if len(scale_calls) == 3:
                raise SamplerError("forced")
            return update_scale(state, hyper, rng, key, step_gamma)

        monkeypatch.undo()
        monkeypatch.setattr(sampler_mod, "update_scale", fail_on_third_call)
        hyper = Hyperparams(zeta_mode="fixed", burn_in=5, thin=1, n_samples=5)
        with pytest.raises(SamplerError, match=r"^sweep 2 failed: forced$"):
            run_sampler(y, SamplerConfig(hyper=hyper, seed=4))

    def test_adaptation_reacts_to_extreme_rates(self):
        y = 10.0 * np.random.default_rng(5).normal(size=(60, 1))
        base = Hyperparams(gamma_fixed=1.0, zeta_mode="fixed", zeta_fixed=1.0,
                           step_mu=400.0, burn_in=400, thin=1, n_samples=20)
        _, diag = run_sampler(y, SamplerConfig(hyper=base, seed=6))
        assert diag.step_mu_final < 400.0
        frozen = dataclasses.replace(base, adapt=False)
        _, diag = run_sampler(y, SamplerConfig(hyper=frozen, seed=6))
        assert diag.step_mu_final == 400.0


class TestInitialState:
    def test_data_driven_start(self):
        rng = np.random.default_rng(40)
        hyper = H.random_hyper(rng, 2)
        y = rng.normal(size=(30, 2))
        state = initial_state(y, hyper, rng)
        H.validate_state(state)
        assert state.m == max(2, int(round(hyper.lam)))
        assert state.alloc.shape == (30,)

    def test_prior_start_without_data(self):
        rng = np.random.default_rng(41)
        hyper = H.random_hyper(rng, 3)
        state = initial_state(np.empty((0, 3)), hyper, rng)
        H.validate_state(state)
        assert state.alloc.size == 0
        assert state.m >= 1

    def test_ratio_mode_start(self):
        rng = np.random.default_rng(42)
        hyper = Hyperparams(zeta_mode="ratio", rho=0.5).resolved(1)
        state = initial_state(rng.normal(size=(10, 1)), hyper, rng)
        assert state.zeta == pytest.approx(0.5 * state.gamma)

    def test_zero_gamma_start_allowed(self):
        rng = np.random.default_rng(43)
        hyper = Hyperparams(gamma_fixed=0.0).resolved(1)
        state = initial_state(rng.normal(size=(10, 1)), hyper, rng)
        assert state.gamma == 0.0

    def test_single_observation_start(self):
        # one point has no sample covariance: the start takes v0, and the
        # first allocation is a draw, not the argmax of NaNs
        hyper = Hyperparams().resolved(2)
        first_labels = set()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            y = rng.normal(size=(1, 2))
            state = initial_state(y, hyper, rng)
            H.validate_state(state)
            assert np.isfinite(state.sigmas).all()
            assert np.isfinite(allocation_log_probs(y, state)).all()
            first_labels.add(int(update_allocations(y, state, rng).alloc[0]))
        assert len(first_labels) > 1
        y = np.random.default_rng(46).normal(size=(1, 2))
        trace, _ = run_sampler(y, SamplerConfig(
            hyper=Hyperparams(burn_in=20, thin=1, n_samples=20), seed=47))
        assert trace.alloc.shape == (20, 1)


    def test_huge_alpha0_stops_with_an_error_naming_it(self):
        # equal Dirichlet weights tie under repulsion on every redraw
        hyper = Hyperparams(alpha0=1e300, gamma_fixed=1.0).resolved(2)
        y = np.random.default_rng(44).normal(size=(30, 2))
        with pytest.raises(ValueError, match="alpha0"):
            initial_state(y, hyper, np.random.default_rng(45))

class TestBookkeepingContrast:
    """The reversible kernel holds the count prior exactly; the append
    kernel visibly tilts it.  This freezes the behavioural difference."""

    def run_prior_chain(self, bookkeeping, sweeps=15000):
        hyper = Hyperparams(
            gamma_fixed=1.0, zeta_mode="fixed", zeta_fixed=1.0,
            burn_in=2000, thin=1, n_samples=sweeps, birth_death=bookkeeping,
        )
        trace, _ = run_sampler(np.empty((0, 1)), SamplerConfig(hyper=hyper, seed=17))
        return trace.m

    def poisson_tv(self, m_draws):
        top = max(40, int(m_draws.max()) + 1)
        pmf = np.exp([stats.poisson.logpmf(k - 1, 3.0) for k in range(top)])
        hist = np.bincount(m_draws, minlength=top)[:top] / m_draws.size
        return 0.5 * np.abs(hist - pmf).sum()

    def test_reversible_matches_count_prior(self):
        assert self.poisson_tv(self.run_prior_chain("reversible")) < 0.08

    def test_append_tilts_count_prior(self):
        assert self.poisson_tv(self.run_prior_chain("append")) > 0.2


def equivalence_case(rng, dim, n, m=None, empty=(), **hyper_kwargs):
    # m up to 12 and dim 9 (EQUIVALENCE_SHAPES): numpy sums 8 or more
    # numbers pairwise, so a re-laid-out reduction can differ only there
    m = int(rng.integers(2, 13)) if m is None else m
    hyper = H.random_hyper(rng, dim, **hyper_kwargs)
    state = H.random_state(rng, m, dim, n, force_empty=[j for j in empty if j < m - 1])
    y = rng.normal(0.0, 2.0, size=(n, dim))
    return y, state, hyper


def read_only_case(rng, dim, n, **kwargs):
    """``equivalence_case`` with a state whose arrays refuse writes."""
    y, state, hyper = equivalence_case(rng, dim, n, **kwargs)
    return y, H.read_only_state(state), hyper


def assert_states_equal(a, b):
    assert a.m == b.m and a.gamma == b.gamma and a.zeta == b.zeta
    for name in ("weights", "mus", "sigmas", "alloc"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def twin_generators(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


EQUIVALENCE_SHAPES = [(dim, n) for dim in (1, 2, 5, 9) for n in (0, 3, 40)]


class TestFastSweepMatchesReference:
    """The batched sweep steps against per-component copies of the code they
    replaced (tests/helpers.py): equal arrays, equal counters and the
    generator left in the same state.  Each step runs on a state whose
    arrays are read-only, so a write into its input raises."""

    @pytest.mark.parametrize("dim,n", EQUIVALENCE_SHAPES)
    def test_component_log_pdfs_and_allocations(self, dim, n):
        rng = np.random.default_rng(100 + 10 * dim + n)
        for trial in range(10):
            y, state, _ = read_only_case(rng, dim, n, m=1 + trial % 5, empty=[0, 3])
            got = component_log_pdfs(y, state)
            assert got.flags.c_contiguous
            assert got.shape == (n, state.m) and got.dtype == np.float64
            np.testing.assert_array_equal(got, H.component_log_pdfs_ref(y, state))
            H.assert_near_scipy(got, H.component_log_pdfs_scipy(y, state))
            r1, r2 = twin_generators(trial)
            before = copy.deepcopy(state)
            assert_states_equal(update_allocations(y, state, r1),
                                H.update_allocations_ref(y, state, r2))
            assert r1.bit_generator.state == r2.bit_generator.state
            assert_states_equal(state, before)

    @pytest.mark.parametrize("dim,n", EQUIVALENCE_SHAPES)
    def test_update_means(self, dim, n):
        rng = np.random.default_rng(200 + 10 * dim + n)
        for trial in range(10):
            y, state, hyper = read_only_case(rng, dim, n, empty=[1])
            step = float(rng.choice([0.01, 0.25, 4.0]))
            r1, r2 = twin_generators(trial)
            before = copy.deepcopy(state)
            grouped = _grouped_points(y, state)
            got, got_counts = update_means(state, r1, step, grouped)
            want, want_counts = H.update_means_ref(y, state, r2, step, grouped)
            assert_states_equal(got, want)
            assert got_counts == want_counts
            assert r1.bit_generator.state == r2.bit_generator.state
            assert_states_equal(state, before)

    @pytest.mark.parametrize("dim,n", EQUIVALENCE_SHAPES)
    def test_update_covariances(self, dim, n):
        rng = np.random.default_rng(300 + 10 * dim + n)
        for trial in range(10):
            y, state, hyper = read_only_case(rng, dim, n, empty=[0, 2])
            r1, r2 = twin_generators(trial)
            before = copy.deepcopy(state)
            grouped = _grouped_points(y, state)
            got = update_covariances(state, hyper, r1, grouped)
            assert_states_equal(got, H.update_covariances_ref(y, state, hyper, r2, grouped))
            assert r1.bit_generator.state == r2.bit_generator.state
            assert_states_equal(state, before)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_initial_state_without_data(self, dim):
        rng = np.random.default_rng(350 + dim)
        for trial in range(10):
            zeta_mode = ("fixed", "gamma", "ratio")[trial % 3]
            hyper = H.random_hyper(rng, dim, zeta_mode=zeta_mode)
            hyper = dataclasses.replace(hyper, nu0=dim - 0.5 + float(rng.uniform(0.0, 4.0)))
            r1, r2 = twin_generators(trial)
            y = np.empty((0, dim))
            assert_states_equal(initial_state(y, hyper, r1), H.initial_state_ref(y, hyper, r2))
            assert r1.bit_generator.state == r2.bit_generator.state

    @pytest.mark.parametrize("dim,n", EQUIVALENCE_SHAPES)
    @pytest.mark.parametrize("bookkeeping", ["reversible", "append"])
    def test_birth_death_step(self, dim, n, bookkeeping):
        rng = np.random.default_rng(400 + 10 * dim + n)
        moves = set()
        for trial in range(40):
            y, state, hyper = read_only_case(rng, dim, n, empty=[1, 4],
                                             birth_death=bookkeeping)
            r1, r2 = twin_generators(trial)
            before = copy.deepcopy(state)
            counts = _grouped_points(y, state)[0]
            got, move, accepted = birth_death_step(state, hyper, r1, counts)
            want, want_move, want_accepted = H.birth_death_step_ref(state, hyper, r2, counts)
            assert (move, accepted) == (want_move, want_accepted)
            assert_states_equal(got, want)
            assert r1.bit_generator.state == r2.bit_generator.state
            assert_states_equal(state, before)
            moves.add((move, accepted))
        assert {move for move, _ in moves} == {"birth", "death"}
        assert {accepted for _, accepted in moves} == {True, False}

    def test_constants_and_gap_sums(self):
        rng = np.random.default_rng(500)
        for _ in range(200):
            m = int(rng.integers(1, 30))
            a, g, z = rng.uniform(0.05, 5.0, size=3)
            g = float(rng.choice([0.0, g]))
            for _repeat in range(2):  # the second call is served from the cache
                sdir = SdirParams(a, g, m)
                assert sdir_log_norm_const(sdir) == H.sdir_log_norm_const_ref(sdir)
                H.assert_near_scipy(sdir_log_norm_const(sdir),
                                    H.sdir_log_norm_const_ref(sdir, lgamma=gammaln))
                ge = GeParams(z, m)
                assert ge_log_norm_const(ge) == H.ge_log_norm_const_ref(ge)
                H.assert_near_scipy(ge_log_norm_const(ge),
                                    H.ge_log_norm_const_ref(ge, lgamma=gammaln))
            vals = rng.normal(size=m)
            if m > 2 and rng.random() < 0.2:
                vals[1] = vals[0]
            assert pairwise_log_gap_sum(vals) == H.pairwise_log_gap_sum_ref(vals)

    @pytest.mark.parametrize("bookkeeping", ["reversible", "append"])
    @pytest.mark.parametrize("zeta_mode", ["fixed", "gamma", "ratio"])
    def test_full_chain(self, bookkeeping, zeta_mode, tmp_path, monkeypatch):
        rng = np.random.default_rng(600)
        dim = {"fixed": 1, "gamma": 2, "ratio": 5}[zeta_mode]
        y = rng.normal(0.0, 3.0, size=(40, dim))
        hyper = Hyperparams(zeta_mode=zeta_mode, zeta_fixed=0.5, birth_death=bookkeeping,
                            burn_in=100, thin=2, n_samples=60)
        config = SamplerConfig(hyper=hyper, seed=61, record_weights=True)
        trace, diag = run_sampler(y, config)
        with monkeypatch.context() as patch:
            for module, name, reference in H.reference_sweep_patches(y):
                patch.setattr(module, name, reference)
            ref_trace, ref_diag = run_sampler(y, config)
        write_trace(tmp_path / "fast.ndjson", trace)
        write_trace(tmp_path / "ref.ndjson", ref_trace)
        assert (tmp_path / "fast.ndjson").read_bytes() == (tmp_path / "ref.ndjson").read_bytes()
        assert diag == ref_diag
        assert diag.attempts["gamma"] > 0 and diag.attempts["birth"] > 0


class TestMeanRatioMatchesTheSolve:
    """The mean walk's ratio from sufficient statistics and the inverse
    against the solve it replaced (``helpers.mean_rw_log_accept_ref``): equal
    to rounding, and exactly equal on ties and on a component without points."""

    @staticmethod
    def both(state, y, j, d, mu_new):
        p = y[state.alloc == j]
        got = mean_rw_log_accept(state, j, d, mu_new, len(p), p.sum(axis=0),
                                 np.linalg.inv(state.sigmas[j]))
        return got, H.mean_rw_log_accept_ref(state, j, d, mu_new, p)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 6])
    def test_equal_to_rounding(self, dim):
        rng = np.random.default_rng(1300 + dim)
        for _ in range(200):
            n = int(rng.integers(1, 201))
            y, state, _ = equivalence_case(rng, dim, n)
            j = int(rng.choice(np.flatnonzero(state.counts())))
            d = int(rng.integers(dim))
            got, want = self.both(state, y, j, d, state.mus[j, d] + rng.normal(0.0, 0.7))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 6])
    def test_ties_and_empty_components_are_exact(self, dim):
        # an empty component's ratio is the ensemble term alone, summed over
        # m - 1 gaps: in order on Python floats below 8 gaps (m <= 8),
        # pairwise by numpy from 8 on
        rng = np.random.default_rng(1400 + dim)
        for m in [m for m in range(2, 21) for _ in range(6)]:
            y, state, _ = equivalence_case(rng, dim, 12, m=m, empty=[0])
            d = int(rng.integers(dim))
            tie = self.both(state, y, 1, d, state.mus[0, d])
            assert tie == (-np.inf, -np.inf)
            got, want = self.both(state, y, 0, d, state.mus[0, d] + rng.normal())
            assert got == want
            # leaving a tie: component 1 moves off the value it shares with 0
            mus = state.mus.copy()
            mus[1, d] = mus[0, d]
            tied = H.replace_state(state, mus=mus)
            assert self.both(tied, y, 1, d, mus[1, d] + 1.0) == (np.inf, np.inf)


class TestRatiosArePure:
    """Every acceptance ratio leaves the state it is given unchanged, so the
    ratios the sweep calls are the ones checked against the joint."""

    @pytest.mark.parametrize("dim,n", EQUIVALENCE_SHAPES)
    @pytest.mark.parametrize("bookkeeping", ["reversible", "append"])
    def test_ratios_leave_the_state_unchanged(self, dim, n, bookkeeping):
        rng = np.random.default_rng(1200 + 10 * dim + n)
        for trial in range(10):
            y, state, hyper = equivalence_case(rng, dim, n, m=int(rng.integers(2, 6)),
                                               empty=[0], zeta_mode="gamma",
                                               birth_death=bookkeeping)
            counts = state.counts()
            alpha_post = hyper.alpha0 + counts
            d = int(rng.integers(dim))
            sd = np.sqrt(2.0 * state.m + 1.0 / state.zeta)
            slot = int(rng.integers(state.m + 1))
            ratios = [
                lambda: mean_refresh_log_accept(state, 0, d, sd * rng.standard_normal(), sd),
                lambda: weights_log_accept(state, rng.dirichlet(alpha_post)),
                lambda: scale_log_accept(state, hyper, 1.3 * state.gamma, state.zeta),
                lambda: scale_log_accept(state, hyper, state.gamma, 0.7 * state.zeta),
                lambda: birth_log_accept(
                    state, hyper, rng.dirichlet(np.insert(alpha_post, slot, hyper.alpha0)),
                    rng.normal(size=dim), forced=bool(trial % 2), counts=counts),
                lambda: death_log_accept(state, hyper, 0, rng.dirichlet(alpha_post[1:]), counts),
            ]
            for j in np.flatnonzero(counts):
                mu_new = state.mus[j, d] + rng.normal()
                p = y[state.alloc == j]
                ratios.append(lambda j=j, mu_new=mu_new, p=p: mean_rw_log_accept(
                    state, j, d, mu_new, len(p), p.sum(axis=0), np.linalg.inv(state.sigmas[j])))
            before = copy.deepcopy(state)
            for ratio in ratios:
                ratio()
                assert_states_equal(state, before)


SCALE_KEYS = {"fixed": ("gamma",), "gamma": ("gamma", "zeta"), "ratio": ("gamma",)}


def scale_case(rng, dim, n, zeta_mode, gamma_fixed=None):
    y, state, hyper = equivalence_case(rng, dim, n, empty=[1], zeta_mode=zeta_mode,
                                       gamma_fixed=gamma_fixed)
    if gamma_fixed is not None:
        state = H.replace_state(state, gamma=gamma_fixed)
    if zeta_mode == "ratio":
        state = H.replace_state(state, zeta=hyper.rho * state.gamma)
    return y, state, hyper


class TestScaleAndDeathMatchReference:
    """The single scale move against the separate gamma, zeta and tied moves
    it replaced, and the death ratio taken from the birth ratio against the
    term-by-term death ratio (tests/helpers.py), each on a state whose arrays
    are read-only."""

    @pytest.mark.parametrize("dim,n", EQUIVALENCE_SHAPES)
    @pytest.mark.parametrize("zeta_mode", ["fixed", "gamma", "ratio"])
    def test_update_scale(self, dim, n, zeta_mode):
        rng = np.random.default_rng(800 + 10 * dim + n)
        outcomes = set()
        for trial in range(30):
            gamma_fixed = 0.0 if zeta_mode == "gamma" and trial % 3 == 0 else None
            y, state, hyper = scale_case(rng, dim, n, zeta_mode, gamma_fixed)
            state = H.read_only_state(state)
            keys = ("zeta",) if gamma_fixed is not None else SCALE_KEYS[zeta_mode]
            step = float(rng.choice([0.01, 0.25, 4.0]))
            for key in keys:
                r1, r2 = twin_generators(trial)
                before = copy.deepcopy(state)
                got, accepted = update_scale(state, hyper, r1, key, step)
                want, want_accepted = H.update_scale_ref(state, hyper, r2, key, step)
                assert accepted == want_accepted
                assert_states_equal(got, want)
                assert r1.bit_generator.state == r2.bit_generator.state
                assert_states_equal(state, before)
                outcomes.add(accepted)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("zeta_mode", ["fixed", "gamma", "ratio"])
    def test_scale_log_accept_bitwise(self, zeta_mode):
        rng = np.random.default_rng(900)
        for trial in range(300):
            dim, n = EQUIVALENCE_SHAPES[trial % len(EQUIVALENCE_SHAPES)]
            gamma_fixed = 0.0 if zeta_mode == "gamma" and trial % 4 == 0 else None
            _, state, hyper = scale_case(rng, dim, n, zeta_mode, gamma_fixed)
            factor = np.exp(rng.normal(0.0, 2.0))
            if trial % 10 == 0:
                factor = -factor if trial % 20 else 0.0
            if gamma_fixed is None:
                gamma_new = state.gamma * factor
                if zeta_mode == "ratio":
                    got = scale_log_accept(state, hyper, gamma_new, hyper.rho * gamma_new)
                    assert got == H.tied_gamma_log_accept_ref(state, hyper, gamma_new)
                else:
                    got = scale_log_accept(state, hyper, gamma_new, state.zeta)
                    assert got == H.gamma_log_accept_ref(state, hyper, gamma_new)
            if zeta_mode == "gamma":
                zeta_new = state.zeta * factor
                got = scale_log_accept(state, hyper, state.gamma, zeta_new)
                assert got == H.zeta_log_accept_ref(state, hyper, zeta_new)

    @pytest.mark.parametrize("gamma", [None, 0.0])
    @pytest.mark.parametrize("bookkeeping", ["reversible", "append"])
    def test_death_log_accept(self, bookkeeping, gamma):
        rng = np.random.default_rng(1000 + (gamma is None))
        for trial in range(200):
            dim, n = EQUIVALENCE_SHAPES[trial % len(EQUIVALENCE_SHAPES)]
            m = int(rng.integers(2, 7))
            hyper = H.random_hyper(rng, dim, birth_death=bookkeeping)
            empty = rng.choice(m, size=min(2, m - 1), replace=False).tolist()
            state = H.read_only_state(
                H.random_state(rng, m, dim, n, gamma=gamma, force_empty=empty))
            victim = int(rng.choice(empty))
            alpha_post = hyper.alpha0 + state.counts()
            w_hat = rng.dirichlet(np.delete(alpha_post, victim))
            got = death_log_accept(state, hyper, victim, w_hat, state.counts())
            assert got == pytest.approx(H.death_log_accept_ref(state, hyper, victim, w_hat),
                                        rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("gamma_fixed", [None, 1.0])
    def test_first_free_scale_feeds_the_adaptation(self, monkeypatch, gamma_fixed):
        # gamma always accepts and zeta never does: the step grows only
        # when the first free scale is the one whose rate adapts it
        import selmix.sampler as sampler_mod

        def fake_update_scale(state, hyper, rng, key, step_gamma):
            return state, key == "gamma" or gamma_fixed is not None

        monkeypatch.setattr(sampler_mod, "update_scale", fake_update_scale)
        hyper = Hyperparams(gamma_fixed=gamma_fixed, zeta_mode="gamma",
                            burn_in=300, thin=1, n_samples=10)
        _, diag = run_sampler(np.empty((0, 1)), SamplerConfig(hyper=hyper, seed=8))
        assert diag.step_gamma_final == hyper.step_gamma * 2.0**3
        assert diag.attempts["zeta"] == 310
        assert diag.attempts["gamma"] == (310 if gamma_fixed is None else 0)
        assert diag.accepts["zeta"] == (0 if gamma_fixed is None else 310)

    def test_death_edge_cases(self):
        rng = np.random.default_rng(1100)
        hyper = H.random_hyper(rng, 2)
        state = H.read_only_state(H.random_state(rng, 4, 2, 12, gamma=1.0, force_empty=[1]))

        def both(state, j, w_hat):
            return (death_log_accept(state, hyper, j, w_hat, state.counts()),
                    H.death_log_accept_ref(state, hyper, j, w_hat))

        # a tie among the repelled weights has no prior mass
        assert both(state, 1, np.array([0.2, 0.2, 0.6])) == (-np.inf, -np.inf)
        # a victim sharing a coordinate with another mean has no prior mass
        mus = state.mus.copy()
        mus[1, 0] = mus[3, 0]
        tied = H.replace_state(state, mus=mus)
        assert both(tied, 1, np.array([0.3, 0.2, 0.5])) == (np.inf, np.inf)
        single = H.random_state(rng, 1, 2, 0, gamma=1.0)
        assert both(single, 0, np.array([1.0])) == (-np.inf, -np.inf)
        occupied = int(np.flatnonzero(state.counts() > 0)[0])
        w_hat = np.array([0.3, 0.2, 0.5])
        with pytest.raises(ValueError):
            death_log_accept(state, hyper, occupied, w_hat, state.counts())
        with pytest.raises(ValueError):
            H.death_log_accept_ref(state, hyper, occupied, w_hat)


BLOCKS = ("weights", "mus", "sigmas", "alloc")


def assert_shares(out, state, *blocks):
    for name in blocks:
        assert getattr(out, name) is getattr(state, name), name
    for name in set(BLOCKS) - set(blocks):
        assert getattr(out, name) is not getattr(state, name), name


class TestStepsShareUnchangedBlocks:
    """A step replaces the blocks it changes and shares the rest with its
    input; a step that changes nothing returns its input."""

    def test_gibbs_steps_replace_only_their_block(self):
        rng = np.random.default_rng(1500)
        for dim, n in EQUIVALENCE_SHAPES:
            y, state, hyper = read_only_case(rng, dim, n, empty=[1])
            out = update_allocations(y, state, rng)
            if n:
                assert_shares(out, state, "weights", "mus", "sigmas")
            else:
                assert out is state
            grouped = _grouped_points(y, state)
            out, _ = update_means(state, rng, hyper.step_mu, grouped)
            assert_shares(out, state, "weights", "sigmas", "alloc")
            out = update_covariances(state, hyper, rng, grouped)
            assert_shares(out, state, "weights", "mus", "alloc")

    def test_rejected_moves_return_their_input(self):
        rng = np.random.default_rng(1501)
        outcomes = {"weights": set(), "scale": set(), "birth": set(), "death": set()}
        for trial in range(200):
            dim, n = EQUIVALENCE_SHAPES[trial % len(EQUIVALENCE_SHAPES)]
            y, state, hyper = read_only_case(rng, dim, n, empty=[1, 4], zeta_mode="gamma")
            counts = _grouped_points(y, state)[0]
            out, accepted = update_weights(state, hyper, rng, counts)
            if accepted:
                assert_shares(out, state, "mus", "sigmas", "alloc")
            else:
                assert out is state
            outcomes["weights"].add(accepted)
            out, accepted = update_scale(state, hyper, rng, ("gamma", "zeta")[trial % 2],
                                         float(rng.choice([0.01, 4.0])))
            if accepted:
                assert_shares(out, state, *BLOCKS)
                assert (out.gamma, out.zeta) != (state.gamma, state.zeta)
            else:
                assert out is state
            outcomes["scale"].add(accepted)
            out, move, accepted = birth_death_step(state, hyper, rng, counts)
            if accepted:
                assert_shares(out, state)
            else:
                assert out is state
            outcomes[move].add(accepted)
        assert all(seen == {True, False} for seen in outcomes.values()), outcomes

    @pytest.mark.parametrize("bookkeeping", ["reversible", "append"])
    @pytest.mark.parametrize("zeta_mode", ["fixed", "gamma", "ratio"])
    def test_chain_on_read_only_states(self, bookkeeping, zeta_mode, monkeypatch):
        # sweep runs on read-only data, and every step on a state whose
        # arrays refuse writes and on read-only counts and groups, the ones
        # made inside the sweep included; the chain that initial_state and
        # sweep draw from one generator is the one run_sampler draws from
        # the same seed, with the same counts
        import selmix.sampler as sampler_mod

        def read_only(arg):
            if isinstance(arg, MixtureState):
                return H.read_only_state(arg)
            if isinstance(arg, np.ndarray):
                view = arg.view()
                view.flags.writeable = False
                return view
            if isinstance(arg, tuple):  # a grouping: counts and groups
                return tuple(read_only(a) for a in arg)
            if isinstance(arg, list):
                return [read_only(a) for a in arg]
            return arg

        y = np.random.default_rng(1502).normal(0.0, 3.0, size=(30, 2))
        hyper = Hyperparams(zeta_mode=zeta_mode, zeta_fixed=0.5, birth_death=bookkeeping,
                            burn_in=0, thin=1, n_samples=60)
        config = SamplerConfig(hyper=hyper, seed=63, record_weights=True)
        want, diag = run_sampler(y, config)
        for name in ("update_allocations", "update_means", "update_covariances",
                     "update_weights", "update_scale", "birth_death_step"):
            monkeypatch.setattr(sampler_mod, name, lambda *args, step=getattr(sampler_mod, name):
                                step(*map(read_only, args)))
        y.flags.writeable = False
        hyper = hyper.resolved(2)
        rng = np.random.default_rng(config.seed)
        state = initial_state(y, hyper, rng)
        accepts, attempts = dict.fromkeys(diag.accepts, 0), dict.fromkeys(diag.attempts, 0)
        for t in range(hyper.n_samples):
            state, counts = sweep(y, state, hyper, rng, hyper.step_mu, hyper.step_gamma)
            for key, (acc, att) in counts.items():
                accepts[key] += acc
                attempts[key] += att
            assert (state.m, state.m_allocated) == (want.m[t], want.m_allocated[t])
            assert (state.gamma, state.zeta) == (want.gamma[t], want.zeta[t])
            np.testing.assert_array_equal(state.alloc, want.alloc[t], strict=True)
            np.testing.assert_array_equal(state.weights, want.weights[t], strict=True)
        assert (accepts, attempts) == (diag.accepts, diag.attempts)
        assert len(set(want.m.tolist())) > 1
        assert attempts["gamma"] and attempts["birth"] and attempts["death"]

    def test_kept_draws_follow_burn_in_and_thinning(self):
        # without adaptation the k-th retained draw is the state after sweep
        # burn + k * thin - 1 (0-based, k = 1..n_samples), and the counters
        # cover every sweep, burn-in included
        burn, thin, n_keep = 7, 3, 10
        y = np.random.default_rng(1504).normal(0.0, 3.0, size=(25, 2))
        hyper = Hyperparams(zeta_mode="gamma", zeta_fixed=0.5, adapt=False,
                            burn_in=burn, thin=thin, n_samples=n_keep)
        config = SamplerConfig(hyper=hyper, seed=64, record_weights=True)
        got, diag = run_sampler(y, config)
        hyper = hyper.resolved(2)
        rng = np.random.default_rng(config.seed)
        state = initial_state(y, hyper, rng)
        accepts, attempts = dict.fromkeys(diag.accepts, 0), dict.fromkeys(diag.attempts, 0)
        kept_sweeps, want = {burn + k * thin - 1 for k in range(1, n_keep + 1)}, []
        for t in range(burn + thin * n_keep):
            state, counts = sweep(y, state, hyper, rng, hyper.step_mu, hyper.step_gamma)
            for key, (acc, att) in counts.items():
                accepts[key] += acc
                attempts[key] += att
            if t in kept_sweeps:
                want.append(state)
        assert got.n_samples == len(got.weights) == len(want) == n_keep
        for k, state in enumerate(want):
            assert (state.m, state.m_allocated) == (got.m[k], got.m_allocated[k])
            assert (state.gamma, state.zeta) == (got.gamma[k], got.zeta[k])
            np.testing.assert_array_equal(state.alloc, got.alloc[k], strict=True)
            np.testing.assert_array_equal(state.weights, got.weights[k], strict=True)
        assert (accepts, attempts) == (diag.accepts, diag.attempts)
        assert (diag.step_mu_final, diag.step_gamma_final) == (hyper.step_mu, hyper.step_gamma)

    def test_one_sort_per_sweep(self, monkeypatch):
        # the steps after the allocation step share the grouping that sweep
        # makes once, and cannot write into it
        import selmix.sampler as sampler_mod

        grouped_points, made = sampler_mod._grouped_points, []

        def spy(y, state):
            made.append(grouped_points(y, state))
            return made[-1]

        monkeypatch.setattr(sampler_mod, "_grouped_points", spy)
        rng = np.random.default_rng(1503)
        for dim, n in EQUIVALENCE_SHAPES:
            y, state, hyper = read_only_case(rng, dim, n, empty=[1])
            made.clear()
            sweep(y, state, hyper, rng, hyper.step_mu, hyper.step_gamma)
            assert len(made) == 1
            counts, groups = made[0]
            assert counts.sum() == n and not counts.flags.writeable
            assert not any(g.flags.writeable for g in groups)


class TestCovarianceFailure:
    """A failed covariance draw stops the chain, naming the sweep it failed in."""

    def test_failed_stacked_draw_names_the_sweep(self, monkeypatch):
        import selmix.sampler as sampler_mod

        draw = sampler_mod.sample_invwishart
        stacked_calls = []

        def fail_on_third_stacked_draw(rng, scale, df):
            if np.ndim(scale) == 3:
                stacked_calls.append(df)
                if len(stacked_calls) == 3:
                    raise np.linalg.LinAlgError("forced")
            return draw(rng, scale, df)

        monkeypatch.setattr(sampler_mod, "sample_invwishart", fail_on_third_stacked_draw)
        y = np.random.default_rng(702).normal(size=(20, 1))
        hyper = Hyperparams(gamma_fixed=1.0, burn_in=5, thin=1, n_samples=5)
        with pytest.raises(SamplerError, match=r"^sweep 2 failed: forced$") as info:
            run_sampler(y, SamplerConfig(hyper=hyper, seed=7))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def _chain(y, seed, record_weights=False, **kwargs):
    hyper = Hyperparams(burn_in=60, thin=2, n_samples=60, **kwargs)
    return lambda tmp_path: run_sampler(y, SamplerConfig(hyper, seed, record_weights))


def _summarised_trace(tmp_path):
    trace, _ = run_sampler(np.random.default_rng(7).normal(size=(40, 2)), SamplerConfig(
        Hyperparams(gamma_fixed=1.0, burn_in=20, thin=1, n_samples=30), seed=8))
    write_trace(tmp_path / "trace.ndjson", trace)
    return partition_summary(read_trace(tmp_path / "trace.ndjson"))


_DATA = np.random.default_rng(1601).normal(0.0, 3.0, size=(50, 2))


class TestNoReferenceCycles:
    """The command line runs with the collector off (``selmix.cli.main``).
    That is safe only while the work that grows with the run length frees
    everything by reference counting: after each path below, run once more
    with the collector off, a collection finds nothing unreachable."""

    @pytest.mark.parametrize("run", [
        _chain(_DATA, 1, gamma_fixed=1.0),
        _chain(_DATA, 2, zeta_mode="gamma"),
        _chain(_DATA, 3, zeta_mode="ratio", birth_death="append"),
        _chain(np.empty((0, 1)), 4),
        _chain(_DATA, 5, record_weights=True),
        lambda tmp_path: prior_ma_simulation(1.0, 1.0, 5, 100, 500,
                                             np.random.default_rng(6)),
        lambda tmp_path: elicit_zeta(_DATA, 3, [0.1, 1.0], np.random.default_rng(7), reps=50),
        _summarised_trace,
    ], ids=["fixed-scales", "gamma-zeta", "ratio-append", "no-data", "record-weights",
            "prior-ma", "elicit-zeta", "read-trace-and-summary"])
    def test_no_unreachable_objects(self, run, tmp_path):
        run(tmp_path)  # first use: imports and caches, which the process keeps anyway
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            run(tmp_path)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
