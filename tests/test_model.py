"""Mixture state, hyperparameters, joint density, and the benchmark generator."""

import copy

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from helpers import random_hyper, random_state, validate_state
from selmix.ensemble import GeParams, ge_log_density
from selmix.model import (
    Hyperparams,
    MixtureState,
    _last_axis_sums,
    component_log_pdfs,
    log_complete_joint,
    log_likelihood,
    shifted_poisson_log_pmf,
    weight_prior_log_density,
)
from selmix.planted import BENCHMARK_COVS, BENCHMARK_MEANS, BENCHMARK_WEIGHTS, simulate_benchmark
from selmix.selberg import SdirParams, sdir_log_density


class TestShiftedPoisson:
    def test_base_value(self):
        assert shifted_poisson_log_pmf(1, 3.0) == pytest.approx(-3.0, rel=1e-12)

    def test_successive_ratio(self):
        for m in (1, 2, 5, 9):
            ratio = (shifted_poisson_log_pmf(m + 1, 3.0)
                     - shifted_poisson_log_pmf(m, 3.0))
            assert ratio == pytest.approx(np.log(3.0 / m), rel=1e-12)

    def test_normalizes(self):
        total = logsumexp([shifted_poisson_log_pmf(m, 2.5) for m in range(1, 80)])
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_support(self):
        assert shifted_poisson_log_pmf(0, 3.0) == -np.inf
        assert shifted_poisson_log_pmf(2.5, 3.0) == -np.inf
        with pytest.raises(ValueError):
            shifted_poisson_log_pmf(2, 0.0)

    @pytest.mark.parametrize("lam,message", [
        (np.inf, "lam must be finite"),
        (np.nan, "lam must be positive"),
    ])
    def test_unusable_rate_names_the_field(self, lam, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            shifted_poisson_log_pmf(2, lam)


class TestWeightPrior:
    def test_single_component_is_point_mass(self):
        for alpha0 in (0.3, 1.0, 2.5, 50.0):
            for gamma in (0.0, 0.5, 2.0, 10.0):
                got = weight_prior_log_density(np.array([1.0]), alpha0, gamma, 1)
                assert type(got) is float
                assert got == 0.0 and not np.signbit(got), (alpha0, gamma, got)

    def test_matches_density_for_larger_m(self):
        rng = np.random.default_rng(2)
        w = rng.dirichlet(np.ones(4))
        got = weight_prior_log_density(w, 1.5, 0.7, 4)
        want = sdir_log_density(w, SdirParams(1.5, 0.7, 4))
        assert got == pytest.approx(want, rel=1e-12)


class TestLikelihood:
    def test_component_log_pdfs_match_scipy(self):
        rng = np.random.default_rng(8)
        state = random_state(rng, 3, 2, 10)
        y = rng.normal(size=(10, 2))
        got = component_log_pdfs(y, state)
        for j in range(3):
            want = stats.multivariate_normal.logpdf(y, state.mus[j], state.sigmas[j])
            np.testing.assert_allclose(got[:, j], want, rtol=1e-10)

    @pytest.mark.parametrize("where", ["y", "mus"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_component_log_pdfs_refuse_non_finite_input(self, where, bad):
        rng = np.random.default_rng(8)
        state = random_state(rng, 3, 2, 10)
        y = rng.normal(size=(10, 2))
        (y if where == "y" else state.mus)[1, 0] = bad
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            component_log_pdfs(y, state)

    def test_last_axis_sums_are_numpys_bit_for_bit(self):
        # the squared residuals' sums are taken slice by slice below 8
        # numbers and by numpy from 8 on
        rng = np.random.default_rng(11)
        for k in [*range(12)] * 5:
            a = rng.normal(size=(3, 17, k)) * np.exp(rng.normal(0.0, 4.0, size=(3, 17, 1)))
            a *= a
            np.testing.assert_array_equal(_last_axis_sums(a), a.sum(axis=-1), strict=True)

    def test_log_likelihood_is_mixture_logsumexp(self):
        rng = np.random.default_rng(9)
        state = random_state(rng, 4, 3, 12)
        y = rng.normal(size=(12, 3))
        per_point = []
        for i in range(12):
            terms = [np.log(state.weights[j])
                     + stats.multivariate_normal.logpdf(y[i], state.mus[j], state.sigmas[j])
                     for j in range(4)]
            per_point.append(logsumexp(terms))
        assert log_likelihood(y, state) == pytest.approx(sum(per_point), rel=1e-10)

    def test_empty_data(self):
        rng = np.random.default_rng(10)
        state = random_state(rng, 3, 2, 0)
        assert log_likelihood(np.empty((0, 2)), state) == 0.0


class TestCompleteJoint:
    def test_reassembles_from_scipy_pieces(self):
        rng = np.random.default_rng(31)
        hyper = random_hyper(rng, 2, zeta_mode="gamma")
        state = random_state(rng, 4, 2, 12)
        y = rng.normal(0.0, 2.0, size=(12, 2))

        want = shifted_poisson_log_pmf(state.m, hyper.lam)
        want += sdir_log_density(state.weights, SdirParams(hyper.alpha0, state.gamma, state.m))
        for d in range(2):
            want += ge_log_density(state.mus[:, d], GeParams(state.zeta, state.m))
        for j in range(state.m):
            want += stats.invwishart.logpdf(state.sigmas[j], df=hyper.nu0, scale=hyper.v0)
        for i in range(12):
            c = state.alloc[i]
            want += np.log(state.weights[c])
            want += stats.multivariate_normal.logpdf(y[i], state.mus[c], state.sigmas[c])
        want += stats.gamma.logpdf(state.gamma, a=hyper.gamma_shape,
                                   scale=1.0 / hyper.gamma_rate)
        want += stats.gamma.logpdf(state.zeta, a=hyper.zeta_shape,
                                   scale=1.0 / hyper.zeta_rate)

        assert log_complete_joint(y, state, hyper) == pytest.approx(want, rel=1e-10)

    def test_fixed_hyperparameters_drop_their_prior_terms(self):
        rng = np.random.default_rng(32)
        free = random_hyper(rng, 2, zeta_mode="gamma")
        state = random_state(rng, 3, 2, 6)
        y = rng.normal(size=(6, 2))
        import dataclasses
        fixed = dataclasses.replace(free, gamma_fixed=state.gamma, zeta_mode="fixed")
        gap = log_complete_joint(y, state, free) - log_complete_joint(y, state, fixed)
        want = stats.gamma.logpdf(state.gamma, a=free.gamma_shape, scale=1.0 / free.gamma_rate)
        want += stats.gamma.logpdf(state.zeta, a=free.zeta_shape, scale=1.0 / free.zeta_rate)
        assert gap == pytest.approx(want, rel=1e-10)

    def test_prior_only_at_zero_observations(self):
        rng = np.random.default_rng(33)
        hyper = random_hyper(rng, 1)
        state = random_state(rng, 3, 1, 0)
        value = log_complete_joint(np.empty((0, 1)), state, hyper)
        assert np.isfinite(value)


class TestMixtureState:
    def test_counts_and_allocation_split(self):
        state = random_state(np.random.default_rng(3), 4, 2, 9, force_empty=[2])
        counts = state.counts()
        assert counts.sum() == 9
        assert counts[2] == 0
        assert state.m_allocated == int((counts > 0).sum())

    def test_validate_rejects_broken_states(self):
        state = random_state(np.random.default_rng(5), 3, 2, 5)
        bad = copy.deepcopy(state)
        bad.weights = np.array([0.5, 0.2, 0.2])
        with pytest.raises(ValueError):
            validate_state(bad)
        bad = copy.deepcopy(state)
        bad.alloc[0] = 3
        with pytest.raises(ValueError):
            validate_state(bad)
        bad = copy.deepcopy(state)
        bad.sigmas[1] = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            validate_state(bad)
        bad = copy.deepcopy(state)
        bad.zeta = 0.0
        with pytest.raises(ValueError):
            validate_state(bad)


class TestHyperparams:
    def test_mode_flags(self):
        h = Hyperparams(gamma_fixed=1.0, zeta_mode="fixed")
        assert not h.gamma_free and not h.zeta_free
        h = Hyperparams(zeta_mode="gamma")
        assert h.gamma_free and h.zeta_free
        h = Hyperparams(zeta_mode="ratio")
        assert not h.zeta_free

    def test_resolved_fills_defaults(self):
        h = Hyperparams().resolved(3)
        np.testing.assert_array_equal(h.v0, np.eye(3))
        assert h.nu0 == 3.0

    def test_resolved_validates(self):
        with pytest.raises(ValueError):
            Hyperparams(nu0=0.5).resolved(2)
        with pytest.raises(ValueError):
            Hyperparams(v0=np.eye(3)).resolved(2)

    @pytest.mark.parametrize("v0", [
        [[1.0, 0.0], [0.0, 0.0]],   # singular
        [[1.0, 2.0], [2.0, 1.0]],   # symmetric, indefinite
        [[2.0, 0.5], [0.0, 2.0]],   # positive definite lower triangle, asymmetric
    ])
    def test_resolved_requires_symmetric_positive_definite_v0(self, v0):
        with pytest.raises(ValueError, match="v0"):
            Hyperparams(v0=np.array(v0)).resolved(2)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_resolved_bounds_nu0_at_half_a_degree_of_freedom(self, dim):
        assert Hyperparams(nu0=dim - 0.5).resolved(dim).nu0 == dim - 0.5
        with pytest.raises(ValueError, match="nu0"):
            Hyperparams(nu0=np.nextafter(dim - 0.5, 0.0)).resolved(dim)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(alpha0=0.0)
        with pytest.raises(ValueError):
            Hyperparams(zeta_mode="bogus")
        with pytest.raises(ValueError):
            Hyperparams(birth_death="bogus")
        with pytest.raises(ValueError):
            Hyperparams(q_birth=1.0)
        with pytest.raises(ValueError):
            Hyperparams(gamma_fixed=-0.1)
        with pytest.raises(ValueError):
            Hyperparams(thin=0)

    @pytest.mark.parametrize("field,low", [("burn_in", 0), ("thin", 1), ("n_samples", 1)])
    def test_run_length_must_be_an_integer_in_range(self, field, low):
        # the arrays have __index__ and were once taken as run lengths
        for value in (2.5, np.float64(3.0), low - 1, np.array(low + 5), np.array([low + 5])):
            with pytest.raises(ValueError, match=f"^{field} must be an integer >= {low}$"):
                Hyperparams(**{field: value})
        assert getattr(Hyperparams(**{field: np.int64(low)}), field) == low

    @pytest.mark.parametrize("field,modes", [
        ("gamma_shape", {}), ("gamma_rate", {}),
        ("zeta_shape", {"zeta_mode": "gamma"}), ("zeta_rate", {"zeta_mode": "gamma"}),
        ("rho", {"zeta_mode": "ratio"}),
    ])
    @pytest.mark.parametrize("value", [0.0, -1.5, float("nan")])
    def test_hyperprior_in_use_must_be_positive(self, field, modes, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive$"):
            Hyperparams(**modes, **{field: value})

    @pytest.mark.parametrize("field,modes", [
        ("gamma_shape", {}), ("gamma_rate", {}),
        ("zeta_shape", {"zeta_mode": "gamma"}), ("zeta_rate", {"zeta_mode": "gamma"}),
        ("rho", {"zeta_mode": "ratio"}),
    ])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_hyperprior_in_use_must_be_finite(self, field, modes, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            Hyperparams(**modes, **{field: value})

    @pytest.mark.parametrize("kwargs,message", [
        ({"alpha0": np.inf}, "alpha0 must be finite"),
        ({"lam": np.inf}, "lam must be finite"),
        ({"step_mu": np.nan}, "step_mu must be positive"),
        ({"step_mu": np.inf}, "step_mu must be finite"),
        ({"step_gamma": np.nan}, "step_gamma must be positive"),
        ({"gamma_fixed": np.nan}, "gamma_fixed must be non-negative"),
        ({"gamma_fixed": np.inf}, "gamma_fixed must be finite"),
        ({"gamma_fixed": 0.0, "zeta_mode": "ratio"}, "gamma_fixed must be positive"),
        ({"gamma_fixed": np.nan, "zeta_mode": "ratio"}, "gamma_fixed must be positive"),
        ({"zeta_fixed": 0.0}, "zeta_fixed must be positive"),
        ({"zeta_fixed": -1.0}, "zeta_fixed must be positive"),
        ({"zeta_fixed": np.nan}, "zeta_fixed must be positive"),
        ({"zeta_fixed": np.inf}, "zeta_fixed must be finite"),
        ({"q_birth": np.nan}, "q_birth must lie strictly between 0 and 1"),
    ])
    def test_number_in_use_must_be_finite_and_in_range(self, kwargs, message):
        # alpha0 = inf is caught here: a sampler started with it would
        # redraw NaN Dirichlet weights forever
        with pytest.raises(ValueError, match=f"^{message}$"):
            Hyperparams(**kwargs)

    def test_numbers_of_any_real_type_are_accepted(self):
        hyper = Hyperparams(alpha0=1, lam=np.float32(3.0), nu0=np.int64(2), q_birth=0.5,
                            v0=[[1, 0], [0, 1]], adapt=np.False_).resolved(2)
        assert hyper.nu0 == 2.0 and hyper.v0.dtype == float

    def test_zero_gamma_and_unused_zeta_fixed_are_accepted(self):
        Hyperparams(gamma_fixed=0.0)
        Hyperparams(zeta_mode="gamma", zeta_fixed=np.nan)
        Hyperparams(zeta_mode="ratio", zeta_fixed=np.inf)

    @pytest.mark.parametrize("kwargs,message", [
        ({"nu0": np.inf}, "nu0 must be finite"),
        ({"v0": [[1.0, 0.0], [0.0, np.inf]]}, "v0 must be finite"),
        ({"v0": [[1.0, np.nan], [np.nan, 1.0]]}, "v0 must be finite"),
    ])
    def test_resolved_requires_finite_covariance_prior(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Hyperparams(**kwargs).resolved(2)

    def test_hyperprior_not_in_use_is_unchecked(self):
        Hyperparams(gamma_fixed=1.0, gamma_shape=0.0, gamma_rate=0.0)
        for mode in ("fixed", "ratio"):
            Hyperparams(zeta_mode=mode, zeta_shape=-1.0, zeta_rate=0.0)
        for mode in ("fixed", "gamma"):
            Hyperparams(zeta_mode=mode, rho=0.0)


class TestBenchmark:
    def test_shapes_and_determinism(self):
        y1, labels1 = simulate_benchmark(7)
        y2, labels2 = simulate_benchmark(7)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(labels1, labels2)
        assert y1.shape == (300, 2)
        assert labels1.shape == (300,)
        assert set(np.unique(labels1)) <= set(range(5))

    def test_frozen_label_counts(self):
        _, labels = simulate_benchmark(7)
        np.testing.assert_array_equal(np.bincount(labels, minlength=5),
                                      [63, 57, 54, 99, 27])

    def test_planted_structure(self):
        assert BENCHMARK_WEIGHTS.sum() == pytest.approx(1.0)
        assert BENCHMARK_MEANS.shape == (5, 2)
        assert BENCHMARK_COVS.shape == (5, 2, 2)
        y, labels = simulate_benchmark(0, n_obs=6000)
        for k in range(5):
            np.testing.assert_allclose(y[labels == k].mean(axis=0),
                                       BENCHMARK_MEANS[k], atol=0.35)

    def test_custom_size(self):
        y, labels = simulate_benchmark(1, n_obs=50)
        assert y.shape == (50, 2) and labels.shape == (50,)

    @pytest.mark.parametrize("n_obs", [0, -3, 2.5, 50.0, True])
    def test_refuses_empty_dataset(self, n_obs):
        with pytest.raises(ValueError, match="^n_obs must be an integer >= 1$"):
            simulate_benchmark(1, n_obs=n_obs)
