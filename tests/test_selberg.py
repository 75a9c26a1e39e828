"""Selberg Dirichlet distribution: constants, moments, densities, sampling."""

import re

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from helpers import (
    assert_near_scipy,
    batch_means_se,
    sdir_log_density_ref,
    sdir_log_norm_const_ref,
    selberg_constant_quad_m3,
)
from selmix import selberg
from selmix.distributions import validate_weights
from selmix.selberg import (
    SdirParams,
    internal_dispersion_expectation,
    sample_sdir,
    sdir_log_density,
    sdir_log_norm_const,
    sdir_moments,
)


def eta(alpha, gamma, m):
    return alpha * m + (m - 1) * (m - 2) * gamma


class TestNormalizingConstant:
    @pytest.mark.parametrize("alpha,gamma,m,expected", [
        (1.0, 0.0, 3, 0.5),
        (1.0, 1.0, 3, 1.0 / 12.0),
        (1.0, 2.0, 3, 1.0 / 30.0),
        (2.0, 0.0, 2, 1.0 / 6.0),
        (0.5, 0.0, 3, 2.0 * np.pi),
    ])
    def test_frozen_values(self, alpha, gamma, m, expected):
        got = np.exp(sdir_log_norm_const(SdirParams(alpha, gamma, m)))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_two_components_ignore_repulsion(self):
        # with only one repelled coordinate there are no pairs, so the
        # constant must collapse to the plain Dirichlet beta function
        for alpha in (0.5, 1.0, 2.5):
            expected = 2.0 * gammaln(alpha) - gammaln(2.0 * alpha)
            for gamma in (0.0, 0.7, 2.0):
                got = sdir_log_norm_const(SdirParams(alpha, gamma, 2))
                assert got == pytest.approx(expected, rel=1e-13)

    def test_single_component_degenerates_to_point_mass(self):
        assert sdir_log_norm_const(SdirParams(1.5, 2.0, 1)) == pytest.approx(0.0)
        assert sdir_log_density(np.array([1.0]), SdirParams(1.5, 2.0, 1)) == pytest.approx(0.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 3.0])
    def test_matches_simplex_quadrature(self, alpha, gamma):
        got = np.exp(sdir_log_norm_const(SdirParams(alpha, gamma, 3)))
        want = selberg_constant_quad_m3(alpha, gamma)
        assert got == pytest.approx(want, rel=1e-8)

    def test_dirichlet_reduction_any_m(self):
        for alpha, m in [(0.7, 4), (2.0, 5), (1.3, 6)]:
            got = sdir_log_norm_const(SdirParams(alpha, 0.0, m))
            want = m * gammaln(alpha) - gammaln(m * alpha)
            assert got == pytest.approx(want, rel=1e-13)


class TestSharedProduct:
    """The cached constant stays bitwise equal to its standalone loop."""

    ALPHAS = (0.05, 0.5, 1.0, 2.0, 7.3)
    GAMMAS = (0.0, 0.25, 1.0, 3.0)
    MS = (1, 2, 3, 4, 5, 8, 12, 60)

    def test_sdir_constant_is_bitwise_unchanged(self):
        for alpha in self.ALPHAS:
            for gamma in self.GAMMAS:
                for m in self.MS:
                    params = SdirParams(alpha, gamma, m)
                    got = sdir_log_norm_const(params)
                    assert got == sdir_log_norm_const_ref(params), params
                    assert_near_scipy(got, sdir_log_norm_const_ref(params, lgamma=gammaln))


class TestMoments:
    def test_frozen_values(self):
        mom = sdir_moments(SdirParams(1.0, 1.0, 3))
        assert mom.mean == pytest.approx(0.2, rel=1e-12)
        assert mom.second_moment == pytest.approx(1.0 / 15.0, rel=1e-12)
        assert mom.variance == pytest.approx(2.0 / 75.0, rel=1e-12)
        assert mom.marginal_k_moment == pytest.approx(0.2, rel=1e-12)
        assert mom.product_moment_k == pytest.approx(1.0 / 105.0, rel=1e-12)

    def test_closed_forms_across_grid(self):
        for alpha in (0.5, 1.0, 2.0):
            for gamma in (0.0, 0.5, 3.0):
                for m in (3, 5):
                    e = eta(alpha, gamma, m)
                    mom = sdir_moments(SdirParams(alpha, gamma, m), k=2)
                    assert mom.mean == pytest.approx(alpha / e, rel=1e-12)
                    assert mom.variance == pytest.approx(
                        mom.mean * (1.0 - mom.mean) / (e + 1.0), rel=1e-12)
                    want_k2 = np.exp(gammaln(alpha + 2) + gammaln(e)
                                     - gammaln(alpha) - gammaln(e + 2))
                    assert mom.marginal_k_moment == pytest.approx(want_k2, rel=1e-12)

    def test_mean_matches_quadrature(self):
        alpha, gamma = 1.5, 1.0
        plain = selberg_constant_quad_m3(alpha, gamma)
        weighted = selberg_constant_quad_m3(alpha, gamma,
                                            weight=lambda w1, w2, w3: w3)
        assert weighted / plain == pytest.approx(alpha / eta(alpha, gamma, 3), rel=1e-7)

    def test_product_moment_matches_quadrature(self):
        alpha, gamma, k = 1.0, 1.0, 1
        plain = selberg_constant_quad_m3(alpha, gamma)
        weighted = selberg_constant_quad_m3(
            alpha, gamma, weight=lambda w1, w2, w3: (w1 * w2 * w3) ** k)
        mom = sdir_moments(SdirParams(alpha, gamma, 3), k=k)
        assert mom.product_moment_k == pytest.approx(weighted / plain, rel=1e-7)

    def test_variance_decreases_in_gamma(self):
        for alpha in (0.5, 1.0, 2.0):
            for m in (3, 4, 5):
                variances = [sdir_moments(SdirParams(alpha, g, m)).variance
                             for g in (0.0, 0.5, 1.0, 3.0)]
                assert all(a > b for a, b in zip(variances, variances[1:]))


class TestInternalDispersion:
    def test_unit_at_zero(self):
        assert internal_dispersion_expectation(SdirParams(1.0, 1.0, 4), 0.0) == pytest.approx(1.0)

    def test_equals_constant_ratio(self):
        params = SdirParams(1.5, 0.5, 4)
        for tau in (0.5, 2.0):
            want = np.exp(sdir_log_norm_const(SdirParams(1.5, 0.5 + tau / 2.0, 4))
                          - sdir_log_norm_const(params))
            assert internal_dispersion_expectation(params, tau) == pytest.approx(want, rel=1e-12)

    def test_directions(self):
        base = internal_dispersion_expectation(SdirParams(1.0, 1.0, 4), 1.0)
        assert internal_dispersion_expectation(SdirParams(1.0, 2.0, 4), 1.0) > base
        assert internal_dispersion_expectation(SdirParams(2.0, 1.0, 4), 1.0) < base
        assert internal_dispersion_expectation(SdirParams(1.0, 1.0, 5), 1.0) < base
        assert internal_dispersion_expectation(SdirParams(1.0, 1.0, 4), 2.0) < base


class TestDensity:
    def test_density_assembles_from_parts(self):
        w = np.array([0.5, 0.3, 0.2])
        params = SdirParams(3.0, 1.0, 3)
        want = (-sdir_log_norm_const(params)
                + 2.0 * np.log(w).sum()
                + 2.0 * np.log(0.2))
        assert sdir_log_density(w, params) == pytest.approx(want, rel=1e-12)

    def test_gamma_zero_reduces_to_dirichlet(self):
        rng = np.random.default_rng(5)
        for alpha, m in [(0.5, 3), (1.0, 4), (2.5, 5)]:
            w = rng.dirichlet(np.full(m, 2.0))
            got = sdir_log_density(w, SdirParams(alpha, 0.0, m))
            want = stats.dirichlet.logpdf(w, np.full(m, alpha))
            assert got == pytest.approx(want, rel=1e-10)

    def test_repelled_tie_gets_zero_mass(self):
        w = np.array([0.3, 0.3, 0.4])
        assert sdir_log_density(w, SdirParams(1.0, 1.0, 3)) == -np.inf
        # the unrepelled last coordinate may tie one of the first ones
        w = np.array([0.4, 0.3, 0.3])
        assert np.isfinite(sdir_log_density(w, SdirParams(1.0, 1.0, 3)))

    def test_boundary_weights(self):
        w = np.array([0.0, 0.6, 0.4])
        assert sdir_log_density(w, SdirParams(2.0, 0.5, 3)) == -np.inf
        assert sdir_log_density(w, SdirParams(0.5, 0.5, 3)) == np.inf

    def test_density_equals_its_own_kernel_bitwise(self):
        # the density against a frozen copy of its own arithmetic, on ties,
        # zero weights and m = 1
        rng = np.random.default_rng(2024)
        outcomes = set()
        for trial in range(20000):
            m = int(rng.integers(1, 8))
            alpha = float(rng.choice([0.5, 1.0, 2.0, rng.uniform(0.05, 5.0)]))
            gamma = float(rng.choice([0.0, rng.uniform(0.0, 3.0)]))
            w = rng.dirichlet(np.ones(m))
            kind = trial % 5
            if kind == 1 and m > 2:
                w[1] = w[0]
            elif kind == 2 and m > 1:
                w[int(rng.integers(m))] = 0.0
            elif kind == 3 and m > 1:
                w[0] += 0.1
            w = w / w.sum() if kind != 3 else w
            params = SdirParams(alpha, gamma, m)
            try:
                want = sdir_log_density_ref(w, params)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    sdir_log_density(w, params)
                outcomes.add("error")
                continue
            got = sdir_log_density(w, params)
            assert type(got) is float
            assert np.array_equal(got, want, equal_nan=True), (w, params)
            outcomes.add(got if np.isinf(got) else "finite")
        assert outcomes == {"error", "finite", np.inf, -np.inf}


class TestValidation:
    def test_weight_checks(self):
        with pytest.raises(ValueError):
            validate_weights(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            validate_weights(np.array([0.7, -0.2, 0.5]))
        with pytest.raises(ValueError):
            validate_weights(np.array([0.5, 0.5]), m=3)
        for w in ([[0.5, 0.5]], []):
            with pytest.raises(ValueError, match="^weights must form a non-empty vector$"):
                validate_weights(np.array(w))
        # NaN compares False with both bounds and must still be refused
        for w in ([np.nan, 0.5, 0.5], [0.5, 0.5, np.nan], [np.nan]):
            with pytest.raises(ValueError, match=r"^weights must lie in \[0, 1\]$"):
                validate_weights(np.array(w))

    def test_parameter_checks(self):
        with pytest.raises(ValueError):
            SdirParams(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            SdirParams(1.0, -0.5, 3)
        with pytest.raises(ValueError):
            SdirParams(1.0, 1.0, 0)

    @pytest.mark.parametrize("alpha,gamma,message", [
        (np.inf, 1.0, "alpha must be finite"),
        (-np.inf, 1.0, "alpha must be finite"),
        (np.nan, 1.0, "alpha must be positive"),
        (1.0, np.inf, "gamma must be finite"),
        (1.0, -np.inf, "gamma must be finite"),
        (1.0, np.nan, "gamma must be non-negative"),
        (True, 1.0, "alpha must be a number, got True"),
        ("1", 1.0, "alpha must be a number, got '1'"),
        (1.0, True, "gamma must be a number, got True"),
        (1.0, "1", "gamma must be a number, got '1'"),
    ])
    def test_non_finite_parameters_name_the_field(self, alpha, gamma, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SdirParams(alpha, gamma, 3)

    @pytest.mark.parametrize("k", [0, -1, 1.5, True, 2.0])
    def test_moment_order_must_be_a_positive_integer(self, k):
        with pytest.raises(ValueError, match="^k must be an integer >= 1$"):
            sdir_moments(SdirParams(1.0, 1.0, 3), k=k)

    @pytest.mark.parametrize("n", [0, -2, 2.5, 3.0, True])
    def test_sampler_needs_a_draw(self, n):
        with pytest.raises(ValueError, match="^n must be an integer >= 1$"):
            sample_sdir(SdirParams(1.0, 1.0, 3), n, np.random.default_rng(0))

    @pytest.mark.parametrize("m", [3.0, np.float64(3.0), True], ids=["float", "float64", "bool"])
    def test_size_must_be_an_integer(self, m):
        with pytest.raises(ValueError, match="^m must be an integer >= 1$"):
            SdirParams(1.0, 1.0, m)
        assert SdirParams(1.0, 1.0, np.int64(3)).m == 3

    @pytest.mark.parametrize("tau,message", [
        (np.inf, "tau must be finite"),
        (np.nan, "tau must be non-negative"),
        (-1.0, "tau must be non-negative"),
        (True, "tau must be a number, got True"),
        ("1", "tau must be a number, got '1'"),
    ])
    def test_dispersion_refuses_unusable_tau(self, tau, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            internal_dispersion_expectation(SdirParams(1.0, 1.0, 4), tau)


class TestSampling:
    def test_gamma_zero_is_exact_dirichlet(self):
        params = SdirParams(1.5, 0.0, 4)
        rng = np.random.default_rng(11)
        draws = sample_sdir(params, 4000, rng)
        assert draws.shape == (4000, 4)
        marginal = stats.beta(1.5, 3 * 1.5)
        assert stats.kstest(draws[:, -1], marginal.cdf).pvalue > 1e-3

    @pytest.mark.parametrize("alpha,gamma,m", [(1.0, 1.0, 3), (2.0, 0.5, 4)])
    def test_last_coordinate_moments(self, alpha, gamma, m):
        params = SdirParams(alpha, gamma, m)
        rng = np.random.default_rng(202)
        draws = sample_sdir(params, 20000, rng)
        mom = sdir_moments(params)
        x = draws[:, -1]
        z_mean = (x.mean() - mom.mean) / batch_means_se(x)
        assert abs(z_mean) < 4.0
        sq = (x - mom.mean) ** 2
        z_var = (sq.mean() - mom.variance) / batch_means_se(sq)
        assert abs(z_var) < 4.0

    def test_repelled_coordinates_share_their_mean(self):
        params = SdirParams(1.0, 1.0, 4)
        rng = np.random.default_rng(77)
        draws = sample_sdir(params, 20000, rng)
        e = eta(1.0, 1.0, 4)
        shared = (1.0 - 1.0 / e) / 3.0
        for d in range(3):
            z = (draws[:, d].mean() - shared) / batch_means_se(draws[:, d])
            assert abs(z) < 4.0

    def test_rows_live_on_simplex(self):
        params = SdirParams(1.0, 2.0, 3)
        rng = np.random.default_rng(3)
        draws = sample_sdir(params, 500, rng)
        assert np.allclose(draws.sum(axis=1), 1.0, atol=1e-9)
        assert draws.min() >= 0.0

    def test_deterministic_given_seed(self):
        params = SdirParams(1.0, 1.0, 3)
        a = sample_sdir(params, 200, np.random.default_rng(9))
        b = sample_sdir(params, 200, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


def iid_z(x, expected):
    """Z-score of the sample mean of independent draws against ``expected``."""
    return (x.mean() - expected) / (x.std(ddof=1) / np.sqrt(x.size))


class TestExactSampling:
    """The beta-Laguerre draw: independent rows with the closed-form law.

    Draw counts and bounds were fixed before the first run: 40,000 draws
    per (alpha, gamma, M) and |z| < 4.5 on 135 scores.
    """

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 3.0])
    def test_moments_and_dispersion(self, alpha, gamma):
        rng = np.random.default_rng(20261018)
        for m in (3, 4, 6, 9, 12):
            params = SdirParams(alpha, gamma, m)
            draws = sample_sdir(params, 40000, rng)
            mom = sdir_moments(params)
            last = draws[:, -1]
            core = draws[:, :-1]
            i, j = np.triu_indices(m - 1, 1)
            dispersion = np.exp(np.log(np.abs(core[:, i] - core[:, j])).sum(axis=1))
            scores = (
                iid_z(last, mom.mean),
                iid_z((last - mom.mean) ** 2, mom.variance),
                iid_z(dispersion, internal_dispersion_expectation(params, 1.0)),
            )
            assert max(abs(z) for z in scores) < 4.5, (m, scores)

    @pytest.mark.parametrize("alpha,gamma,m", [(1.0, 3.0, 8), (0.5, 1.0, 12), (2.0, 0.5, 5)])
    def test_last_coordinate_is_beta(self, alpha, gamma, m):
        draws = sample_sdir(SdirParams(alpha, gamma, m), 10000, np.random.default_rng(5))
        e = eta(alpha, gamma, m)
        assert stats.kstest(draws[:, -1], stats.beta(alpha, e - alpha).cdf).pvalue > 1e-3

    def test_draws_are_distinct_under_strong_repulsion(self):
        draws = sample_sdir(SdirParams(1.0, 3.0, 8), 10000, np.random.default_rng(5))
        assert np.unique(draws, axis=0).shape[0] == 10000

    def test_small_alpha_rows_stay_on_simplex(self):
        draws = sample_sdir(SdirParams(0.05, 3.0, 8), 100000, np.random.default_rng(6))
        assert draws.min() >= 0.0
        assert np.abs(draws.sum(axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("gamma,m", [(0.0, 4), (2.0, 1), (2.0, 2)])
    def test_dirichlet_cases_draw_the_dirichlet(self, gamma, m):
        got = sample_sdir(SdirParams(1.5, gamma, m), 300, np.random.default_rng(8))
        want = np.random.default_rng(8).dirichlet(np.full(m, 1.5), size=300)
        np.testing.assert_array_equal(got, want)

    def test_draws_do_not_depend_on_the_svd_block_size(self, monkeypatch):
        params = SdirParams(0.7, 1.5, 6)
        whole = sample_sdir(params, 1000, np.random.default_rng(2))
        monkeypatch.setattr(selberg, "_SVD_BLOCK_ENTRIES", 7 * 25)
        blocked = sample_sdir(params, 1000, np.random.default_rng(2))
        np.testing.assert_array_equal(blocked, whole)
