"""Gaussian ensemble prior: constants, densities, exact and MH sampling."""

import re

import numpy as np
import pytest
from scipy import stats

from helpers import batch_means_se, ensemble_constant_quad_m2, sample_ge_mh
from selmix.ensemble import GeParams, ge_log_density, ge_log_norm_const, sample_ge


class TestNormalizingConstant:
    def test_single_coordinate_is_gaussian(self):
        for zeta in (0.3, 1.0, 2.5):
            got = ge_log_norm_const(GeParams(zeta, 1))
            assert got == pytest.approx(0.5 * np.log(2.0 * np.pi / zeta), rel=1e-13)

    def test_frozen_pair_value(self):
        assert np.exp(ge_log_norm_const(GeParams(2.0, 2))) == pytest.approx(np.pi, rel=1e-12)

    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    def test_pair_constant_matches_quadrature(self, zeta):
        got = np.exp(ge_log_norm_const(GeParams(zeta, 2)))
        assert got == pytest.approx(ensemble_constant_quad_m2(zeta), rel=1e-7)

    def test_triple_constant_matches_gauss_hermite(self):
        # zeta = 2 makes the integrand a polynomial times exp(-x^2) in each
        # coordinate, so Gauss-Hermite quadrature is exact
        nodes, weights = np.polynomial.hermite.hermgauss(8)
        total = 0.0
        for i, x in enumerate(nodes):
            for j, y in enumerate(nodes):
                for k, z in enumerate(nodes):
                    poly = ((x - y) * (x - z) * (y - z)) ** 2
                    total += weights[i] * weights[j] * weights[k] * poly
        got = np.exp(ge_log_norm_const(GeParams(2.0, 3)))
        assert got == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("zeta,m", [(1e307, 2), (1e305, 4), (3e301, 200)])
    def test_overflowing_constant_names_zeta(self, zeta, m):
        # RuntimeWarnings are errors under the test configuration
        message = f"zeta = {zeta!r} overflows the ensemble constant at m = {m}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ge_log_norm_const(GeParams(zeta, m))

    def test_single_coordinate_stays_finite_for_any_zeta(self):
        for zeta in (1e306, 1.7e308):
            got = ge_log_norm_const(GeParams(zeta, 1))
            assert got == pytest.approx(0.5 * np.log(2.0 * np.pi / zeta), rel=1e-13)


class TestDensity:
    def test_pair_density_formula(self):
        x = np.array([0.7, -0.4])
        zeta = 1.5
        want = (-ge_log_norm_const(GeParams(zeta, 2))
                - 0.5 * zeta * (x ** 2).sum()
                + zeta * np.log(abs(x[0] - x[1])))
        assert ge_log_density(x, GeParams(zeta, 2)) == pytest.approx(want, rel=1e-12)

    def test_tied_coordinates_get_zero_mass(self):
        assert ge_log_density(np.array([0.5, 0.5, 1.0]), GeParams(1.0, 3)) == -np.inf

    @pytest.mark.parametrize("scale", [1e200, 1e308])
    def test_overflowing_squares_get_zero_mass(self, scale):
        # the confinement falls as x^2 and the repulsion rises only as log |x|
        for zeta, x in [(1.0, [scale, -scale]), (0.5, [scale, 3.0, -scale])]:
            assert ge_log_density(np.array(x), GeParams(zeta, len(x))) == -np.inf

    def test_huge_zeta_never_gives_nan(self):
        # the constant overflows: an error naming zeta, not NaN
        with pytest.raises(ValueError, match=re.escape("zeta = 1e+307 overflows")):
            ge_log_density(np.array([1e100, -1e100]), GeParams(1e307, 2))
        # the confinement term alone overflows
        assert ge_log_density(np.array([1e10, -1e10]), GeParams(1e300, 2)) == -np.inf
        # confinement and repulsion overflow in opposite directions while the
        # constant stays finite
        x = np.linspace(-1e153, 1e153, 200)
        params = GeParams(2.6e301, 200)
        assert np.isfinite(ge_log_norm_const(params))
        assert ge_log_density(x, params) == -np.inf

    def test_integrates_to_one_for_pair(self):
        # zeta = 2 keeps the integrand smooth across the diagonal
        zeta = 2.0
        params = GeParams(zeta, 2)

        def f(y, x):
            return np.exp(ge_log_density(np.array([x, y]), params))

        from scipy import integrate
        val, _ = integrate.dblquad(f, -np.inf, np.inf, -np.inf, np.inf,
                                   epsabs=1e-10, epsrel=1e-8)
        assert val == pytest.approx(1.0, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            ge_log_density(np.array([1.0, 2.0]), GeParams(1.0, 3))
        with pytest.raises(ValueError):
            ge_log_density(np.array([np.nan, 2.0]), GeParams(1.0, 2))
        with pytest.raises(ValueError):
            GeParams(0.0, 2)
        with pytest.raises(ValueError):
            GeParams(1.0, 0)

    @pytest.mark.parametrize("m", [3.0, np.float64(3.0), True], ids=["float", "float64", "bool"])
    def test_size_must_be_an_integer(self, m):
        with pytest.raises(ValueError, match="^m must be an integer >= 1$"):
            GeParams(1.0, m)
        assert GeParams(1.0, np.int64(3)).m == 3

    @pytest.mark.parametrize("zeta,message", [
        (np.inf, "zeta must be finite"),
        (-np.inf, "zeta must be finite"),
        (np.nan, "zeta must be positive"),
    ])
    def test_non_finite_zeta_names_the_field(self, zeta, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GeParams(zeta, 2)


class TestSampling:
    def test_shapes_and_determinism(self):
        params = GeParams(1.0, 4)
        a = sample_ge(params, 50, np.random.default_rng(3))
        b = sample_ge(params, 50, np.random.default_rng(3))
        assert a.shape == (50, 4)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [0, -2, 2.5, 3.0, True])
    def test_needs_a_draw(self, n):
        with pytest.raises(ValueError, match="^n must be an integer >= 1$"):
            sample_ge(GeParams(1.0, 3), n, np.random.default_rng(0))

    def test_single_coordinate_is_standard_gaussian_scaled(self):
        zeta = 2.0
        draws = sample_ge(GeParams(zeta, 1), 4000, np.random.default_rng(8))
        assert stats.kstest(draws[:, 0], stats.norm(0.0, 1.0 / np.sqrt(zeta)).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("m,zeta", [(3, 1.0), (5, 0.5)])
    def test_quadratic_moment_identities(self, m, zeta):
        rng = np.random.default_rng(21)
        draws = sample_ge(GeParams(zeta, m), 20000, rng)
        sumsq = (draws ** 2).sum(axis=1)
        want_sumsq = m / zeta + m * (m - 1) / 2.0
        z = (sumsq.mean() - want_sumsq) / batch_means_se(sumsq)
        assert abs(z) < 4.0
        total = draws.sum(axis=1) ** 2
        z = (total.mean() - m / zeta) / batch_means_se(total)
        assert abs(z) < 4.0

    @pytest.mark.parametrize("m,zeta,burn,thin", [
        (2, 0.5, 2000, 5),
        (3, 1.0, 2000, 5),
        # strong repulsion locks the coordinates into a slowly diffusing
        # ordered configuration, so the walker needs a much longer chain
        (5, 3.0, 30000, 150),
    ])
    def test_exact_and_mh_samplers_agree(self, m, zeta, burn, thin):
        params = GeParams(zeta, m)
        exact = sample_ge(params, 3000, np.random.default_rng(100 + m))
        walked = sample_ge_mh(params, 3000, np.random.default_rng(200 + m),
                              burn_in=burn, thin=thin)
        # coordinates within a draw are exchangeable, so the first column
        # of each sampler holds i.i.d. draws from the same marginal
        assert stats.ks_2samp(exact[:, 0], walked[:, 0]).pvalue > 1e-3

    def test_coordinates_are_exchangeable(self):
        # the exact sampler shuffles eigenvalues; column means must agree
        draws = sample_ge(GeParams(1.0, 3), 20000, np.random.default_rng(4))
        for d in range(3):
            z = draws[:, d].mean() / batch_means_se(draws[:, d])
            assert abs(z) < 4.0
