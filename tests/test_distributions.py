"""Log-density helpers and the inverse-Wishart sampler against scipy."""

import numpy as np
import pytest
from scipy import stats

from helpers import dirichlet_log_pdf, gaussian_log_pdf, sample_invwishart_ref
from selmix.distributions import (
    LOG_2PI,
    gamma_log_pdf,
    invwishart_log_pdf,
    pairwise_log_gap_sum,
    sample_invwishart,
)


rng = np.random.default_rng(314)


class TestLogDensities:
    def test_dirichlet_matches_scipy(self):
        for _ in range(20):
            m = int(rng.integers(2, 6))
            alpha = rng.uniform(0.3, 4.0, size=m)
            w = rng.dirichlet(alpha)
            assert dirichlet_log_pdf(w, alpha) == pytest.approx(
                stats.dirichlet.logpdf(w, alpha), rel=1e-11)

    def test_gamma_matches_scipy(self):
        for _ in range(20):
            shape, rate = rng.uniform(0.5, 5.0, size=2)
            x = rng.gamma(shape, 1.0 / rate)
            assert gamma_log_pdf(x, shape, rate) == pytest.approx(
                stats.gamma.logpdf(x, a=shape, scale=1.0 / rate), rel=1e-11)

    def test_gaussian_matches_scipy(self):
        for d in (1, 2, 4):
            mean = rng.normal(size=d)
            a = rng.normal(size=(d, d))
            cov = a @ a.T + 0.5 * np.eye(d)
            x = rng.normal(size=d)
            assert gaussian_log_pdf(x, mean, cov) == pytest.approx(
                stats.multivariate_normal.logpdf(x, mean, cov), rel=1e-11)

    def test_invwishart_matches_scipy(self):
        for d in (1, 2, 3):
            a = rng.normal(size=(d, d))
            scale = a @ a.T + np.eye(d)
            df = d + rng.uniform(0.5, 3.0)
            b = rng.normal(size=(d, d))
            x = b @ b.T + 0.5 * np.eye(d)
            assert invwishart_log_pdf(x, scale, df) == pytest.approx(
                stats.invwishart.logpdf(x, df=df, scale=scale), rel=1e-11)

    def test_log_2pi(self):
        assert LOG_2PI == pytest.approx(np.log(2.0 * np.pi), rel=1e-15)


class TestPairwiseGaps:
    def test_value(self):
        x = np.array([0.1, 0.4, 0.9])
        want = np.log(0.3) + np.log(0.8) + np.log(0.5)
        assert pairwise_log_gap_sum(x) == pytest.approx(want, rel=1e-12)

    def test_tie_is_minus_inf(self):
        assert pairwise_log_gap_sum(np.array([0.4, 0.4, 0.9])) == -np.inf

    def test_short_vectors_contribute_nothing(self):
        assert pairwise_log_gap_sum(np.array([0.7])) == 0.0
        assert pairwise_log_gap_sum(np.array([])) == 0.0


class TestInverseWishartSampler:
    def test_mean_matches_closed_form(self):
        d, df = 2, 7.0
        scale = np.array([[2.0, 0.4], [0.4, 1.0]])
        r = np.random.default_rng(99)
        draws = np.mean([sample_invwishart(r, scale, df) for _ in range(4000)], axis=0)
        want = scale / (df - d - 1.0)
        assert np.allclose(draws, want, rtol=0.08)

    def test_univariate_reduces_to_inverse_gamma(self):
        df, psi = 5.0, 3.0
        r = np.random.default_rng(7)
        draws = np.array([sample_invwishart(r, np.array([[psi]]), df)[0, 0]
                          for _ in range(3000)])
        marginal = stats.invgamma(a=df / 2.0, scale=psi / 2.0)
        assert stats.kstest(draws, marginal.cdf).pvalue > 1e-3

    def test_draws_are_symmetric_positive_definite(self):
        r = np.random.default_rng(12)
        scale = np.array([[1.5, 0.2], [0.2, 0.8]])
        for _ in range(50):
            s = sample_invwishart(r, scale, 3.0)
            assert np.allclose(s, s.T)
            np.linalg.cholesky(s)

    def test_deterministic_given_seed(self):
        scale = np.eye(2)
        a = sample_invwishart(np.random.default_rng(5), scale, 4.0)
        b = sample_invwishart(np.random.default_rng(5), scale, 4.0)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_stack_equals_single_draws_in_order(self, d):
        r = np.random.default_rng(40 + d)
        for m in range(1, 7):
            a = r.normal(size=(m, d, d))
            scales = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(d)
            dfs = d - 1 + r.uniform(0.05, 6.0, size=m)
            stacked_rng, single_rng, ref_rng = (np.random.default_rng(m) for _ in range(3))
            stacked = sample_invwishart(stacked_rng, scales, dfs)
            singles = [sample_invwishart(single_rng, s, df) for s, df in zip(scales, dfs)]
            refs = [sample_invwishart_ref(ref_rng, s, df) for s, df in zip(scales, dfs)]
            assert stacked.shape == (m, d, d) and singles[0].shape == (d, d)
            np.testing.assert_array_equal(stacked, np.stack(singles))
            np.testing.assert_array_equal(stacked, np.stack(refs))
            assert stacked_rng.bit_generator.state == single_rng.bit_generator.state
            assert stacked_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_one_df_serves_the_whole_stack(self, d):
        scales = np.tile(np.eye(d), (4, 1, 1))
        one_rng, each_rng = np.random.default_rng(d), np.random.default_rng(d)
        np.testing.assert_array_equal(sample_invwishart(one_rng, scales, d + 0.5),
                                      sample_invwishart(each_rng, scales, np.full(4, d + 0.5)))
        assert one_rng.bit_generator.state == each_rng.bit_generator.state

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_too_few_degrees_of_freedom_anywhere_in_the_stack(self, d):
        scales = np.tile(np.eye(d), (3, 1, 1))
        for bad in (d - 1.0, d - 1.5):
            for j in range(3):
                dfs = np.full(3, d + 2.0)
                dfs[j] = bad
                with pytest.raises(ValueError):
                    sample_invwishart(np.random.default_rng(0), scales, dfs)
            with pytest.raises(ValueError):
                sample_invwishart(np.random.default_rng(0), np.eye(d), bad)
