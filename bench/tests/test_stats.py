import numpy as np
import pytest

from stats import ess, multi_chain_ess, percentile, quartiles


def ar1(phi, n, seed):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
def test_ess_recovers_ar1(phi):
    n = 200_000
    expected = n * (1.0 - phi) / (1.0 + phi)
    assert ess(ar1(phi, n, seed=3)) == pytest.approx(expected, rel=0.05)


def test_multi_chain_ess_sums_chains():
    chains = [ar1(0.5, 50_000, seed=s) for s in (1, 2)]
    assert multi_chain_ess(chains) == pytest.approx(ess(chains[0]) + ess(chains[1]))


def test_constant_series_reports_its_length():
    assert ess(np.full(100, 2.5)) == 100.0


def test_quartiles_and_percentile():
    values = list(range(1, 101))
    assert quartiles(values)[1] == 50.5
    assert percentile(values, 99) == 99
    assert percentile(values, 50) == 50
