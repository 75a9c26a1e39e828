"""Small statistics used by the benchmark: quantiles and effective sample size."""

from __future__ import annotations

import statistics

import numpy as np


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, q):
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def ess(x):
    """Effective sample size of one chain by Geyer's initial monotone sequence.

    The autocorrelations come from an FFT; pairs of consecutive lags are
    summed while positive and forced non-increasing.  A constant series has
    no autocorrelation to estimate and reports its length.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    if np.all(x == x[0]):
        return float(n)
    xc = x - x.mean()
    spec = np.fft.rfft(xc, 2 * n)
    acov = np.fft.irfft(spec * np.conj(spec))[:n]
    rho = acov / acov[0]
    pair_sums = rho[: n - n % 2].reshape(-1, 2).sum(axis=1)
    positive = pair_sums > 0.0
    stop = pair_sums.size if positive.all() else int(np.argmin(positive))
    pair_sums = np.minimum.accumulate(pair_sums[:stop])
    tau = -1.0 + 2.0 * float(pair_sums.sum())
    return float(n / max(tau, 1.0 / n))


def multi_chain_ess(chains):
    """Sum of the per-chain effective sample sizes."""
    return float(sum(ess(c) for c in chains))
