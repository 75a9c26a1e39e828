"""The planted five-component benchmark of the paper, on numpy alone."""

import numpy as np

__all__ = ["simulate_benchmark", "BENCHMARK_WEIGHTS", "BENCHMARK_MEANS", "BENCHMARK_COVS"]

BENCHMARK_WEIGHTS = np.array([0.2, 0.2, 0.2, 0.3, 0.1])
BENCHMARK_MEANS = np.array(
    [[-3.0, -2.5], [-3.0, 3.0], [3.0, -3.0], [3.0, 3.0], [-1.0, 0.0]]
)
BENCHMARK_COVS = np.array(
    [[[3.0, 1.0], [1.0, 3.0]]] * 4 + [[[0.25, 0.0], [0.0, 0.25]]]
)


def simulate_benchmark(seed, n_obs=300):
    """Generate the planted five-component benchmark dataset.

    Returns (y, labels) with y of shape (n_obs, 2) and 0-based true labels.
    Deterministic for a given seed on any platform (Cholesky-based normals).
    """
    rng = np.random.default_rng(seed)
    labels = rng.choice(BENCHMARK_WEIGHTS.size, size=n_obs, p=BENCHMARK_WEIGHTS)
    y = np.empty((n_obs, 2))
    for j in range(BENCHMARK_WEIGHTS.size):
        idx = np.flatnonzero(labels == j)
        if idx.size:
            y[idx] = rng.multivariate_normal(
                BENCHMARK_MEANS[j], BENCHMARK_COVS[j], size=idx.size, method="cholesky"
            )
    return y, labels
