"""The benchmark's workloads: inputs made from the workload seed, and CLI argv.

Each workload derives a data seed and per-operation chain seeds from the
workload seed; the program sees only the generated CSV and the flags.

- ``planted``: the paper's planted benchmark (``selmix simulate``, n=300,
  d=2), fixed gamma=1 and zeta=0.1, default reversible kernel, one chain.
  The sweep is bound by per-call Python overhead spread over all steps.
- ``hyper``: the same data with gamma under its Gamma hyperprior and
  ``--zeta-mode gamma``, two chains.  The only workload where the scale
  moves and their closed-form constants run every sweep, where ``fit``
  orchestrates several chains, and where ``analyze`` merges traces.
- ``tall``: n=3000, d=5, five planted clusters from ``make_tall`` below
  (``simulate`` is 2-D only), fixed gamma and zeta, one chain.  Allocation
  arithmetic leads the sweep and ``analyze`` (O(T n^2)) dominates the run.

``BENCHMARK.json`` gates ``planted`` and ``tall``; ``hyper`` is run and traced
by hand (see README.md for why).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TALL_N = 3000
TALL_DIM = 5
TALL_WEIGHTS = np.array([0.2, 0.2, 0.2, 0.3, 0.1])


@dataclass(frozen=True)
class Workload:
    name: str
    simulate: bool        # inputs from ``selmix simulate`` (else ``make_tall``)
    model_flags: tuple    # prior flags for ``selmix fit``
    chains: int
    burn_in: int
    thin: int
    n_samples: int

    @property
    def sweeps_per_chain(self):
        return self.burn_in + self.thin * self.n_samples

    @property
    def fit_flags(self):
        """Every ``selmix fit`` flag besides --data, --out-dir and --seed."""
        return self.model_flags + (
            "--chains", str(self.chains), "--burn-in", str(self.burn_in),
            "--thin", str(self.thin), "--n-samples", str(self.n_samples),
        )


FIXED_SCALES = ("--gamma", "1", "--zeta", "0.1")

WORKLOADS = {
    "planted": Workload("planted", True, FIXED_SCALES, chains=1, burn_in=250, thin=5, n_samples=150),
    "hyper": Workload("hyper", True, ("--zeta-mode", "gamma"), chains=2, burn_in=200, thin=2, n_samples=150),
    "tall": Workload("tall", False, FIXED_SCALES, chains=1, burn_in=100, thin=10, n_samples=10),
}


def derived_seed(seed, *path):
    """A 31-bit seed derived from the workload seed and a path of tags."""
    state = np.random.SeedSequence([int(seed), *path]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


def data_seed(seed):
    return derived_seed(seed, 0)


def chain_seed(seed, op):
    """Chain seed of operation ``op``; operations 0 and 1 share one seed.

    The repeat lets every run check that a fixed seed reproduces its trace
    byte for byte without a fit that is not also timed.
    """
    return derived_seed(seed, 1, max(op - 1, 0))


def make_tall(seed):
    """Planted five-cluster data in TALL_DIM dimensions, shape (TALL_N, TALL_DIM).

    Centres sit at independent N(0, 4^2) coordinates and covariances are
    Wishart-like with unit scale, so clusters overlap a little in some
    coordinates and are separated in others.
    """
    rng = np.random.default_rng(seed)
    k = TALL_WEIGHTS.size
    centres = rng.normal(0.0, 4.0, size=(k, TALL_DIM))
    labels = rng.choice(k, size=TALL_N, p=TALL_WEIGHTS)
    y = np.empty((TALL_N, TALL_DIM))
    for j in range(k):
        idx = np.flatnonzero(labels == j)
        root = rng.normal(0.0, 1.0, size=(TALL_DIM, TALL_DIM)) / np.sqrt(TALL_DIM)
        cov = root @ root.T + 0.25 * np.eye(TALL_DIM)
        y[idx] = centres[j] + rng.standard_normal((idx.size, TALL_DIM)) @ np.linalg.cholesky(cov).T
    return y

