"""Microseconds per sweep of each sampler step, on the planted and tall data.

    OPENBLAS_NUM_THREADS=1 python tools/step_cost.py [--src DIR] [--rounds 5]

Runs ``run_sampler`` in this process on the planted data (n = 300, d = 2,
``simulate_benchmark(1)``) and the tall data (n = 3000, d = 5,
``bench/workloads.make_tall(1)``), gamma = 1 and zeta = 0.1, with every step
that ``sampler.sweep`` calls through a module global wrapped in a timer,
the grouping of the data (``_grouped_points``) included.  Each round runs
one chain per workload, seeds 1, 2, ... in turn; the table gives the median
over rounds of each step's time and of the whole chain (timed without the
wrappers, in a separate run of the same seed), in microseconds per sweep.
The last row, ``unattributed``, is the median of the chain minus the timed
steps: the sweep's own code, the chain driver and the start of the chain.
``--src`` names the ``src`` directory whose ``selmix`` is imported, so two
checkouts can be timed by one script.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# neither workload moves a scale, so update_scale is not timed
STEPS = ("update_allocations", "_grouped_points", "update_means", "update_covariances",
         "update_weights", "birth_death_step")
WORKLOADS = {"planted": (400, 600), "tall": (100, 150)}  # (burn-in, retained) sweeps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(0, str(ROOT / "bench"))
    import numpy as np
    from selmix import sampler
    from selmix.model import Hyperparams
    from selmix.planted import simulate_benchmark
    from workloads import make_tall

    data = {"planted": simulate_benchmark(1)[0], "tall": make_tall(1)}
    spent = {}

    def timed(name, fn):
        def step(*a, **k):
            start = time.perf_counter()
            try:
                return fn(*a, **k)
            finally:
                spent[name] += time.perf_counter() - start
        return step

    originals = {name: getattr(sampler, name) for name in STEPS}
    rows = {name: {key: [] for key in STEPS + ("chain", "unattributed")} for name in WORKLOADS}
    for r in range(args.rounds):
        for name, (burn, keep) in WORKLOADS.items():
            hyper = Hyperparams(gamma_fixed=1.0, zeta_fixed=0.1, burn_in=burn, thin=1,
                                n_samples=keep)
            config = sampler.SamplerConfig(hyper=hyper, seed=r + 1)
            sweeps = burn + keep
            start = time.perf_counter()
            sampler.run_sampler(data[name], config)
            rows[name]["chain"].append(1e6 * (time.perf_counter() - start) / sweeps)
            spent.update(dict.fromkeys(STEPS, 0.0))
            for step, fn in originals.items():
                setattr(sampler, step, timed(step, fn))
            try:
                sampler.run_sampler(data[name], config)
            finally:
                for step, fn in originals.items():
                    setattr(sampler, step, fn)
            for step in STEPS:
                rows[name][step].append(1e6 * spent[step] / sweeps)
            rows[name]["unattributed"].append(
                rows[name]["chain"][-1] - 1e6 * sum(spent.values()) / sweeps)
    print(f"{'us per sweep':20s}" + "".join(f"{name:>10s}" for name in WORKLOADS))
    for key in STEPS + ("chain", "unattributed"):
        print(f"{key:20s}" + "".join(f"{np.median(rows[name][key]):10.1f}" for name in WORKLOADS))


if __name__ == "__main__":
    main()
