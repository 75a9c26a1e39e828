"""Command-line interface.

Subcommands: simulate, fit, analyze, prior-ma, elicit-zeta, dist.  Exit
status is 0 on success, 1 on runtime failure (message on stderr) and 2 on
argument errors.  ``fit`` writes a manifest capturing the configuration,
seed and package version; re-running with ``--config manifest.json``
reproduces the outputs bit for bit.  Multi-chain runs derive the seed of
chain i as seed XOR i, so runs with nearby seeds can share chains:
``fit --seed 2 --chains 2`` and ``--seed 3 --chains 2`` run the same pair
(seeds 2 and 3, in swapped order).

Each subcommand imports the modules it runs, numpy included, and none loads
scipy.  Only ``fit`` loads the sampler; ``prior-ma``, ``elicit-zeta`` and
``dist`` load the modules they evaluate; ``simulate`` and ``analyze`` run on
numpy alone.  ``--version``, ``--help`` and argument errors load no numpy.

Process set-up: ``main()``, the entry point of ``selmix`` and ``python -m
selmix.cli``, sets up its own process; importing this module or calling
``cli_dispatch`` changes nothing in the caller's.  Before it dispatches, and
so before any command loads numpy, it sets ``OPENBLAS_NUM_THREADS=1`` unless
the caller set it, and turns Python's cyclic collector off; it freezes the
heap before it exits.  One BLAS thread: every BLAS or LAPACK call of ``fit``
works on a d x d matrix or a panel d columns wide, where a second thread
saves nothing, while OpenBLAS's idle workers spin and starve the other
processes of a multi-chain or multi-seed study.  ``analyze`` multiplies
G x G co-counts (G distinct groups of observations), which more threads do
speed up when G runs into the thousands and CPUs are free.
``OPENBLAS_NUM_THREADS=2`` (or any value) in the environment still wins;
``OMP_NUM_THREADS`` alone no longer sets the BLAS thread count, because
OpenBLAS reads ``OPENBLAS_NUM_THREADS`` first.  No collector: otherwise it
walks the ~22,000 objects that ``fit``'s imports leave behind about 55
times while they run, and once more at interpreter exit, which collects even
with the collector off but skips frozen objects; this was about a tenth of a
cold ``fit`` or ``analyze``.  Nothing that grows with the run length makes
reference cycles (``tests/test_sampler.py`` checks that no sampler or
summary path leaves an unreachable object), so memory stays what it was.
"""

import argparse
import gc
import os
import sys

import selmix

from . import __version__

RNG_NAME = "numpy.random.PCG64"


def _hyper_keys():
    """The ``Hyperparams`` field names, in declaration order."""
    import dataclasses

    from .model import Hyperparams

    return tuple(field.name for field in dataclasses.fields(Hyperparams))


def hyperparams_to_dict(hyper):
    import numpy as np

    out = {}
    for key in _hyper_keys():
        value = getattr(hyper, key)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        out[key] = value
    return out


def hyperparams_from_dict(payload):
    from .model import Hyperparams

    return Hyperparams(**{k: payload[k] for k in _hyper_keys() if payload.get(k) is not None})


def build_parser():
    parser = argparse.ArgumentParser(
        prog="selmix",
        description="Repulsive Gaussian mixtures with Selberg Dirichlet weight priors",
    )
    parser.add_argument("--version", action="version", version=f"selmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate the planted benchmark dataset")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--labels-out")
    p_sim.add_argument("--n", type=int, default=300)

    p_fit = sub.add_parser("fit", help="run the MCMC sampler on a CSV dataset")
    p_fit.add_argument("--data")
    p_fit.add_argument("--out-dir", required=True)
    p_fit.add_argument("--config", help="JSON config or manifest; flags override")
    p_fit.add_argument("--seed", type=int)
    p_fit.add_argument("--chains", type=int)
    p_fit.add_argument("--record-weights", action="store_true", default=None)
    p_fit.add_argument("--alpha0", type=float)
    p_fit.add_argument("--lam", type=float)
    p_fit.add_argument("--nu0", type=float)
    p_fit.add_argument("--v0-diag", dest="v0", metavar="V0_DIAG",
                       help="comma-separated diagonal of the scale matrix")
    p_fit.add_argument("--gamma", type=float, dest="gamma_fixed", metavar="GAMMA",
                       help="fix gamma at this value")
    p_fit.add_argument("--gamma-shape", type=float)
    p_fit.add_argument("--gamma-rate", type=float)
    p_fit.add_argument("--zeta-mode", choices=["fixed", "gamma", "ratio"])
    p_fit.add_argument("--zeta", type=float, dest="zeta_fixed", metavar="ZETA",
                       help="value used when zeta is fixed")
    p_fit.add_argument("--zeta-shape", type=float)
    p_fit.add_argument("--zeta-rate", type=float)
    p_fit.add_argument("--rho", type=float)
    p_fit.add_argument("--q-birth", type=float)
    p_fit.add_argument("--step-mu", type=float)
    p_fit.add_argument("--step-gamma", type=float)
    p_fit.add_argument("--burn-in", type=int)
    p_fit.add_argument("--thin", type=int)
    p_fit.add_argument("--n-samples", type=int)
    p_fit.add_argument("--birth-death", choices=["reversible", "append"])
    p_fit.add_argument("--no-adapt", dest="adapt", action="store_false", default=None)

    p_an = sub.add_parser("analyze", help="summarize one or more trace files")
    p_an.add_argument("--trace", action="append", required=True)
    p_an.add_argument("--out-dir", required=True)

    p_pma = sub.add_parser("prior-ma", help="simulate the prior allocated-component count")
    p_pma.add_argument("--alpha0", type=float, default=1.0)
    p_pma.add_argument("--gamma", type=float, required=True)
    p_pma.add_argument("--m", type=int, required=True)
    p_pma.add_argument("--n", type=int, default=100)
    p_pma.add_argument("--reps", type=int, default=10000)
    p_pma.add_argument("--seed", type=int, default=0)
    p_pma.add_argument("--out")

    p_ez = sub.add_parser("elicit-zeta", help="match cluster spread against the ensemble")
    p_ez.add_argument("--data", required=True)
    p_ez.add_argument("--k", type=int, required=True)
    p_ez.add_argument("--grid", default="0.01,0.05,0.1,0.5,1")
    p_ez.add_argument("--reps", type=int, default=200)
    p_ez.add_argument("--seed", type=int, default=0)

    p_dist = sub.add_parser("dist", help="evaluate distribution quantities")
    p_dist.add_argument("quantity", choices=list(DIST_QUANTITIES))
    p_dist.add_argument("--alpha", type=float)
    p_dist.add_argument("--gamma", type=float)
    p_dist.add_argument("--m", type=int)
    p_dist.add_argument("--k", type=int, default=1)
    p_dist.add_argument("--tau", type=float)
    p_dist.add_argument("--zeta", type=float)
    p_dist.add_argument("--lam", type=float)
    p_dist.add_argument("--w", help="comma-separated weight vector")
    p_dist.add_argument("--x", help="comma-separated location vector")
    return parser


def _parse_vector(text, flag):
    """The comma-separated numbers that ``flag`` was given, as an array."""
    import numpy as np

    try:
        return np.asarray([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _integer(value, flag, least):
    """``value`` given for ``flag`` (on the command line or in a config), checked
    to be an integer of at least ``least`` (0 or 1)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        kind = "non-negative" if least == 0 else "positive"
        raise ValueError(f"{flag} must be a {kind} integer, got {value!r}")
    return value


def _cmd_simulate(args):
    from .io import write_dataset
    from .planted import simulate_benchmark

    y, labels = simulate_benchmark(_integer(args.seed, "--seed", 0), n_obs=args.n)
    write_dataset(args.out, y)
    if args.labels_out:
        write_dataset(args.labels_out, (labels + 1).reshape(-1, 1).astype(float), header=["label"])
    return 0


def _fit_config(args):
    import numpy as np

    from .io import read_json

    payload = dict(read_json(args.config)) if args.config else {}
    # manifests written before the uncentered covariance update was removed
    # carry its selector; the centered value is what every fit now does
    if payload.pop("covariance_update", "centered") != "centered":
        raise ValueError("config key 'covariance_update' must be 'centered', the only update")
    run_keys = ("data", "seed", "chains", "record_weights")
    unknown = sorted(set(payload) - set(_hyper_keys() + run_keys + ("version", "rng")))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for key in _hyper_keys() + run_keys:
        value = getattr(args, key)
        if value is not None:
            if key == "v0":
                value = np.diag(_parse_vector(value, "--v0-diag")).tolist()
            payload[key] = value
    payload.setdefault("seed", 0)
    payload.setdefault("chains", 1)
    payload.setdefault("record_weights", False)
    if "data" not in payload:
        raise ValueError("no dataset given: pass --data or a config with a 'data' entry")
    return payload


def _ma_histogram(m_allocated):
    """Draws per allocated-component count.  The keys are ints, so the
    sorted keys of ``write_json`` come out in numeric order (1, 2, 10)."""
    import numpy as np

    values, counts = np.unique(m_allocated, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def _cmd_fit(args):
    from pathlib import Path

    import numpy as np

    from .io import read_dataset, write_json, write_trace
    from .sampler import SamplerConfig, run_sampler

    payload = _fit_config(args)
    seed = _integer(payload["seed"], "--seed", 0)
    chains = _integer(payload["chains"], "--chains", 1)
    if not isinstance(payload["data"], str):
        raise ValueError(f"data must be a path, got {payload['data']!r}")
    record_weights = payload["record_weights"]
    if not isinstance(record_weights, bool):
        raise ValueError(f"record_weights must be true or false, got {record_weights!r}")
    hyper = hyperparams_from_dict(payload)
    y = read_dataset(payload["data"])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    summary = {"chains": {}, "seed": seed, "n_chains": chains}
    m_allocated = []
    for i in range(chains):
        config = SamplerConfig(hyper=hyper, seed=seed ^ i, record_weights=record_weights)
        trace, diag = run_sampler(y, config)
        write_trace(out_dir / f"trace_chain{i}.ndjson", trace)
        summary["chains"][str(i)] = {
            "acceptance_rates": diag.acceptance_rates(),
            "means_refresh_rate": diag.rate("means_refresh"),
            "step_mu_final": diag.step_mu_final,
            "step_gamma_final": diag.step_gamma_final,
            "mean_m": float(trace.m.mean()),
            "mean_m_a": float(trace.m_allocated.mean()),
        }
        m_allocated.append(trace.m_allocated)
    # flat copy of chain-0 rates so a single-chain summary is directly consumable
    summary["acceptance_rates"] = summary["chains"]["0"]["acceptance_rates"]
    summary["ma_histogram"] = _ma_histogram(np.concatenate(m_allocated))

    manifest = hyperparams_to_dict(hyper.resolved(y.shape[1]))
    manifest.update(
        {
            "data": payload["data"],
            "seed": seed,
            "chains": chains,
            "record_weights": record_weights,
            "version": __version__,
            "rng": RNG_NAME,
        }
    )
    write_json(out_dir / "summary.json", summary)
    write_json(out_dir / "manifest.json", manifest)
    return 0


def _cmd_analyze(args):
    from pathlib import Path

    from .analysis import PosteriorTrace, partition_summary
    from .io import read_trace, write_json, write_matrix_csv, write_psm_csv

    traces = [read_trace(args.trace[0])]
    for path in args.trace[1:]:
        traces.append(read_trace(path))
        if traces[-1].n_obs != traces[0].n_obs:
            raise ValueError(f"{path}: {traces[-1].n_obs} observations per draw, "
                             f"{args.trace[0]} has {traces[0].n_obs}")
    merged = PosteriorTrace.concat(traces)
    if merged.n_obs == 0:
        raise ValueError("cannot analyze traces with zero observations")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts, group, draw, loss, n_partitions = partition_summary(merged)
    write_psm_csv(out_dir / "psm.csv", counts, group, merged.n_samples)
    write_matrix_csv(out_dir / "binder.csv", merged.alloc[draw][None, :] + 1)
    write_json(
        out_dir / "summary.json",
        {
            "n_samples": int(merged.n_samples),
            "ma_histogram": _ma_histogram(merged.m_allocated),
            "mean_m": float(merged.m.mean()),
            "mean_m_a": float(merged.m_allocated.mean()),
            "mean_gamma": float(merged.gamma.mean()),
            "mean_zeta": float(merged.zeta.mean()),
            "binder_loss": loss,
            "n_unique_partitions": n_partitions,
        },
    )
    return 0


def _cmd_prior_ma(args):
    import numpy as np

    from .analysis import prior_ma_simulation

    rng = np.random.default_rng(_integer(args.seed, "--seed", 0))
    probs = prior_ma_simulation(args.alpha0, args.gamma, args.m, args.n, args.reps, rng)
    lines = [f"{k},{repr(float(p))}" for k, p in enumerate(probs)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_elicit_zeta(args):
    import numpy as np

    from .analysis import elicit_zeta
    from .io import read_dataset

    y = read_dataset(args.data)
    rng = np.random.default_rng(_integer(args.seed, "--seed", 0))
    chosen = elicit_zeta(y, args.k, _parse_vector(args.grid, "--grid"), rng, reps=args.reps)
    print(f"{chosen:.12g}")
    return 0


def _sdir(args):
    return selmix.SdirParams(args.alpha, args.gamma, args.m)


def _ge(args):
    return selmix.GeParams(args.zeta, args.m)


SDIR = ("alpha", "gamma", "m")  # the flags every Selberg Dirichlet quantity requires

# quantity -> (the flags it requires, checked in order; its value from the parsed
# args).  Values go through the package's lazy exports, so the modules behind them
# load only when a quantity is evaluated.
DIST_QUANTITIES = {
    "sdir-mean": (SDIR, lambda a: selmix.sdir_moments(_sdir(a)).mean),
    "sdir-variance": (SDIR, lambda a: selmix.sdir_moments(_sdir(a)).variance),
    "sdir-second-moment": (SDIR, lambda a: selmix.sdir_moments(_sdir(a)).second_moment),
    "sdir-marginal-moment": (
        SDIR, lambda a: selmix.sdir_moments(_sdir(a), k=a.k).marginal_k_moment),
    "sdir-product-moment": (
        SDIR, lambda a: selmix.sdir_moments(_sdir(a), k=a.k).product_moment_k),
    "sdir-log-const": (SDIR, lambda a: selmix.sdir_log_norm_const(_sdir(a))),
    "sdir-log-pdf": (
        SDIR + ("w",), lambda a: selmix.sdir_log_density(_parse_vector(a.w, "--w"), _sdir(a))),
    "dispersion": (
        SDIR + ("tau",), lambda a: selmix.internal_dispersion_expectation(_sdir(a), a.tau)),
    "ge-log-const": (("zeta", "m"), lambda a: selmix.ge_log_norm_const(_ge(a))),
    "ge-log-pdf": (
        ("zeta", "m", "x"), lambda a: selmix.ge_log_density(_parse_vector(a.x, "--x"), _ge(a))),
    "count-log-pmf": (("m", "lam"), lambda a: selmix.shifted_poisson_log_pmf(a.m, a.lam)),
}


def _cmd_dist(args):
    required, value_of = DIST_QUANTITIES[args.quantity]
    for name in required:
        if getattr(args, name) is None:
            raise ValueError(f"dist {args.quantity} requires --{name}")
    print(f"{value_of(args):.12g}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "analyze": _cmd_analyze,
    "prior-ma": _cmd_prior_ma,
    "elicit-zeta": _cmd_elicit_zeta,
    "dist": _cmd_dist,
}


def cli_dispatch(argv=None):
    """Parse ``argv`` and run the selected subcommand; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return 1
    except Exception as exc:
        print(f"selmix: error: {exc}", file=sys.stderr)
        return 1


def main():
    """The console entry point: set up the process (see "Process set-up"
    above), run ``cli_dispatch`` and exit with its code."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    code = cli_dispatch()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
