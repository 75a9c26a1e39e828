"""Fixed-seed fits of two source trees, compared byte for byte.

    python tools/trace_identity.py --src A/src --src B/src

Runs one fixed set of 34 seeded fits with the ``selmix`` of each ``--src``
directory (each names a ``src`` directory, as in ``tools/step_cost.py``),
every fit in its own child process with ``OPENBLAS_NUM_THREADS=1``, and
compares the sha256 of every trace and ``summary.json`` each fit writes.
After each fit that has data, ``selmix analyze`` of the same tree reads its
traces, and the sha256 of its ``psm.csv``, ``binder.csv`` and
``summary.json`` are compared too.  The set covers six kinds of run:

- ``planted``: ``selmix fit`` with the flags of the ``planted`` bench
  workload (``bench/workloads.py``) on ``selmix simulate`` data, with the
  bench's data and chain seeds for workload seeds 1-3, chain operations 1-4;
  operation 4 adds ``--record-weights``.  Operation 1 is the bench's
  fingerprint fit.
- ``tall``: ``selmix fit`` with the ``tall`` workload's flags on
  ``make_tall`` data, workload seeds 1-2, operations 1-3.
- ``hyper``: ``selmix fit`` with the ``hyper`` workload's flags (two chains,
  ``--zeta-mode gamma``), workload seeds 1-3, operations 1-2.
- ``prior``: a chain without data (``run_sampler`` on a (0, 2) array, then
  ``write_trace``, with its acceptance counts as JSON), seeds 1-8,
  alternating fixed zeta and ``zeta_mode="gamma"``.
- ``lam``: the ``planted`` fit of workload seed 1, operation 1, with
  ``--lam 12``.  Its chain holds 9 or more components in most sweeps, so
  the means step mostly takes the array branch of
  ``sampler._coord_ge_log_ratio`` (8 or more gaps), which the fits above
  reach only in their largest states.
- ``wide``: a fit with gamma = 1 and zeta = 0.1 on fixed-seed d = 9 data
  (``WIDE_DATA``, three clusters of n = 300 in all), the only fit in which
  ``model._last_axis_sums`` sums 8 or more terms, which it leaves to numpy.

A trace records decisions (allocations, counts, scales), so arithmetic
that flips no accept coin or argmax leaves it as it was.  So one more child
per tree runs ``initial_state`` and then 300 ``sweep`` calls on each of
three chains, the ``planted``, ``lam`` and ``wide`` data and priors above,
and hashes the bytes of ``weights``, ``mus``, ``sigmas``, ``alloc``,
``gamma`` and ``zeta`` after every sweep into one state sha256 per chain.
A last-bit change in the component densities flips no draw in such a
chain, so ``log_complete_joint`` of each state is compared too: its bytes
go into a second sha256 per chain, and the line prints on how many
states the joint differs between the trees and its largest relative
difference.

On every ``planted``, ``tall`` and ``wide`` dataset, each tree also runs
``selmix elicit-zeta`` with ``--k`` 3 and 5 and ``--seed`` 1 and 2, and the
printed choices are compared.  The grid is fine (60 values 10% apart) and
``--reps`` is 2, so that the choice moves with the ensemble draws, which
follow the k-means starts on the same generator.  Still, a generator
shifted by a few numbers can fall back into step inside the ensemble's
rejection samplers: a k-means with one restart fewer changed 12 of the 24
choices, none of them at k = 3.  An equal choice is thus weaker evidence
than an equal digest; ``tests/test_analysis.py`` compares the k-means
centres and generator state with scipy's bit for bit.

The input data are made once, with the first tree.  A prior chain writes
its acceptance counts to ``counts.json`` in place of ``summary.json``;
``manifest.json``, which names the package version, is not compared.  The
tool prints one line per fit, per sweep chain and per ``elicit-zeta`` run,
and exits 1 if any file or chain digest or any choice differs, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS, chain_seed, data_seed  # noqa: E402

PRIOR_FIT = """
import dataclasses, json, sys
import numpy as np
from selmix.io import write_trace
from selmix.model import Hyperparams
from selmix.sampler import SamplerConfig, run_sampler
out, seed, zeta_mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
hyper = Hyperparams(gamma_fixed=1.0, zeta_mode=zeta_mode, zeta_fixed=0.5,
                    burn_in=200, thin=2, n_samples=200)
trace, diag = run_sampler(np.empty((0, 2)), SamplerConfig(hyper, seed=seed, record_weights=True))
write_trace(out + "/trace_chain0.ndjson", trace)
with open(out + "/counts.json", "w") as fh:
    json.dump(dataclasses.asdict(diag), fh, sort_keys=True)
"""
WIDE_DATA = """
import sys
import numpy as np
from selmix.io import write_dataset
rng = np.random.default_rng(int(sys.argv[2]))
centres = rng.normal(0.0, 4.0, size=(3, 9))
write_dataset(sys.argv[1], centres[rng.integers(3, size=300)] + rng.standard_normal((300, 9)))
"""
SWEEP_DIGESTS = """
import hashlib, json, sys
import numpy as np
from selmix.io import read_dataset
from selmix.model import Hyperparams, log_complete_joint
from selmix.sampler import initial_state, sweep
for path, seed, lam in zip(*[iter(sys.argv[1:])] * 3):
    y = read_dataset(path)
    hyper = Hyperparams(lam=float(lam), gamma_fixed=1.0, zeta_fixed=0.1).resolved(y.shape[1])
    rng = np.random.default_rng(int(seed))
    state = initial_state(y, hyper, rng)
    digest, joints = hashlib.sha256(), []
    for _ in range(300):
        state, _ = sweep(y, state, hyper, rng, hyper.step_mu, hyper.step_gamma)
        for block in (state.weights, state.mus, state.sigmas, state.alloc, state.gamma, state.zeta):
            digest.update(np.ascontiguousarray(block).tobytes())
        joints.append(log_complete_joint(y, state, hyper))
    print(json.dumps([digest.hexdigest(), joints]))
"""
TALL_DATA = """
import sys
from selmix.io import write_dataset
from workloads import make_tall
write_dataset(sys.argv[1], make_tall(int(sys.argv[2])))
"""

# the ``selmix fit`` flags of each kind of fit besides --data, --out-dir and --seed
FIT_FLAGS = {
    **{name: workload.fit_flags for name, workload in WORKLOADS.items()},
    "lam": WORKLOADS["planted"].fit_flags + ("--lam", "12"),
    "wide": ("--gamma", "1", "--zeta", "0.1", "--burn-in", "100", "--thin", "2",
             "--n-samples", "100"),
}


def child(src, args, cwd):
    """Run ``python <args>`` with ``src`` and ``bench/`` on the path; returns
    its standard output."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join((str(src), str(ROOT / "bench"))))
    proc = subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{' '.join(map(str, args))} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout


def selmix(src, argv, cwd):
    child(src, ["-m", "selmix.cli", *argv], cwd)


def fits():
    """(name, kind, workload seed, operation or chain seed, record weights)."""
    for seed in (1, 2, 3):
        for op in (1, 2, 3, 4):
            yield f"planted-s{seed}-op{op}", "planted", seed, op, op == 4
    for seed in (1, 2):
        for op in (1, 2, 3):
            yield f"tall-s{seed}-op{op}", "tall", seed, op, False
    for seed in (1, 2, 3):
        for op in (1, 2):
            yield f"hyper-s{seed}-op{op}", "hyper", seed, op, False
    for seed in range(1, 9):
        yield f"prior-s{seed}", "prior", seed, seed, True
    yield "lam-s1-op1", "lam", 1, 1, False
    yield "wide-s1", "wide", 1, 1, False


def make_data(src, work):
    """One CSV per (kind, workload seed), written with the first tree."""
    paths = {}
    for _, kind, seed, _, _ in fits():
        if kind == "prior" or (kind, seed) in paths:
            continue
        path = work / f"data-{kind}-s{seed}.csv"
        if kind in ("tall", "wide"):
            script = TALL_DATA if kind == "tall" else WIDE_DATA
            child(src, ["-c", script, path, data_seed(seed)], work)
        else:
            selmix(src, ["simulate", "--seed", data_seed(seed), "--out", path], work)
        paths[kind, seed] = path
    return paths


def run_fit(src, out, fit, data):
    _, kind, seed, op, weights = fit
    out.mkdir(parents=True)
    if kind == "prior":
        child(src, ["-c", PRIOR_FIT, out, op, ("fixed", "gamma")[op % 2]], out)
        return
    argv = ["fit", "--data", data[kind, seed], "--out-dir", out,
            "--seed", chain_seed(seed, op), *FIT_FLAGS[kind]]
    selmix(src, argv + ["--record-weights"] if weights else argv, out)
    argv = ["analyze", "--out-dir", out / "analyze"]
    for trace in sorted(out.glob("trace_chain*.ndjson")):
        argv += ["--trace", trace]
    selmix(src, argv, out)


# (name, kind of data, lam) of each sweep chain, all on workload seed 1
SWEEP_CHAINS = (("planted", "planted", 3), ("lam", "lam", 12), ("wide", "wide", 3))


def sweep_digests(src, data, work):
    """(state sha256, log joints) per chain of ``SWEEP_CHAINS``, over its
    states after every sweep."""
    argv = ["-c", SWEEP_DIGESTS]
    for _, kind, lam in SWEEP_CHAINS:
        argv += [data[kind, 1], chain_seed(1, 1), lam]
    return [json.loads(line) for line in child(src, argv, work).splitlines()]


def joint_digest(joints):
    return hashlib.sha256(struct.pack(f"<{len(joints)}d", *joints)).hexdigest()


def largest_relative_difference(a, b):
    """max |a_i - b_i| / max(|a_i|, |b_i|), with equal entries counting 0."""
    return max((abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a, b, strict=True) if x != y),
               default=0.0)


# the kinds of data ``elicit-zeta`` runs on, and its --k and --seed values
ELICIT_KINDS, ELICIT_KS, ELICIT_SEEDS = ("planted", "tall", "wide"), (3, 5), (1, 2)
# a fine grid and few ensemble draws, so that the choice moves with the draws
ELICIT_FLAGS = ("--grid", ",".join(f"{0.01 * 1.1**i:.4g}" for i in range(60)), "--reps", "2")


def elicit_runs(data):
    """(name, ``selmix elicit-zeta`` argv) of every run, on every dataset of
    ``ELICIT_KINDS``."""
    for (kind, seed), path in data.items():
        if kind in ELICIT_KINDS:
            for k in ELICIT_KS:
                for ez_seed in ELICIT_SEEDS:
                    yield (f"elicit-{kind}-s{seed}-k{k}-seed{ez_seed}",
                           ["elicit-zeta", "--data", path, "--k", k, "--seed", ez_seed,
                            *ELICIT_FLAGS])


def digests(out):
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, action="append", required=True,
                        help="a src directory; give it twice")
    args = parser.parse_args(argv)
    if len(args.src) != 2:
        parser.error("give --src exactly twice")
    srcs = [src.resolve() for src in args.src]
    start = time.perf_counter()
    differ = 0
    with tempfile.TemporaryDirectory(prefix="trace-identity-") as tmp:
        work = Path(tmp)
        data = make_data(srcs[0], work)
        for fit in fits():
            outs = [work / f"tree{i}" / fit[0] for i in range(2)]
            for src, out in zip(srcs, outs):
                run_fit(src, out, fit, data)
            a, b = (digests(out) for out in outs)
            same = a == b and len(a) >= 2
            differ += not same
            print(f"{fit[0]:18s} {'same' if same else 'DIFFERENT'}  {len(a)} files"
                  + "".join(f"  {k} {v[:12]}" for k, v in a.items() if k.startswith("trace")))
        chains = zip(SWEEP_CHAINS, *(sweep_digests(src, data, work) for src in srcs),
                     strict=True)
        chains_differ = 0
        for (name, _, _), (state_a, joints_a), (state_b, joints_b) in chains:
            joint_a = joint_digest(joints_a)
            same_state, same_joint = state_a == state_b, joint_a == joint_digest(joints_b)
            chains_differ += not (same_state and same_joint)
            unequal = sum(a != b for a, b in zip(joints_a, joints_b, strict=True))
            rel = largest_relative_difference(joints_a, joints_b)
            print(f"sweeps-{name:11s} states {'same' if same_state else 'DIFFERENT'} "
                  f"{state_a[:12]}  log joints {'same' if same_joint else 'DIFFERENT'} "
                  f"{joint_a[:12]} ({unequal} of 300 unequal, largest relative "
                  f"difference {rel:.2g})")
        choices_differ = runs = 0
        for name, argv in elicit_runs(data):
            a, b = (child(src, ["-m", "selmix.cli", *argv], work).strip() for src in srcs)
            choices_differ += a != b
            runs += 1
            print(f"{name:30s} {'same' if a == b else 'DIFFERENT'}  zeta {a}"
                  + ("" if a == b else f" vs {b}"))
    print(f"{differ} of {sum(1 for _ in fits())} fits, {chains_differ} of "
          f"{len(SWEEP_CHAINS)} sweep chains and {choices_differ} of {runs} elicit-zeta "
          f"choices differ ({time.perf_counter() - start:.0f} s)")
    return 1 if differ or chains_differ or choices_differ else 0


if __name__ == "__main__":
    sys.exit(main())
