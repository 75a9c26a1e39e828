"""selmix benchmark: ``selmix fit`` then ``selmix analyze``, end to end and per layer.

    python3 bench/run.py --workload planted --seed 1 --seconds 55 --trace 0

``--trace 0`` runs the CLI as child processes with no tracing and reports
the end-to-end metrics; ``--trace 1`` runs it in-process through
``selmix.cli.cli_dispatch`` with every public function of every package
module wrapped (see ``tracer.py``) and reports the per-layer metrics.
``--workload all`` runs each workload in turn.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run it from any directory; it works inside a fresh checkout
and writes only under ``.bench_work/`` there.  See ``README.md`` for the
workloads and the metric tables.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from checks import (  # noqa: E402
    CheckError,
    check_analyze_outputs,
    check_fit_outputs,
    check_trace,
    sha256,
)
from stats import multi_chain_ess, percentile, quartiles  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, chain_seed, data_seed, make_tall  # noqa: E402

LAYERS = ("cli", "sampler", "model", "distributions", "selberg", "ensemble", "analysis", "io")
SETUP_REPS = 3          # set-ups per untraced run; setup_s is their median
HARD_LIMIT_S = 150.0    # no new operation starts after this much wall time
CHILD_LIMIT_S = 170.0   # a child still running this long after the start is killed
CALIB_ITERS = 200_000

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "analyze_s": "s",
    "total_s": "s",
    "sweeps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
STEPS = {
    "allocations": ("sampler.update_allocations",),
    "means": ("sampler.update_means",),
    "covariances": ("sampler.update_covariances",),
    "weights": ("sampler.update_weights",),
    "scale": (
        "sampler.update_gamma",
        "sampler.update_zeta_full_conditional",
        "sampler.update_gamma_ratio_tied",
    ),
    "birth_death": ("sampler.birth_death_step",),
}
ACCEPT_KEYS = ("means", "means_refresh", "weights", "gamma", "zeta", "birth", "death")
SWEEP_START, SWEEP_END, RUN = (
    "sampler.update_allocations",
    "sampler.birth_death_step",
    "sampler.run_sampler",
)


class Failure(Exception):
    """A ``selmix`` call failed, or the run cannot go on."""


def calib_ms():
    """Wall time of a fixed pure-Python loop, a probe of how fast the host runs now."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIB_ITERS):
        acc += i * i
    return 1e3 * (time.perf_counter() - start)


def environment():
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }


class Runner:
    """Counts operations and runs ``selmix`` child processes under a deadline."""

    def __init__(self, work):
        self.work = work
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def elapsed(self):
        return time.perf_counter() - self.start

    def op(self, label, fn, *args):
        """Run one operation; a failure is counted and reported, not raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except (Failure, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            print(f"FAILED {label}: {exc}", file=sys.stderr)
            return None

    def cli(self, args, log_name):
        """Run ``selmix <args>`` as a child; return (wall seconds, its ``rusage``)."""
        log = self.work / f"{log_name}.log"
        limit = max(1.0, CHILD_LIMIT_S - self.elapsed())
        with open(log, "w") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "selmix.cli", *map(str, args)],
                stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=self.work,
            )
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
        if proc.returncode != 0:
            tail = log.read_text()[-400:].strip()
            raise Failure(f"selmix {args[0]} exited {proc.returncode}: {tail}")
        return seconds, usage


class Window:
    """The measuring window: an operation starts only while a typical one still fits.

    The first ``minimum`` operations always run; ``runner``'s hard limit
    stops the loop whatever the window says.
    """

    def __init__(self, runner, seconds, minimum):
        self.runner = runner
        self.seconds = seconds
        self.minimum = minimum
        self.start = time.perf_counter()
        self.last = None
        self.durations = []

    def more(self):
        now = time.perf_counter()
        if self.last is not None:
            self.durations.append(now - self.last)
        self.last = now
        if self.runner.elapsed() >= HARD_LIMIT_S:
            return False
        if len(self.durations) < self.minimum:
            return True
        return now - self.start + float(np.median(self.durations)) <= self.seconds


# ---------------------------------------------------------------------------
# set-up: the program starts, and the workload's inputs are written
# ---------------------------------------------------------------------------

def write_inputs(runner, wl, seed, path):
    if wl.simulate:
        runner.cli(["simulate", "--seed", data_seed(seed), "--out", path], f"simulate-{path.stem}")
    else:
        from selmix.io import write_dataset

        write_dataset(path, make_tall(data_seed(seed)))


def setup_once(runner, wl, seed, index):
    """Cold ``selmix --version`` plus the inputs; returns (seconds, data path)."""
    path = runner.work / f"data{index}.csv"
    start = time.perf_counter()
    runner.cli(["--version"], f"version{index}")
    write_inputs(runner, wl, seed, path)
    seconds = time.perf_counter() - start
    if "selmix" not in (runner.work / f"version{index}.log").read_text():
        raise Failure("selmix --version printed no version")
    return seconds, path


def setup(runner, wl, seed, reps):
    times, digests = [], set()
    data = None
    for index in range(reps):
        result = runner.op(f"setup {index}", setup_once, runner, wl, seed, index)
        if result is not None:
            times.append(result[0])
            data = result[1]
            digests.add(sha256(data))
    if len(digests) > 1:
        runner.failed += 1
        print("FAILED setup: one seed gave different datasets", file=sys.stderr)
    if data is None:
        raise Failure("no set-up succeeded")
    return times, data


def count_rows(path):
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def fit_argv(wl, data, out_dir, cseed):
    return ["fit", "--data", data, "--out-dir", out_dir, "--seed", cseed, *wl.fit_flags]


def analyze_argv(traces, out_dir):
    argv = ["analyze", "--out-dir", out_dir]
    for path in traces:
        argv += ["--trace", path]
    return argv


def trace_paths(out_dir, chains):
    return [out_dir / f"trace_chain{i}.ndjson" for i in range(chains)]


def read_and_check_traces(out_dir, wl, n_obs):
    """Read every chain's trace back and check it; returns the traces."""
    from selmix.io import read_trace

    traces = []
    for path in trace_paths(out_dir, wl.chains):
        trace = read_trace(path)
        check_trace(path, trace, n_obs)
        traces.append(trace)
    check_fit_outputs(out_dir, wl.chains)
    return traces


def fingerprint(out_dir, wl, traces):
    return {
        "trace_sha256": [sha256(p) for p in trace_paths(out_dir, wl.chains)],
        "mean_m": float(np.mean(np.concatenate([t.m for t in traces]))),
    }


# ---------------------------------------------------------------------------
# untraced run: child processes, end-to-end metrics
# ---------------------------------------------------------------------------

def fit_op(runner, wl, data, n_obs, seed, op):
    """Timed ``selmix fit`` child plus its trace and summary checks."""
    cseed = chain_seed(seed, op)
    fit_dir = runner.work / f"fit{op}"
    fit_s, usage = runner.cli(fit_argv(wl, data, fit_dir, cseed), f"fit{op}")
    traces = read_and_check_traces(fit_dir, wl, n_obs)
    record = {
        "chain_seed": cseed,
        "fit_s": fit_s,
        "sweeps_per_s": wl.chains * wl.sweeps_per_chain / fit_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "fit_cpu_s": usage.ru_utime + usage.ru_stime,
        **fingerprint(fit_dir, wl, traces),
    }
    return record, fit_dir, traces


def analyze_op(runner, fit_dir, traces, out_dir):
    """Timed ``selmix analyze`` child plus its output checks."""
    try:
        seconds, usage = runner.cli(analyze_argv(trace_paths(fit_dir, len(traces)), out_dir), out_dir.name)
        check_analyze_outputs(out_dir, np.vstack([t.alloc for t in traces]))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return seconds, usage.ru_maxrss / 1024.0


def run_untraced(wl, seed, seconds, work):
    runner = Runner(work)
    calib = [calib_ms()]
    import_package()
    setup_times, data = setup(runner, wl, seed, SETUP_REPS)
    n_obs = count_rows(data)
    ops = []
    window = Window(runner, seconds, minimum=2)
    op = 0
    while window.more():
        calib.append(calib_ms())
        fitted = runner.op(f"fit {op}", fit_op, runner, wl, data, n_obs, seed, op)
        analyzed = fitted and runner.op(
            f"analyze {op}", analyze_op, runner, fitted[1], fitted[2], runner.work / f"analyze{op}"
        )
        if analyzed:
            record = fitted[0]
            record["analyze_s"] = analyzed[0]
            record["total_s"] = record["fit_s"] + analyzed[0]
            record["peak_rss_mb"] = max(record["peak_rss_mb"], analyzed[1])
            ops.append(record)
            print(
                f"op {op}: chain seed {record['chain_seed']} fit {record['fit_s']:.3f} s "
                f"(cpu {record['fit_cpu_s']:.3f} s) "
                f"analyze {record['analyze_s']:.3f} s rss {record['peak_rss_mb']:.1f} MB "
                f"mean_m {record['mean_m']:.3f} calib {calib[-1]:.1f} ms "
                f"trace {record['trace_sha256'][0][:16]}"
            )
        op += 1
    if len(ops) >= 2 and ops[0]["chain_seed"] == ops[1]["chain_seed"]:
        runner.attempted += 1
        if ops[0]["trace_sha256"] != ops[1]["trace_sha256"]:
            runner.failed += 1
            print("FAILED fit 1: a repeated chain seed gave a different trace", file=sys.stderr)
    if not ops:
        raise Failure("no operation succeeded")
    samples = {"setup_s": setup_times}
    for name in END_TO_END_UNITS:
        if name != "setup_s":
            samples[name] = [rec[name] for rec in ops]
    print("fingerprint " + json.dumps({
        "workload": wl.name, "seed": seed, "chain_seed": ops[0]["chain_seed"],
        "trace_sha256": ops[0]["trace_sha256"], "mean_m": ops[0]["mean_m"],
    }))
    return runner, samples, calib


# ---------------------------------------------------------------------------
# traced run: in-process through cli_dispatch, per-layer metrics
# ---------------------------------------------------------------------------

def import_package():
    """Import ``selmix`` from this checkout's ``src`` and return the layer modules."""
    sys.path.insert(0, str(SRC))
    selmix = importlib.import_module("selmix")
    if Path(selmix.__file__).resolve().parent != SRC / "selmix":
        raise Failure(f"selmix imported from {selmix.__file__}, not from {SRC}")
    return {layer: importlib.import_module(f"selmix.{layer}") for layer in LAYERS}


def package_namespaces():
    return [m for name, m in sorted(sys.modules.items()) if name == "selmix" or name.startswith("selmix.")]


def dispatch(modules, argv, tracer=None):
    """Run one CLI call in-process, traced when ``tracer`` is given; returns seconds."""
    argv = [str(a) for a in argv]
    if tracer is not None:
        tracer.install(modules, package_namespaces())
    try:
        start = time.perf_counter()
        code = modules["cli"].cli_dispatch(argv)
        seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    if code != 0:
        raise Failure(f"selmix {argv[0]} returned {code}")
    return seconds


def fit_in_process(runner, modules, wl, data, n_obs, cseed, out_dir, tracer, state):
    """One in-process ``fit``, traced when ``tracer`` is given, plus its checks."""
    first = len(tracer.spans[RUN]) if tracer else 0
    seconds = dispatch(modules, fit_argv(wl, data, out_dir, cseed), tracer)
    traces = read_and_check_traces(out_dir, wl, n_obs)
    if tracer is None:
        state["fit_untraced"].append(seconds)
    else:
        state["fit_traced"].append(seconds)
        runs = tracer.spans[RUN][first:]
        busy = sum(end - start for start, end in runs)
        state["parallelism"].append(busy / (runs[-1][1] - runs[0][0]))
        state["trace_bytes"] = sum(p.stat().st_size for p in trace_paths(out_dir, wl.chains))
    return [sha256(p) for p in trace_paths(out_dir, wl.chains)], traces


def analyze_in_process(runner, modules, fit_dir, traces, out_dir, tracer, state):
    """One traced in-process ``analyze`` plus its output checks."""
    try:
        dispatch(modules, analyze_argv(trace_paths(fit_dir, len(traces)), out_dir), tracer)
        check_analyze_outputs(out_dir, np.vstack([t.alloc for t in traces]))
        state["psm_bytes"] = (out_dir / "psm.csv").stat().st_size
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    state["analyses"] += 1
    return True


def traced_iteration(runner, modules, wl, data, n_obs, cseed, it, fit_tracer, an_tracer, state):
    """An untraced and a traced fit of one chain seed (order alternating), then a traced analyze.

    The two fits must write byte-identical traces, and so must every
    iteration: the repeat checks that a fixed seed reproduces its trace.
    """
    done = {}
    for traced in ((False, True) if it % 2 == 0 else (True, False)):
        out = runner.work / f"fit{it}{'t' if traced else 'u'}"
        done[traced] = runner.op(
            f"fit {it}", fit_in_process, runner, modules, wl, data, n_obs, cseed, out,
            fit_tracer if traced else None, state,
        )
    if not done[True]:
        return
    if done[False]:
        runner.attempted += 1
        digests = state.setdefault("digests", done[True][0])
        if not digests == done[True][0] == done[False][0]:
            runner.failed += 1
            print(f"FAILED fit {it}: one chain seed gave different traces", file=sys.stderr)
    traces = done[True][1]
    state["mean_m"] = float(np.mean(np.concatenate([t.m for t in traces])))
    state["retained"] = sum(t.n_samples for t in traces)
    runner.op(
        f"analyze {it}", analyze_in_process, runner, modules,
        runner.work / f"fit{it}t", traces, runner.work / f"analyze{it}", an_tracer, state,
    )


def wrapper_cost_s(reps=100_000):
    """Seconds a tracing wrapper adds to one call of an empty function."""
    def empty():
        return None

    wrapped = Tracer().wrap(empty, "empty")
    costs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(reps):
            wrapped()
        mid = time.perf_counter()
        for _ in range(reps):
            empty()
        costs.append((2 * mid - start - time.perf_counter()) / reps)
    return float(np.median(costs))


def layer_metrics(wl, fit_tracer, an_tracer, state, calib):
    """Per-layer metrics from the accumulated spans of every traced iteration."""
    fits, analyses = len(state["fit_traced"]), state["analyses"]
    f, a = fit_tracer.get, an_tracer.get
    sweeps = f(SWEEP_END).calls
    if not sweeps:
        raise Failure("the traced fits ran no sweep in this process")
    per_sweep_ms = lambda key: 1e3 * f(key).self_time / sweeps  # noqa: E731
    per_sweep = lambda key: f(key).calls / sweeps  # noqa: E731
    starts = [s for s, _ in fit_tracer.spans[SWEEP_START]]
    ends = [e for _, e in fit_tracer.spans[SWEEP_END]]
    sweep_ms = [1e3 * (e - s) for s, e in zip(starts, ends)]
    mean_sweep_ms = sum(sweep_ms) / len(sweep_ms)
    out = {
        "cli.fit.overhead_s": (fit_tracer.layer_self_time("cli") / fits, "s"),
        "cli.analyze.overhead_s": (an_tracer.layer_self_time("cli") / analyses, "s"),
        "cli.chains.parallelism": (float(np.median(state["parallelism"])), "ratio"),
        "sampler.sweeps": (sweeps / fits, "count"),
        "sampler.sweep_ms.p50": (percentile(sweep_ms, 50), "ms"),
        "sampler.sweep_ms.p99": (percentile(sweep_ms, 99), "ms"),
    }
    for step, keys in STEPS.items():
        step_ms = 1e3 * sum(f(k).total for k in keys) / sweeps
        out[f"sampler.{step}.ms"] = (step_ms, "ms")
        out[f"sampler.{step}.share"] = (step_ms / mean_sweep_ms, "ratio")
    chains = fit_tracer.results[RUN][: wl.chains]
    out["sampler.mean_m"] = (state["mean_m"], "count")
    out["sampler.mean_m_a"] = (float(np.mean(np.concatenate([t.m_allocated for t, _ in chains]))), "count")
    for key in ACCEPT_KEYS:
        out[f"sampler.accept.{key}"] = (sum(d.accepts.get(key, 0) for _, d in chains), "count")
        out[f"sampler.attempts.{key}"] = (sum(d.attempts.get(key, 0) for _, d in chains), "count")
    for key in (
        "model.component_log_pdfs",
        "distributions.gaussian_log_pdf",
        "distributions.sample_invwishart",
        "selberg.sdir_log_norm_const",
        "ensemble.ge_log_norm_const",
    ):
        out[f"{key}.calls"] = (per_sweep(key), "count")
        out[f"{key}.ms"] = (per_sweep_ms(key), "ms")
    for key in (
        "selberg.sdir_log_density",
        "model.weight_prior_log_density",
        "ensemble.ge_log_density",
        "distributions.pairwise_log_gap_sum",
    ):
        out[f"{key}.calls"] = (per_sweep(key), "count")
    out["analysis.posterior_similarity.s"] = (a("analysis.posterior_similarity").total / analyses, "s")
    out["analysis.binder_estimate.s"] = (a("analysis.binder_estimate").total / analyses, "s")
    # binder_estimate scores each distinct sampled partition once with binder_loss
    out["analysis.unique_partitions"] = (a("analysis.binder_loss").calls / analyses, "count")
    out["analysis.retained_draws"] = (state["retained"], "count")
    out["io.read_dataset.s"] = (f("io.read_dataset").total / fits, "s")
    out["io.write_trace.s"] = (f("io.write_trace").total / fits, "s")
    out["io.read_trace.s"] = (a("io.read_trace").total / analyses, "s")
    out["io.write_matrix_csv.s"] = (a("io.write_matrix_csv").total / analyses, "s")
    out["io.trace_bytes"] = (state["trace_bytes"], "bytes")
    out["io.psm_bytes"] = (state["psm_bytes"], "bytes")
    for layer in LAYERS:
        busy = fit_tracer.layer_self_time(layer) / fits + an_tracer.layer_self_time(layer) / analyses
        out[f"{layer}.self_s"] = (busy, "s")
    untraced = float(np.median(state["fit_untraced"]))
    ess_ma = multi_chain_ess([t.m_allocated for t, _ in chains])
    out["sampler.ess.m_a"] = (ess_ma, "count")
    out["sampler.ess.gamma"] = (multi_chain_ess([t.gamma for t, _ in chains]), "count")
    out["sampler.ess.zeta"] = (multi_chain_ess([t.zeta for t, _ in chains]), "count")
    out["sampler.ess_per_s.m_a"] = (ess_ma / untraced, "1/s")
    out["trace.overhead_frac"] = (float(np.median(state["fit_traced"])) / untraced - 1.0, "ratio")
    calls = sum(s.calls for s in fit_tracer.stats.values()) / fits
    out["trace.est_overhead_frac"] = (calls * wrapper_cost_s() / untraced, "ratio")
    out["host.calib_ms"] = (float(np.median(calib)), "ms")
    return out


def run_traced(wl, seed, seconds, work):
    runner = Runner(work)
    calib = [calib_ms()]
    modules = import_package()
    _, data = setup(runner, wl, seed, 1)
    n_obs = count_rows(data)
    fit_tracer = Tracer(keep_spans=(SWEEP_START, SWEEP_END, RUN), keep_results=(RUN,))
    an_tracer = Tracer()
    state = {"analyses": 0, "fit_traced": [], "fit_untraced": [], "parallelism": []}
    cseed = chain_seed(seed, 0)
    window = Window(runner, seconds, minimum=1)
    it = 0
    while window.more():
        calib.append(calib_ms())
        traced_iteration(runner, modules, wl, data, n_obs, cseed, it, fit_tracer, an_tracer, state)
        it += 1
    if not (state["fit_traced"] and state["fit_untraced"] and state["analyses"]):
        raise Failure("no traced fit and analyze succeeded")
    print("fingerprint " + json.dumps({
        "workload": wl.name, "seed": seed, "chain_seed": cseed,
        "trace_sha256": state["digests"], "mean_m": state["mean_m"],
    }))
    return runner, layer_metrics(wl, fit_tracer, an_tracer, state, calib), calib


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_workload(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            runner, layer, calib = run_traced(wl, seed, seconds, work)
            metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in layer.items()}
            for key, entry in metrics.items():
                print(f"{name:8s} {key:40s} {entry['value']:14.6g} {entry['unit']}")
        else:
            runner, samples, calib = run_untraced(wl, seed, seconds, work)
            metrics = {}
            for key, unit in END_TO_END_UNITS.items():
                q1, med, q3 = quartiles(samples[key])
                metrics[key] = {"value": med, "unit": unit}
                print(
                    f"{name:8s} {key:14s} {med:12.6g} {unit:4s} "
                    f"(median of {len(samples[key])}, q1 {q1:.6g}, q3 {q3:.6g})"
                )
            rate = runner.failed / runner.attempted
            print(f"{name:8s} {'error_rate':14s} {rate:12.6g} {'':4s} "
                  f"({runner.failed} failed of {runner.attempted} operations)")
        print(f"{name:8s} host.calib_ms first {calib[0]:.1f} median {np.median(calib):.1f} "
              f"min {min(calib):.1f} max {max(calib):.1f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = work.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()
    return runner, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "selmix" / "cli.py").is_file():
        print(f"bench: no selmix sources under {SRC}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            runner, found = run_workload(name, args.seed, args.seconds, bool(args.trace))
            attempted += runner.attempted
            failed += runner.failed
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in found.items()})
    except Failure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
