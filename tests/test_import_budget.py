"""Start-up budget: ``--version``, ``--help`` and argument errors load no
numpy, ``simulate`` and ``analyze`` run on numpy alone, ``prior-ma`` loads the
Selberg module without the sampler, the model or the ensemble, and no
subcommand loads scipy.

Each command runs in a fresh interpreter that then lists the modules it
loaded.  ``fit`` runs the same way, as a control that the listing sees the
sampler when it is loaded.  Every subcommand also runs in an interpreter
where ``import scipy`` fails, so a scipy import anywhere on its path, even
one that the listing would miss, fails it.  Children that run ``main()``, as
``selmix`` does, check the BLAS thread default that it sets before any
command loads numpy (a ``--version`` child sets it too, though it never
loads numpy); importing ``selmix.cli`` sets nothing, and importing
``selmix.selberg`` does not load the posterior summaries.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from helpers import child_env
from selmix.io import write_dataset

# modules a numpy-only subcommand must not load (scipy counts with its submodules)
HEAVY = ("selmix.sampler", "selmix.model", "selmix.selberg", "selmix.ensemble")

# how a child runs the command line: through cli_dispatch, or through main() as
# the ``selmix`` entry point does
DISPATCH = """
import sys
from selmix.cli import cli_dispatch
code = cli_dispatch(sys.argv[1:])
"""
MAIN = """
from selmix.cli import main
try:
    main()
except SystemExit as exc:
    code = exc.code
"""

REPORT = """
import json, os, sys
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy" or m in {heavy!r}]
tasks = "/proc/self/task"
threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
print(json.dumps({{"code": code, "loaded": sorted(loaded), "numpy": "numpy" in sys.modules,
                  "environ": dict(os.environ), "threads": threads}}))
""".format(heavy=HEAVY)


def child_report(argv, cwd, env=None, prelude="", entry=DISPATCH):
    """Run ``prelude`` then ``argv`` through ``entry`` (``DISPATCH`` or ``MAIN``)
    in a fresh interpreter; return (stdout, report), where the report holds the
    exit code, the loaded modules, whether numpy is loaded, the child's final
    ``os.environ`` and its thread count (``None`` without /proc)."""
    proc = subprocess.run([sys.executable, "-c", prelude + entry + REPORT, *argv],
                          capture_output=True, text=True, cwd=cwd,
                          env=child_env() if env is None else env, check=True)
    *printed, last = proc.stdout.splitlines()
    return "\n".join(printed), json.loads(last)


def scipy_modules(loaded):
    return [m for m in loaded if m.split(".")[0] == "scipy"]


def run_child(argv, cwd):
    """Run ``cli_dispatch(argv)`` in a fresh interpreter; return (stdout, exit code, loaded)."""
    printed, report = child_report(argv, cwd)
    return printed, report["code"], report["loaded"]


def fit_argv(out_dir):
    return ["fit", "--data", "y.csv", "--out-dir", out_dir, "--seed", "3",
            "--gamma", "1.0", "--zeta", "0.5", "--burn-in", "20", "--thin", "1",
            "--n-samples", "10"]


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A small seeded fit run in a child; returns (its fit dir, code, loaded modules)."""
    root = tmp_path_factory.mktemp("budget")
    write_dataset(root / "y.csv", np.random.default_rng(0).normal(size=(40, 2)))
    _, code, loaded = run_child(fit_argv("fit"), root)
    return root, code, loaded


def test_fit_writes_its_trace_and_loads_the_sampler(fitted):
    root, code, loaded = fitted
    assert code == 0
    assert (root / "fit" / "trace_chain0.ndjson").stat().st_size > 0
    assert "selmix.sampler" in loaded
    assert scipy_modules(loaded) == []


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["fit", "--help"], 0),
    (["fit", "--data", "y.csv"], 2),
    (["no-such-command"], 2),
], ids=["version", "help", "fit-help", "fit-without-out-dir", "unknown-command"])
def test_parsing_loads_no_numpy(argv, code, tmp_path):
    printed, report = child_report(argv, tmp_path)
    assert report["code"] == code
    assert not report["numpy"]
    assert report["loaded"] == []
    if code == 0:
        assert "selmix" in printed


def test_version_child_sets_one_blas_thread(tmp_path):
    _, report = child_report(["--version"], tmp_path, env=child_env(OPENBLAS_NUM_THREADS=None),
                             entry=MAIN)
    assert report["code"] == 0
    assert not report["numpy"]
    assert report["environ"]["OPENBLAS_NUM_THREADS"] == "1"


def test_analyze_loads_numpy_only(fitted):
    root, _, _ = fitted
    argv = ["analyze", "--trace", "fit/trace_chain0.ndjson", "--out-dir", "an"]
    _, code, loaded = run_child(argv, root)
    assert code == 0
    assert loaded == []
    assert {p.name for p in (root / "an").iterdir()} == {"psm.csv", "binder.csv", "summary.json"}


def test_simulate_loads_numpy_only(tmp_path):
    argv = ["simulate", "--seed", "7", "--out", "y.csv", "--labels-out", "labels.csv"]
    _, code, loaded = run_child(argv, tmp_path)
    assert code == 0
    assert loaded == []
    assert np.loadtxt(tmp_path / "y.csv", delimiter=",", skiprows=1).shape == (300, 2)


def test_prior_ma_loads_neither_sampler_model_nor_ensemble(tmp_path):
    argv = ["prior-ma", "--gamma", "3", "--m", "8", "--reps", "200"]
    printed, code, loaded = run_child(argv, tmp_path)
    assert code == 0
    assert len(printed.splitlines()) == 9
    assert "selmix.selberg" in loaded
    assert not {"selmix.sampler", "selmix.model", "selmix.ensemble"} & set(loaded)
    assert scipy_modules(loaded) == []


def test_dist_sdir_log_const_loads_no_scipy(tmp_path):
    argv = ["dist", "sdir-log-const", "--alpha", "1.5", "--gamma", "0.7", "--m", "4"]
    printed, code, loaded = run_child(argv, tmp_path)
    assert code == 0
    assert float(printed) < 0.0
    assert "selmix.selberg" in loaded
    assert scipy_modules(loaded) == []


def test_elicit_zeta_loads_no_scipy(fitted):
    root, _, _ = fitted
    argv = ["elicit-zeta", "--data", "y.csv", "--k", "3", "--reps", "20", "--seed", "1"]
    printed, code, loaded = run_child(argv, root)
    assert code == 0
    assert float(printed) > 0.0
    assert "selmix.ensemble" in loaded
    assert scipy_modules(loaded) == []


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "7", "--out", "sim.csv"],
    fit_argv("fit-no-scipy"),
    ["analyze", "--trace", "fit/trace_chain0.ndjson", "--out-dir", "an-no-scipy"],
    ["elicit-zeta", "--data", "y.csv", "--k", "3", "--reps", "20", "--seed", "1"],
    ["prior-ma", "--gamma", "3", "--m", "8", "--reps", "200"],
    ["dist", "sdir-log-const", "--alpha", "1.5", "--gamma", "0.7", "--m", "4"],
], ids=["simulate", "fit", "analyze", "elicit-zeta", "prior-ma", "dist"])
def test_subcommand_runs_with_scipy_absent(fitted, argv):
    # a None entry in sys.modules makes ``import scipy`` raise ImportError
    root, _, _ = fitted
    _, report = child_report(argv, root, prelude='import sys; sys.modules["scipy"] = None\n')
    assert report["code"] == 0


def test_fit_child_runs_one_blas_thread_by_default(fitted):
    root, _, _ = fitted
    _, report = child_report(fit_argv("blas1"), root,
                             env=child_env(OPENBLAS_NUM_THREADS=None), entry=MAIN)
    assert report["code"] == 0
    assert report["environ"]["OPENBLAS_NUM_THREADS"] == "1"
    if sys.platform.startswith("linux"):
        assert report["threads"] == 1


def test_callers_blas_thread_count_wins(fitted):
    root, _, _ = fitted
    _, report = child_report(fit_argv("blas2"), root,
                             env=child_env(OPENBLAS_NUM_THREADS="2"), entry=MAIN)
    assert report["code"] == 0
    assert report["environ"]["OPENBLAS_NUM_THREADS"] == "2"


def test_environment_untouched_when_numpy_loaded_first(tmp_path):
    # the prelude prints the environment as it stands before selmix.cli is imported
    prelude = "import json, os, numpy\nprint(json.dumps(dict(os.environ)))\n"
    printed, report = child_report(["--version"], tmp_path,
                                   env=child_env(OPENBLAS_NUM_THREADS=None), prelude=prelude)
    assert report["code"] == 0
    assert report["environ"] == json.loads(printed.splitlines()[0])
    assert "OPENBLAS_NUM_THREADS" not in report["environ"]


def child_run(code):
    """The stdout of ``code`` run in a fresh interpreter that imports this checkout."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(OPENBLAS_NUM_THREADS=None), check=True).stdout


def test_importing_the_cli_sets_no_blas_threads():
    code = "import os, selmix.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert child_run(code) == "None\n"


def test_selberg_loads_no_posterior_summaries():
    code = "import sys, selmix.selberg; print('selmix.analysis' in sys.modules)"
    assert child_run(code) == "False\n"
