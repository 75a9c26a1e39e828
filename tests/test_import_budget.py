"""Start-up budget: ``analyze``, ``--version`` and ``--help`` run on numpy alone,
and ``prior-ma`` loads the Selberg module without the sampler, the model or
the ensemble.

Each command runs in a fresh interpreter that then lists the modules it
loaded.  ``fit`` runs the same way, as a control that the listing sees the
sampler when it is loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import selmix
from selmix.io import write_dataset

# modules a numpy-only subcommand must not load (scipy counts with its submodules)
HEAVY = ("selmix.sampler", "selmix.model", "selmix.selberg", "selmix.ensemble")

CHILD = """
import json, sys
from selmix.cli import cli_dispatch
code = cli_dispatch(sys.argv[1:])
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy" or m in {heavy!r}]
print(json.dumps({{"code": code, "loaded": sorted(loaded)}}))
""".format(heavy=HEAVY)


def run_child(argv, cwd):
    """Run ``cli_dispatch(argv)`` in a fresh interpreter; return (stdout, exit code, loaded)."""
    src = str(Path(selmix.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True,
                          text=True, cwd=cwd, env=env, check=True)
    *printed, last = proc.stdout.splitlines()
    report = json.loads(last)
    return "\n".join(printed), report["code"], report["loaded"]


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A small seeded fit run in a child; returns (its fit dir, code, loaded modules)."""
    root = tmp_path_factory.mktemp("budget")
    write_dataset(root / "y.csv", np.random.default_rng(0).normal(size=(40, 2)))
    argv = ["fit", "--data", "y.csv", "--out-dir", "fit", "--seed", "3",
            "--gamma", "1.0", "--zeta", "0.5", "--burn-in", "20", "--thin", "1",
            "--n-samples", "10"]
    _, code, loaded = run_child(argv, root)
    return root, code, loaded


def test_fit_writes_its_trace_and_loads_the_sampler(fitted):
    root, code, loaded = fitted
    assert code == 0
    assert (root / "fit" / "trace_chain0.ndjson").stat().st_size > 0
    assert "selmix.sampler" in loaded and "scipy" in loaded


@pytest.mark.parametrize("argv", [["--version"], ["--help"]])
def test_version_and_help_load_numpy_only(argv, tmp_path):
    printed, code, loaded = run_child(argv, tmp_path)
    assert code == 0
    assert "selmix" in printed
    assert loaded == []


def test_analyze_loads_numpy_only(fitted):
    root, _, _ = fitted
    argv = ["analyze", "--trace", "fit/trace_chain0.ndjson", "--out-dir", "an"]
    _, code, loaded = run_child(argv, root)
    assert code == 0
    assert loaded == []
    assert {p.name for p in (root / "an").iterdir()} == {"psm.csv", "binder.csv", "summary.json"}


def test_prior_ma_loads_neither_sampler_model_nor_ensemble(tmp_path):
    argv = ["prior-ma", "--gamma", "3", "--m", "8", "--reps", "200"]
    printed, code, loaded = run_child(argv, tmp_path)
    assert code == 0
    assert len(printed.splitlines()) == 9
    assert "selmix.selberg" in loaded
    assert not {"selmix.sampler", "selmix.model", "selmix.ensemble"} & set(loaded)
