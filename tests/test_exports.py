"""Every exported name resolves, so a deletion cannot leave a stale export,
the package exports exactly the names listed here, and the declared
dependency floor admits only versions that have what the package calls."""

import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import selmix

# adding or removing a package export is a deliberate edit of this list
PACKAGE_EXPORTS = [
    "GeParams",
    "Hyperparams",
    "MixtureState",
    "PosteriorTrace",
    "SamplerConfig",
    "SdirParams",
    "StepDiagnostics",
    "__version__",
    "binder_estimate",
    "elicit_zeta",
    "ge_log_density",
    "ge_log_norm_const",
    "internal_dispersion_expectation",
    "log_complete_joint",
    "log_likelihood",
    "posterior_similarity",
    "prior_ma_simulation",
    "run_sampler",
    "sample_ge",
    "sample_sdir",
    "sdir_log_density",
    "sdir_log_norm_const",
    "sdir_moments",
    "shifted_poisson_log_pmf",
    "simulate_benchmark",
]

MODULES = ["selmix"] + sorted(
    f"selmix.{info.name}" for info in pkgutil.iter_modules(selmix.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"
    # each exported function or class is the very object its home module defines
    for attr in exported:
        obj = getattr(module, attr)
        home = getattr(obj, "__module__", None)
        if callable(obj) and home is not None:
            assert obj is getattr(sys.modules[home], attr), f"{name}.{attr} is not {home}.{attr}"
    star = {}
    exec(f"from {name} import *", star)
    unbound = [attr for attr in exported if star.get(attr) is not getattr(module, attr)]
    assert not unbound, f"from {name} import * does not bind {unbound}"


def test_package_exports_are_pinned():
    assert sorted(selmix.__all__) == PACKAGE_EXPORTS


def test_scipy_floor_has_the_kmeans_rng_keyword():
    # numpy is the one runtime dependency; the test extra's scipy serves as a
    # reference, and test_analysis compares analysis._kmeans with
    # scipy.cluster.vq.kmeans(..., rng=rng), a keyword that scipy added in
    # 1.15.  pyproject.toml is read with regexes (no tomllib on 3.10)
    from scipy.cluster.vq import kmeans

    assert "rng" in inspect.signature(kmeans).parameters
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    dependencies = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S)
    assert dependencies, "pyproject.toml declares no dependencies"
    assert re.findall(r'"([^"]*)"', dependencies[1]) == ["numpy>=1.24"]
    floor = re.search(r'^test = \[.*"scipy>=(\d+)\.(\d+)', text, re.M)
    assert floor, "the test extra declares no scipy floor"
    assert (int(floor[1]), int(floor[2])) >= (1, 15)
