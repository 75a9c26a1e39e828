"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil
import sys

import pytest

import selmix

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
