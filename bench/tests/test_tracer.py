import importlib
import sys
import types

import numpy as np
import pytest

from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_modules(clock):
    """Three modules: ``outer`` calls ``inner`` twice through a from-import, ``inner`` calls ``leaf``."""
    low = types.ModuleType("fake.low")
    high = types.ModuleType("fake.high")

    def leaf():
        clock.now += 7.0

    def inner():
        clock.now += 5.0
        low.leaf()

    def outer():
        clock.now += 1.0
        high.inner()
        clock.now += 2.0
        high.inner()
        clock.now += 3.0

    def _private():
        return None

    leaf.__module__ = inner.__module__ = "fake.low"
    outer.__module__ = _private.__module__ = "fake.high"
    low.leaf, low.inner = leaf, inner
    high.outer, high.inner, high._private = outer, inner, _private
    return {"low": low, "high": high}


def test_self_time_on_nested_spans():
    clock = FakeClock()
    modules = make_modules(clock)
    tracer = Tracer(clock=clock)
    tracer.install(modules)
    try:
        modules["high"].outer()
    finally:
        tracer.restore()
    outer, inner, leaf = (tracer.get(k) for k in ("high.outer", "low.inner", "low.leaf"))
    assert (outer.calls, inner.calls, leaf.calls) == (1, 2, 2)
    assert (outer.total, outer.self_time) == (30.0, 6.0)
    assert (inner.total, inner.self_time) == (24.0, 10.0)
    assert (leaf.total, leaf.self_time) == (14.0, 14.0)
    assert tracer.layer_self_time("low") == 24.0
    assert "high._private" not in tracer.stats


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    mod = types.ModuleType("fake.err")

    def boom():
        clock.now += 4.0
        raise RuntimeError("boom")

    def caller():
        try:
            mod.boom()
        except RuntimeError:
            clock.now += 1.0

    boom.__module__ = caller.__module__ = "fake.err"
    mod.boom, mod.caller = boom, caller
    tracer = Tracer(clock=clock)
    tracer.install({"err": mod})
    try:
        mod.caller()
    finally:
        tracer.restore()
    assert tracer.get("err.boom").calls == 1
    assert tracer.get("err.caller").self_time == 1.0
    assert tracer._stack == []


def test_restore_puts_back_every_attribute_of_the_package():
    layers = ("cli", "sampler", "model", "distributions", "selberg", "ensemble", "analysis", "io")
    modules = {name: importlib.import_module(f"selmix.{name}") for name in layers}
    spaces = [m for n, m in sorted(sys.modules.items()) if n == "selmix" or n.startswith("selmix.")]
    before = [(m, dict(vars(m))) for m in spaces]
    original = modules["selberg"].sdir_log_norm_const
    tracer = Tracer(keep_results=("sampler.run_sampler",))
    tracer.install(modules, spaces)
    try:
        # one name imported into several namespaces gets one shared wrapper
        assert modules["sampler"].sdir_log_norm_const is modules["selberg"].sdir_log_norm_const
        assert modules["sampler"].sdir_log_norm_const.__wrapped__ is original
        y, _ = modules["model"].simulate_benchmark(1, n_obs=30)
        hyper = modules["model"].Hyperparams(gamma_fixed=1.0, burn_in=2, thin=1, n_samples=2)
        modules["sampler"].run_sampler(y, modules["sampler"].SamplerConfig(hyper=hyper, seed=0))
    finally:
        tracer.restore()
    for module, snapshot in before:
        now = vars(module)
        assert now.keys() == snapshot.keys()
        changed = [k for k in snapshot if now[k] is not snapshot[k]]
        assert changed == [], module.__name__
    assert tracer.get("selberg.sdir_log_norm_const").calls > 0
    assert tracer.get("sampler.birth_death_step").calls == 4
    assert len(tracer.results["sampler.run_sampler"]) == 1


def test_install_twice_is_refused():
    clock = FakeClock()
    modules = make_modules(clock)
    tracer = Tracer(clock=clock)
    tracer.install(modules)
    try:
        with pytest.raises(RuntimeError):
            tracer.install(modules)
    finally:
        tracer.restore()
    assert not hasattr(modules["low"].leaf, "__wrapped__")
