"""Span tracing from outside the package: wrap public functions, time self time.

``Tracer.install(modules)`` replaces every public function defined in one of
``modules`` by a timing wrapper, in every namespace that holds it (a name
brought in with ``from .x import f`` is a second reference to the same
function, and calls through it must be timed too).  ``restore`` puts every
original back.  Spans nest through a stack of child-time accumulators, so
each key gets its inclusive time and its self time (inclusive minus the
time of the wrapped calls it made).

Statistics accumulate across install/restore cycles.
"""

from __future__ import annotations

import inspect
import time


class SpanStats:
    """Calls, inclusive seconds and self seconds of one span key."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Timing wrappers over the public functions of a set of modules.

    ``keep_spans`` names keys whose every (start, end) pair is kept in
    ``spans``; ``keep_results`` names keys whose return values are kept in
    ``results``.  Everything else is aggregated into ``stats`` only, so the
    per-call cost stays one clock pair and a few list operations.
    """

    def __init__(self, keep_spans=(), keep_results=(), clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.spans = {key: [] for key in keep_spans}
        self.results = {key: [] for key in keep_results}
        self._stack = []
        self._patched = []

    def wrap(self, fn, key):
        """Return a timing wrapper around ``fn`` that books under ``key``."""
        stats = self.stats.setdefault(key, SpanStats())
        stack = self._stack
        clock = self.clock
        spans = self.spans.get(key)
        results = self.results.get(key)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                stats.calls += 1
                stats.total += dur
                stats.self_time += dur - child
                if stack:
                    stack[-1] += dur
                if spans is not None:
                    spans.append((start, start + dur))
            if results is not None:
                results.append(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def install(self, modules, namespaces=None):
        """Wrap the public functions defined in ``modules``.

        ``modules`` maps a layer name to a module; a function's key is
        ``<layer>.<function name>``.  The wrapper replaces the function in
        every module of ``namespaces`` (default: ``modules``) that holds it.
        """
        if self._patched:
            raise RuntimeError("tracer is already installed")
        keys = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    keys[obj] = f"{layer}.{name}"
        wrappers = {}
        targets = list(modules.values()) if namespaces is None else list(namespaces)
        try:
            for module in targets:
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in keys:
                        if obj not in wrappers:
                            wrappers[obj] = self.wrap(obj, keys[obj])
                        self._patched.append((module, name, obj))
                        setattr(module, name, wrappers[obj])
        except BaseException:
            self.restore()
            raise

    def restore(self):
        """Put back every attribute ``install`` replaced, last patch first."""
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)
        self._stack.clear()

    def layer_self_time(self, layer):
        """Self seconds summed over every key of ``layer``."""
        prefix = layer + "."
        return sum(s.self_time for k, s in self.stats.items() if k.startswith(prefix))

    def get(self, key):
        return self.stats.get(key, SpanStats())
