"""Outside-in span tracer for the relphase package.

``Tracer.install`` wraps every public (non-underscore) function defined in a
relphase module, at every module binding site that holds it: the module
that defines it and every module that imported it. Nothing in ``src/``
changes and no private name is used, so the tracer follows functions as
they move between modules, and names that no longer exist simply record no
span. Spans stay in memory: name, layer (the defining module), start, end
and parent.

A layer's self time is the time inside it not covered by a span of another
layer. A function's self time is the same, measured while that function is
on the stack, so it includes its private and same-layer helpers.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter
from collections.abc import Mapping

import numpy as np


def _live_slices(result) -> int:
    return sum(1 for s in result if s is not None)


def _amplitude_count(result) -> int:
    amps = result.amplitudes
    return len(amps) if isinstance(amps, Mapping) else int(np.size(amps))


# Work counts read from return values at layer boundaries: span name -> (counter, reader).
COUNTERS = {
    "pom.snapshot_sweep": ("pom.slices", _live_slices),
    "fock.to_jm": ("fock.amplitudes", _amplitude_count),
}


PACKAGE = "relphase"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        root = importlib.import_module(PACKAGE)
        names = [f"{PACKAGE}.{m.name}" for m in pkgutil.iter_modules(root.__path__)]
        wrappers = {}
        for module in [root] + [importlib.import_module(n) for n in names]:
            for attr, obj in list(vars(module).items()):
                if not (inspect.isfunction(obj) and obj.__module__.startswith(PACKAGE + ".")):
                    continue
                if attr.startswith("_") or obj.__name__.startswith("_"):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._restore.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, clock(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                try:
                    self.counts[counter[0]] += counter[1](result)
                except (AttributeError, TypeError):  # the return type changed: count nothing
                    pass
            return result

        return wrapper

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """(function self time, layer self time, calls), keyed by span name or layer."""
        n = len(self.spans)
        foreign = [0.0] * n  # time under a span covered by spans of other layers
        for i in range(n - 1, -1, -1):
            name, layer, start, end, parent = self.spans[i]
            if parent is not None:
                covered = end - start if self.spans[parent][1] != layer else foreign[i]
                foreign[parent] += covered
        fn_self: Counter = Counter()
        layer_self: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, layer, start, end, parent) in enumerate(self.spans):
            own = end - start - foreign[i]
            calls[name] += 1
            if all(self.spans[a][0] != name for a in self._ancestors(i)):  # re-entry counts once
                fn_self[name] += own
            if parent is None or self.spans[parent][1] != layer:
                layer_self[layer] += own
        return dict(fn_self), dict(layer_self), calls

    def _ancestors(self, i: int):
        parent = self.spans[i][4]
        while parent is not None:
            yield parent
            parent = self.spans[parent][4]
