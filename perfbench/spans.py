"""Span tracer that wraps the package's public functions from outside it.

Every public function of a layer module, and every public method of a
class defined there, is replaced by a wrapper that records a span: name,
parent span, start and end. The replacement is made in every loaded
module of the package that holds the function, not only the module that
defines it, because `from .spherical import to_spherical` copies the name
into the importing module. Calls between functions of one module go
through that module's globals, so they are traced as well.

Spans are kept in memory until the pass ends. A metric whose function no
longer exists is reported as absent instead of failing the run, so later
changes to the package cannot break the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


def span_key(module_name: str, fn) -> str:
    """`layer.function`, without any class name, e.g. `phase3d.hermitian_phase`."""
    return "%s.%s" % (module_name.rsplit(".", 1)[-1], fn.__name__)


def _public_functions(module):
    """(owner, attribute, function) for every public function the module defines."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, obj
        elif inspect.isclass(obj):
            for meth_name, meth in list(vars(obj).items()):
                if not meth_name.startswith("_") and inspect.isfunction(meth):
                    yield obj, meth_name, meth


class Tracer:
    """Records spans for the functions of the given modules while installed.

    `probes` maps a span key to a callable (counts, bound_arguments, result)
    that adds counts taken at that boundary, such as the size of a result.
    """

    def __init__(self, modules, probes=None):
        self.modules = list(modules)
        self.probes = dict(probes or {})
        self.found = set()
        self.probe_errors = []
        self._patches = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        self.names = []
        self.name_ids = {}
        self.span_name = []
        self.span_parent = []
        self.span_start = []
        self.span_end = []
        self.counts = {}
        self._stack = []

    # -- installation ------------------------------------------------------

    def install(self):
        package = self.modules[0].__name__.split(".")[0]
        wrappers = {}  # id(function) -> (function, wrapper), for module-level functions
        for module in self.modules:
            for owner, attr, fn in _public_functions(module):
                key = span_key(module.__name__, fn)
                self.found.add(key)
                wrapper = self._wrap(key, fn)
                self._patch(owner, attr, fn, wrapper)
                if owner is module:
                    wrappers[id(fn)] = (fn, wrapper)
        for name, other in list(sys.modules.items()):
            if other is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, value in list(vars(other).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(other, attr, value, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, original, wrapper):
        if getattr(owner, attr) is wrapper:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, key, fn):
        tracer = self
        probe = self.probes.get(key)
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name_id = tracer.name_ids.get(key)
            if name_id is None:
                name_id = tracer.name_ids[key] = len(tracer.names)
                tracer.names.append(key)
            idx = len(tracer.span_name)
            stack = tracer._stack
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.span_start[idx] = t0
                tracer.span_end[idx] = t1
            if probe is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    probe(tracer.counts, bound.arguments, result)
                except Exception as exc:  # a probe must never fail the pass
                    tracer.probe_errors.append("%s: %r" % (key, exc))
            return result

        return traced

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per span key: calls, inclusive seconds (outermost spans only), self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which lie inside it because one thread records them.
        """
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = {key: {"calls": 0, "s": 0.0, "self_s": 0.0} for key in self.names}
        for i in range(n):
            key = self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            rec = out[key]
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            if not self._has_ancestor_named(i, self.span_name[i]):
                rec["s"] += dur
        return out

    def _has_ancestor_named(self, i, name_id):
        p = self.span_parent[i]
        while p >= 0:
            if self.span_name[p] == name_id:
                return True
            p = self.span_parent[p]
        return False

    def spans(self) -> list:
        """The recorded spans as [name, parent index, start, end] rows."""
        return [
            [self.names[self.span_name[i]], self.span_parent[i], self.span_start[i], self.span_end[i]]
            for i in range(len(self.span_name))
        ]
