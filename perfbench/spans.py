"""In-memory span tracer that instruments the selfconj package from outside.

`Tracer.install()` wraps every public function of the package's modules and
rebinds the wrapper in every module namespace that binds the function, so a
call through an imported name (`fieldops` calling `build_spinor_basis`,
`halfspin` calling `max_abs`) is traced as well.  Classes are shared objects,
so their public methods, properties, `__init__` and `__call__` are wrapped in
place.  `numpy.linalg.svd` gets a counter, not a span, so its time stays in
the self time of the layer that called it; its calls are counted per layer
of the innermost open span (`-` outside every span), so `fock:numpy.linalg.svd`
counts only the calls made from `fock` code.

Each span is a tuple `(name, start, end, parent, op)`: `name` is
`<layer>.<qualname>`, the layer being the defining module, `parent` is the
index of the enclosing span (-1 at the top) and `op` the operation id set by
the caller.  Spans are kept in memory; `dump()` writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import marshal
import time

LAYERS = ("linalg", "halfspin", "spin1", "fock", "fieldops", "checks", "cli")
SVD = "numpy.linalg.svd"
FOCK_SVD = f"fock:{SVD}"
RENDER = ("checks.render_text", "checks.render_json")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: dict = {}  # ("<layer>:<name>", op) -> calls
        self.op = 0
        self._stack: list = []  # (span index, layer) of each open span
        self._undo: list = []

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append((idx, layer))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1][0] if stack else -1, self.op)

        return traced

    def counter(self, name: str, fn):
        counts, stack = self.counts, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = (f"{stack[-1][1] if stack else '-'}:{name}", self.op)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, value):
        # the raw entry: getattr would turn a classmethod into a bound method
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, layer: str, cls):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if inspect.isfunction(val):
                self._patch(cls, attr, self.span(name, val))
            elif isinstance(val, property) and val.fget is not None:
                wrapped = property(self.span(name, val.fget), val.fset, val.fdel, val.__doc__)
                self._patch(cls, attr, wrapped)
            elif isinstance(val, (classmethod, staticmethod)):
                self._patch(cls, attr, type(val)(self.span(name, val.__func__)))

    def install(self):
        """Wrap the selfconj package's public callables; `uninstall()` undoes it."""
        import numpy.linalg

        import selfconj

        modules = {layer: importlib.import_module(f"selfconj.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.span(f"{layer}.{obj.__qualname__}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for ns in [selfconj, *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(ns, attr, wrappers[obj])
        self._patch(numpy.linalg, "svd", self.counter(SVD, numpy.linalg.svd))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path: str):
        with open(path, "wb") as fh:
            marshal.dump({"spans": self.spans, "counts": list(self.counts.items())}, fh)


def load(path: str):
    """Read what `Tracer.dump` wrote: (spans, counts)."""
    with open(path, "rb") as fh:
        doc = marshal.load(fh)
    return doc["spans"], dict(doc["counts"])


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are visited in order of start time, so the union of a parent's
    child intervals (clipped to the parent) is one running sum per parent.
    """
    covered = [0.0] * len(spans)
    reach = [start for _, start, _, _, _ in spans]
    for i in sorted(range(len(spans)), key=lambda i: spans[i][1]):
        _, start, end, parent, _ = spans[i]
        if parent < 0:
            continue
        lo, hi = max(start, reach[parent]), min(end, spans[parent][2])
        if hi > lo:
            covered[parent] += hi - lo
            reach[parent] = hi
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]


def totals(spans, counts) -> dict:
    """Sums over all ops: self time and calls per bucket, calls and
    inclusive time per span name, and the counters by "<layer>:<name>".

    A span's bucket is its layer, except that every span inside a render
    call is bucketed as "render", so `checks` self time excludes rendering.
    Parents must precede their children in `spans`, as the tracer records.
    """
    out = {"self_s": {}, "calls": {}, "name_calls": {}, "name_s": {}, "counts": {}}
    buckets: list[str] = []
    for (name, start, end, parent, _), own in zip(spans, self_times(spans)):
        if name in RENDER or (parent >= 0 and buckets[parent] == "render"):
            bucket = "render"
        else:
            bucket = name.split(".", 1)[0]
        buckets.append(bucket)
        out["self_s"][bucket] = out["self_s"].get(bucket, 0.0) + own
        out["calls"][bucket] = out["calls"].get(bucket, 0) + 1
        out["name_calls"][name] = out["name_calls"].get(name, 0) + 1
        out["name_s"][name] = out["name_s"].get(name, 0.0) + (end - start)
    for (name, _), n in counts.items():
        out["counts"][name] = out["counts"].get(name, 0) + n
    return out
