"""Span tracing from outside the package.

The benchmark never edits ``restoragent``.  For a traced pass it replaces
public functions and methods with wrappers that record one span per call,
at every place the name is looked up at call time: the defining module or
class, and every ``restoragent`` module that imported the function by name.
Spans live in flat in-memory arrays and are written out once at the end.
"""

from __future__ import annotations

import array
import functools
import importlib
import sys
import types
from collections import Counter
from time import perf_counter_ns

#: The span recorded around each draw made through a counting generator.
DRAW_SPAN = "rng.draw"


class Tracer:
    """In-memory span store: name, start, end, parent and run id per span."""

    def __init__(self):
        self.names = []  # span name -> id
        self.name_ids = {}
        self.name_of = array.array("H")
        self.starts = array.array("q")
        self.ends = array.array("q")
        self.parents = array.array("q")
        self.runs = array.array("q")
        self.stack = []
        self.run_id = -1
        self.counters = Counter()

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, nid: int) -> int:
        index = len(self.starts)
        self.name_of.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.runs.append(self.run_id)
        self.ends.append(0)
        self.stack.append(index)
        self.starts.append(perf_counter_ns())
        return index

    def close(self, index: int):
        self.ends[index] = perf_counter_ns()
        self.stack.pop()

    def __len__(self) -> int:
        return len(self.starts)

    def write(self, fh, label):
        """One tab-separated line per span: label, name, start, end, parent, run."""
        for i in range(len(self.starts)):
            fh.write(
                f"{label}\t{self.names[self.name_of[i]]}\t{self.starts[i]}\t{self.ends[i]}"
                f"\t{self.parents[i]}\t{self.runs[i]}\n"
            )


def self_times(starts, ends, parents, charged=None) -> list:
    """Per-span self time: duration minus the part of the span's own
    interval that its children cover (child intervals are clipped to the
    parent and overlaps between children are counted once).  ``charged[i]``,
    if given, is the tracing cost that span ``i`` adds to its parent's
    interval outside its own; it is taken off the parent too, down to 0."""
    self_ns = [end - start for start, end in zip(starts, ends)]
    children = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        covered, cur_start, cur_end = 0, None, None
        for start, end in sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids):
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        if charged is not None:
            covered += sum(charged[k] for k in kids)
        self_ns[parent] = max(0, self_ns[parent] - covered)
    return self_ns


class CountingGenerator:
    """Stands in for a ``numpy.random.Generator``: every method call is
    forwarded unchanged, counted as a draw and recorded as a span."""

    __slots__ = ("_gen", "_tracer", "draws")

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer
        self.draws = 0

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr

        def draw(*args, **kwargs):
            tracer = self._tracer
            if self.draws == 0:
                tracer.counters["rng.generators_drawn"] += 1
            self.draws += 1
            tracer.counters["rng.draws"] += 1
            index = tracer.open(tracer.name_id(DRAW_SPAN))
            try:
                return attr(*args, **kwargs)
            finally:
                tracer.close(index)

        return draw


def resolve(dotted: str):
    """(owner, attribute, original) for "pkg.module[.Class].name"."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            owner = importlib.import_module(module_name)
        except ModuleNotFoundError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part, None)
        attr = parts[-1]
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not isinstance(original, types.FunctionType):
            raise LookupError(f"traced name {dotted!r} is not a plain function")
        return owner, attr, original
    raise LookupError(f"traced name {dotted!r} does not resolve to a module")


def _binding_sites(owner, attr, original, package: str):
    """Every (namespace, name) the program looks ``original`` up through."""
    if isinstance(owner, type):
        return [(owner, attr)]
    sites = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == package or module_name.startswith(package + ".")
                                  or module is owner):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                sites.append((module, name))
    return sites


def span_wrapper(fn, tracer: Tracer, span_name: str, post=None, op_root: bool = False):
    """Wrap ``fn`` so each call records a span.  ``post`` sees every return
    value and may replace it; an op root gives the spans inside it a new
    run id."""
    nid = tracer.name_id(span_name)

    def wrapper(*args, **kwargs):
        if op_root:
            tracer.run_id = tracer.counters["ops.roots"]
            tracer.counters["ops.roots"] += 1
        index = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
            if op_root:
                tracer.run_id = -1
        return post(result, tracer) if post is not None else result

    return functools.wraps(fn)(wrapper)


def timing_wrapper(fn, samples: array.array):
    """Wrap ``fn`` so each call appends its duration in ns to ``samples``."""

    def wrapper(*args, **kwargs):
        start = perf_counter_ns()
        result = fn(*args, **kwargs)
        samples.append(perf_counter_ns() - start)
        return result

    return functools.wraps(fn)(wrapper)


def outside_cost_ns(repeats: int = 5, calls: int = 20_000) -> dict:
    """ns per call that tracing adds to the caller outside the span it
    records: the wrapper's own call and the bookkeeping before the first
    and after the last clock read, and for a draw also the proxy's
    attribute lookup.  It is the time of a traced call minus the span it
    records minus the time of the same call untraced, for an empty function
    and for one ``random()`` draw; the fastest of ``repeats`` rounds.
    Keys: "span" and DRAW_SPAN."""
    import numpy as np

    tracer = Tracer()

    def per_call(call) -> float:
        best = None
        for _ in range(repeats):
            tracer.__init__()
            start = perf_counter_ns()
            for _ in range(calls):
                call()
            total = perf_counter_ns() - start
            inside = sum(e - s for s, e in zip(tracer.starts, tracer.ends))
            best = min(best if best is not None else total, (total - inside) / calls)
        return best

    def empty():
        return None

    traced = span_wrapper(empty, tracer, "calibration.empty")
    bare = np.random.Generator(np.random.Philox(key=(1, 2)))
    proxy = CountingGenerator(np.random.Generator(np.random.Philox(key=(1, 2))), tracer)
    return {
        "span": max(0.0, per_call(traced) - per_call(empty)),
        DRAW_SPAN: max(0.0, per_call(lambda: proxy.random()) - per_call(lambda: bare.random())),
    }


class Patch:
    """Replaces functions at every binding site; ``restore`` undoes it."""

    def __init__(self, package: str = "restoragent"):
        self.package = package
        self.saved = []

    def add(self, dotted: str, make_wrapper):
        owner, attr, original = resolve(dotted)
        wrapper = make_wrapper(original)
        for namespace, name in _binding_sites(owner, attr, original, self.package):
            self.saved.append((namespace, name, original))
            setattr(namespace, name, wrapper)

    def restore(self):
        for namespace, name, original in reversed(self.saved):
            setattr(namespace, name, original)
        self.saved = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
