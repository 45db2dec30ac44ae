"""In-memory span tracing of folcan's public functions, for the traced run.

``install(tracer)`` replaces each function named in ``LAYERS`` by a wrapper
that records one span per call: the layer name, the span that was open on
the calling thread when it started (its parent), and its start and end on
the calling thread's CPU clock (``time.thread_time``), so a span measures
the time its thread was busy. Every module namespace under ``folcan`` that binds
the function is patched, because the package calls across modules by bare
name (``bounds`` imports ``integrality_check``, ``riemann_roch`` calls it
internally). ``ResolutionData`` construction is traced through its
``__init__`` and the basket generator through each ``next``.

Spans live in flat arrays so that a pass with millions of calls stays
small. ``span_table`` turns them into per-layer call counts and self time:
a span's duration minus the part of it its child spans cover. Clocks of
different threads do not compare, so the first span on a worker thread
(``enumerate --workers 2``) has no parent; because each thread's clock
only runs while it holds the interpreter lock, self times of concurrent
threads still add up to the process's busy time rather than a multiple of
the wall time.
"""

from __future__ import annotations

import functools
import sys
import threading
from array import array
from time import thread_time

# public functions wrapped, by module; the metric prefix is "<module>.<name>"
LAYERS = {
    "exact_core": ("signature", "solve_linear", "parse_rational", "format_rational"),
    "surface_model": ("mumford_pullback",),
    "baskets": ("basket_term", "q_index"),
    "riemann_roch": ("integrality_check", "hilbert_value", "to_hilbert_function"),
    "bounds": ("enumerate_hilbert",),
    "serialization": ("dumps", "model_from_json", "numerics_from_json", "enumerated_function_to_json"),
    "cli": ("run", "build_parser"),
    "constructions": ("ruled_double_cover", "abelian_double_cover"),
}
GENERATORS = {"bounds": ("enumerate_baskets",)}
CONSTRUCTORS = {"surface_model": ("ResolutionData",)}
# counters taken from a traced call's result
MEASURES = {
    "bounds.enumerate_hilbert": lambda found: {
        "bounds.functions": len(found),
        "bounds.witnesses": sum(len(entry.witnesses) for entry in found),
    },
    "serialization.dumps": lambda text: {"serialization.dumps.bytes": len(text.encode())},
}


class Tracer:
    """Span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.kind = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.flag = array("b")
        self.counters: dict[str, int] = {}
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, nid: int):
        stack = self._stacks.setdefault(threading.get_ident(), [])
        parent = stack[-1] if stack else -1
        with self._lock:
            idx = len(self.start)
            self.kind.append(nid)
            self.parent.append(parent)
            self.flag.append(0)
            self.end.append(0.0)
            self.start.append(thread_time())
        stack.append(idx)
        return idx, stack

    def close(self, idx: int, stack: list[int]) -> None:
        self.end[idx] = thread_time()
        stack.pop()

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name: str, fn):
        """Call ``fn()`` inside a span named ``name`` and return its result."""
        idx, stack = self.open(self.name_id(name))
        try:
            return fn()
        finally:
            self.close(idx, stack)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        flag = self.flag
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, stack = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx, stack)
            if result is True:
                flag[idx] = 1
            if measure is not None:
                for key, amount in measure(result).items():
                    self.count(key, amount)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def spans():
                yielded = 0
                try:
                    while True:
                        idx, stack = self.open(nid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self.close(idx, stack)
                        yielded += 1
                        yield item
                finally:
                    self.count(name + ".yielded", yielded)

            return spans()

        return traced


def span_table(names, kind, parent, start, end, flag) -> dict[str, tuple[int, float, int]]:
    """Per name: (span count, total self time in seconds, calls returning True).

    A parent and its children run on one thread and children are indexed
    in start order, so a sweep over them in index order measures the
    union of their intervals.
    """
    n = len(start)
    covered = array("d", bytes(8 * n))
    reach = array("d", bytes(8 * n))
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > reach[p]:
            reach[p] = hi
    calls = [0] * len(names)
    own = [0.0] * len(names)
    trues = [0] * len(names)
    for i in range(n):
        k = kind[i]
        calls[k] += 1
        own[k] += (end[i] - start[i]) - covered[i]
        trues[k] += flag[i]
    return {name: (calls[k], own[k], trues[k]) for k, name in enumerate(names)}


def _rebind(original, replacement, undo: list) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "folcan" or name.startswith("folcan.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def install(tracer: Tracer):
    """Wrap every traced function; returns a callable that undoes it."""
    import folcan

    undo: list = []
    for module_name, functions in LAYERS.items():
        module = getattr(folcan, module_name)
        for fn_name in functions:
            original = getattr(module, fn_name)
            _rebind(original, tracer.wrap(f"{module_name}.{fn_name}", original), undo)
    for module_name, functions in GENERATORS.items():
        module = getattr(folcan, module_name)
        for fn_name in functions:
            original = getattr(module, fn_name)
            _rebind(original, tracer.wrap_generator(f"{module_name}.{fn_name}", original), undo)
    for module_name, classes in CONSTRUCTORS.items():
        for cls_name in classes:
            cls = getattr(getattr(folcan, module_name), cls_name)
            original = cls.__init__
            cls.__init__ = tracer.wrap(f"{module_name}.{cls_name}", original)
            undo.append((cls, "__init__", original))

    def uninstall():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return uninstall
