"""Span tracing of cherngeo's layers from outside the package.

The layers are the package modules.  ``Tracer.install`` wraps every public
function of each layer and rebinds the wrapper under every name that any
``cherngeo`` module holds for it, so calls across modules (``geography``
calling ``halic_construction`` through its own import of it) are seen too.
Nothing under ``src/`` is edited; ``uninstall`` restores the originals.

Each call becomes a span (name, start, end, the span that caused it, and the
benchmark operation it belongs to).  Spans stay in memory and are written out
by ``dump`` when the benchmark ends.  Aggregates are kept for every call:
calls, inclusive time and self time per function, and call counts per
(caller, callee) edge, so ratios are measured where the work happens.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("invariants", "catalog", "algebra", "fibersum", "geography", "plot", "cli")

# Results whose size is counted where they cross a layer boundary:
# function name -> (counter name, size of one result).
RESULT_COUNTERS = {
    "geography.search_realizations": ("geography.hits", len),
    "plot.grid_csv": ("plot.bytes_out", lambda text: len(text.encode("utf-8"))),
    "plot.geography_svg": ("plot.bytes_out", lambda text: len(text.encode("utf-8"))),
}

# Raw spans beyond this many are dropped; the aggregates still count them.
MAX_SPANS = 100_000


class Tracer:
    """Call counts, self time and spans of the wrapped layer functions."""

    def __init__(self):
        self.names: list[str] = ["root"]
        self.calls = [0]
        self.total_ns = [0]
        self.self_ns = [0]
        self.edges: dict[tuple[int, int], int] = {}
        self.counters: dict[str, int] = {"algebra.expressions_built": 0}
        self.spans_total = 0
        # One row per kept span: id, parent id, operation, name id, start, end.
        self.span_columns = tuple(array("q") for _ in range(6))
        self._ids = {"root": 0}
        self._stack = [[0, -1, 0]]  # frames: [name id, span id, child time]
        self._op = -1
        self._t0 = perf_counter_ns()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"cherngeo.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, fn in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)  # its span would end before its work
                ):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        namespaces = [
            m for n, m in sys.modules.items() if n == "cherngeo" or n.startswith("cherngeo.")
        ]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(namespace, attr, hit[1])
                    self._patched.append((namespace, attr, value))

        expression = importlib.import_module("cherngeo.algebra").GradedClassExpression
        original_init = expression.__init__
        counters = self.counters

        def counting_init(obj, *args, **kwargs):
            counters["algebra.expressions_built"] += 1
            original_init(obj, *args, **kwargs)

        expression.__init__ = counting_init
        self._patched.append((expression, "__init__", original_init))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._call(nid, fn, args, kwargs)
            if counter is not None:
                self.counters[counter[0]] = self.counters.get(counter[0], 0) + counter[1](result)
            return result

        return traced

    # -- recording ----------------------------------------------------------

    def _call(self, nid: int, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1]
        frame = [nid, self.spans_total, 0]
        self.spans_total += 1
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            self._close(frame, parent, start, end)

    def _close(self, frame, parent, start: int, end: int) -> None:
        nid, span_id, child_ns = frame
        duration = end - start
        self.calls[nid] += 1
        self.total_ns[nid] += duration
        self.self_ns[nid] += duration - child_ns
        parent[2] += duration
        edge = (parent[0], nid)
        self.edges[edge] = self.edges.get(edge, 0) + 1
        if span_id < MAX_SPANS:
            for column, value in zip(
                self.span_columns,
                (span_id, parent[1], self._op, nid, start - self._t0, end - self._t0),
            ):
                column.append(value)

    @contextlib.contextmanager
    def operation(self, index: int, name: str):
        """The span of one benchmark operation; layer calls inside are its children."""
        nid = self._name_id(f"op.{name}")
        outer_op, self._op = self._op, index
        parent = self._stack[-1]
        frame = [nid, self.spans_total, 0]
        self.spans_total += 1
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self._close(frame, parent, start, end)
            self._op = outer_op

    # -- queries ------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[self._ids[name]] if name in self._ids else 0

    def ms(self, name: str) -> float:
        return self.total_ns[self._ids[name]] / 1e6 if name in self._ids else 0.0

    def self_ms(self, name: str) -> float:
        return self.self_ns[self._ids[name]] / 1e6 if name in self._ids else 0.0

    def edge_count(self, caller: str, callee: str) -> int:
        if caller not in self._ids or callee not in self._ids:
            return 0
        return self.edges.get((self._ids[caller], self._ids[callee]), 0)

    def layer_self_ms(self, layer: str) -> float:
        prefix = layer + "."
        return sum(
            self.self_ns[i] for i, name in enumerate(self.names) if name.startswith(prefix)
        ) / 1e6

    def dump(self, path: Path, meta: dict) -> None:
        """Write aggregates and the kept spans as one JSON document."""
        functions = {
            name: {
                "calls": self.calls[i],
                "ms": self.total_ns[i] / 1e6,
                "self_ms": self.self_ns[i] / 1e6,
            }
            for i, name in enumerate(self.names)
            if self.calls[i]
        }
        edges = [
            {"caller": self.names[a], "callee": self.names[b], "calls": n}
            for (a, b), n in sorted(self.edges.items())
        ]
        spans = [list(row) for row in zip(*self.span_columns)]
        document = {
            **meta,
            "functions": functions,
            "edges": edges,
            "counters": self.counters,
            "spans_total": self.spans_total,
            "span_columns": ["id", "parent", "op", "name", "start_ns", "end_ns"],
            "span_names": self.names,
            "spans": spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, separators=(",", ":"))
            fh.write("\n")

