"""Spans for the traced run, recorded from the benchmark's own code.

``wrapped(tracer)`` replaces public ``sfiles2`` functions and
``FlowsheetGraph`` methods with span recorders, each at the name its
caller looks up, and puts every original object back when it exits,
whatever happened inside.  A span holds its name, start and end in ns,
its parent span and the id of the benchmark operation it belongs to.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


def _count_components(counts: Counter, table) -> None:
    sizes = Counter(len(order) for order in getattr(table, "subgraph_order", ()))
    counts["canon.components"] += sum(sizes.values())
    counts["canon.tied_components"] += sum(n for n in sizes.values() if n > 1)


def _count_chars(counts: Counter, text) -> None:
    counts["encode.out_chars"] += len(text)


def _count_tokens(counts: Counter, tokens) -> None:
    counts["parse.tokens"] += len(tokens)


def _count_errors(counts: Counter, result) -> None:
    counts["parse.error_diagnostics"] += len(result[1].errors())


# (module, attribute, span name, counter fed with the return value)
POINTS = (
    ("sfiles2.model", "FlowsheetGraph.add_node", "model.add_node", None),
    ("sfiles2.model", "FlowsheetGraph.add_edge", "model.add_edge", None),
    ("sfiles2.model", "FlowsheetGraph.out_edges", "model.edge_queries", None),
    ("sfiles2.model", "FlowsheetGraph.in_edges", "model.edge_queries", None),
    ("sfiles2.model", "FlowsheetGraph.material_in_degree", "model.edge_queries", None),
    ("sfiles2.model", "FlowsheetGraph.material_out_degree", "model.edge_queries", None),
    ("sfiles2.cli", "load_json", "model.load_json", None),
    ("sfiles2.cli", "save_json", "model.save_json", None),
    ("sfiles2.encode", "rank_graph", "canon.rank_graph", _count_components),
    ("sfiles2.canon", "morgan_iterate", "canon.morgan_iterate", None),
    ("sfiles2.canon", "break_ties", "canon.break_ties", None),
    ("sfiles2.encode", "component_string", "canon.component_string", None),
    ("sfiles2.encode", "traverse", "encode.traverse", None),
    ("sfiles2.encode", "emit", "encode.emit", None),
    ("sfiles2.encode", "encode", "encode.encode", _count_chars),
    ("sfiles2.cli", "encode", "encode.encode", _count_chars),
    ("sfiles2.parse", "tokenize", "parse.tokenize", _count_tokens),
    ("sfiles2.parse", "parse", "parse.parse", _count_errors),
    ("sfiles2.cli", "parse", "parse.parse", _count_errors),
    ("sfiles2.parse", "roundtrip_check", "parse.roundtrip_check", None),
    ("sfiles2.cli", "roundtrip_check", "parse.roundtrip_check", None),
    ("sfiles2.cli", "check_graph", "validate.check_graph", None),
    ("sfiles2.cli", "main", "cli.main", None),
)

# Per-layer metrics: (name, unit, span name, what to take from it).
LAYER_METRICS = (
    ("model.add_node.calls", "count", "model.add_node", "calls"),
    ("model.add_node.self_ms", "ms", "model.add_node", "self"),
    ("model.add_edge.calls", "count", "model.add_edge", "calls"),
    ("model.add_edge.self_ms", "ms", "model.add_edge", "self"),
    ("model.edge_queries.calls", "count", "model.edge_queries", "calls"),
    ("model.edge_queries.self_ms", "ms", "model.edge_queries", "self"),
    ("model.load_json.self_ms", "ms", "model.load_json", "self"),
    ("model.save_json.self_ms", "ms", "model.save_json", "self"),
    ("canon.rank_graph.calls", "count", "canon.rank_graph", "calls"),
    ("canon.rank_graph.self_ms", "ms", "canon.rank_graph", "self"),
    ("canon.morgan_iterate.self_ms", "ms", "canon.morgan_iterate", "self"),
    ("canon.break_ties.self_ms", "ms", "canon.break_ties", "self"),
    ("canon.component_string.calls", "count", "canon.component_string", "calls"),
    ("canon.component_string.ms", "ms", "canon.component_string", "total"),
    ("canon.components", "count", "canon.rank_graph", "counter"),
    ("canon.tied_components", "count", "canon.rank_graph", "counter"),
    ("encode.traverse.self_ms", "ms", "encode.traverse", "self"),
    ("encode.emit.self_ms", "ms", "encode.emit", "self"),
    ("encode.out_chars", "count", "encode.encode", "counter"),
    ("parse.tokenize.self_ms", "ms", "parse.tokenize", "self"),
    ("parse.tokens", "count", "parse.tokenize", "counter"),
    ("parse.parse.self_ms", "ms", "parse.parse", "self"),
    ("parse.error_diagnostics", "count", "parse.parse", "counter"),
    ("parse.roundtrip_check.self_ms", "ms", "parse.roundtrip_check", "self"),
    ("validate.check_graph.calls", "count", "validate.check_graph", "calls"),
    ("validate.check_graph.self_ms", "ms", "validate.check_graph", "self"),
    ("cli.main.self_ms", "ms", "cli.main", "self"),
)


class Tracer:
    """Span store: parallel arrays indexed by span id, in opening order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = 0

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        """Root span ``bench.<name>`` for one benchmark operation, with a fresh id."""
        self._op += 1
        idx = self._open("bench." + name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)  # outside any operation: a check, not traced
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                try:
                    counter(self.counts, out)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed return shape leaves the count absent, not the call broken
            return out

        return traced

    def write(self, path) -> None:
        """Spans as gzipped tab-separated lines: id, name, start_ns, end_ns, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.parent[i]}\t{self.op[i]}\n"
                )


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        covered = 0
        reach = start[i]
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            lo = max(start[c], reach)
            hi = min(end[c], end[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end[i] - start[i] - covered)
    return out


def _resolve(module: str, attr: str):
    """(owner, attribute name) for a dotted attribute, or None when gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if last not in vars(owner):
        return None
    return owner, last


@contextmanager
def wrapped(tracer: Tracer):
    """Install span recorders at every point in POINTS; yields the set of
    span names actually installed.  Originals are restored on exit."""
    installed: list[tuple[object, str, object]] = []
    names: set[str] = set()
    try:
        for module, attr, name, counter in POINTS:
            target = _resolve(module, attr)
            if target is None:
                continue
            owner, last = target
            original = vars(owner)[last]
            setattr(owner, last, tracer.wrap(original, name, counter))
            installed.append((owner, last, original))
            names.add(name)
        yield names
    finally:
        for owner, last, original in reversed(installed):
            setattr(owner, last, original)


def layer_metrics(tracer: Tracer, installed: set[str]) -> dict[str, float | None]:
    """Per-layer totals of the traced spans; None where the span point is gone."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    total_ns: Counter = Counter()
    for i, name_id in enumerate(tracer.name):
        name = tracer.names[name_id]
        calls[name] += 1
        self_ns[name] += selfs[i]
        total_ns[name] += tracer.end[i] - tracer.start[i]
    out: dict[str, float | None] = {}
    for metric, _unit, span, kind in LAYER_METRICS:
        if span not in installed:
            out[metric] = None
        elif kind == "calls":
            out[metric] = calls[span]
        elif kind == "self":
            out[metric] = self_ns[span] / 1e6
        elif kind == "total":
            out[metric] = total_ns[span] / 1e6
        else:
            out[metric] = tracer.counts[metric]
    return out
