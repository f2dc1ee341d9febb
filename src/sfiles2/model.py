"""Flowsheet graph data model and JSON interchange.

A flowsheet is a directed graph of unit operations.  Node names such as
``hex-1/2`` or ``C-3`` carry the category, the equipment number and, for
heat exchangers with several streams, the sub-unit index.  Edges carry a
kind (material or signal) and material edges may carry a column stream
tag.  Mutations are checked so that every reachable instance is valid
and serializable.

Node refs and edge attributes are immutable values that graphs share:
``NodeRef.parse`` keeps one ref for each of the 16,384 most recently
used names that passed, so such a name is neither built nor checked
again, and every edge shares the one ``EdgeAttr`` of its (kind, tag) pair.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import GraphInvariantError, SchemaError

MATERIAL = "material"
SIGNAL = "signal"
EDGE_KINDS = (MATERIAL, SIGNAL)

# Column stream tags: bottom/top inlets, bottom/top draws.
COLUMN_TAGS = ("bin", "tin", "bout", "tout")

# A unit label: category, then number and sub-unit index if numbered, as in
# (hex) or (hex-1/2).  A node name needs the number.  Digits are ASCII
# only: \d and str.isdigit also take digits such as "١".
_LABEL_RE = re.compile(r"([A-Za-z]+)(?:-([0-9]+)(?:/([0-9]+))?)?")

# The letter code of a control node, as the notation writes it in braces.
CTRL_RE = re.compile(r"[A-Z]+")


@dataclass(frozen=True, slots=True)
class NodeRef:
    """Identity of one unit operation node.

    ``sub`` is only meaningful for heat exchangers, where the same piece
    of equipment appears once per stream passing through it.  ``name`` is
    formatted once, at construction, and takes no part in equality.
    """

    category: str
    number: int
    sub: int | None = None
    name: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (type(self.category), type(self.number)) != (str, int) or (
                self.sub is not None and type(self.sub) is not int):  # a bool is refused too
            raise ValueError(f"bad node ref fields: {self!r}")
        if not (self.category.isascii() and self.category.isalpha()):
            raise ValueError(f"bad category: {self.category!r}")
        if self.number < 1:
            raise ValueError(f"equipment number must be positive: {self.number!r}")
        name = f"{self.category}-{self.number}"
        if self.sub is not None:
            if self.category != "hex":
                raise ValueError("sub-unit index is only valid on hex nodes")
            if self.sub < 1:
                raise ValueError(f"sub-unit index must be positive: {self.sub!r}")
            name += f"/{self.sub}"
        object.__setattr__(self, "name", name)

    @property
    def equipment(self) -> tuple[str, int]:
        return (self.category, self.number)

    @staticmethod
    @lru_cache(maxsize=16_384)
    def parse(name: str) -> NodeRef:
        """The ref named ``name``, which must be its one spelling: numbers
        have no leading zeros, so ``raw-01`` is not a name of ``raw-1``.

        The 16,384 most recently used names that passed share one ref
        each, which a later call returns without a second check."""
        m = _LABEL_RE.fullmatch(name)
        if m is None or m[2] is None:
            raise ValueError(f"not a node name: {name!r}")
        category, number, sub = m.groups()
        # the fields are checked first, so (raw-00) is refused for its number
        ref = NodeRef(category, int(number), None if sub is None else int(sub))
        if number[0] == "0" or sub and sub[0] == "0":
            raise ValueError(f"not a node name: {name!r}")
        return ref


@dataclass(frozen=True, slots=True)
class EdgeAttr:
    kind: str = MATERIAL
    tag: str | None = None

    def __post_init__(self):
        if self.kind not in EDGE_KINDS:
            raise ValueError(f"bad edge kind: {self.kind!r}")
        if self.tag is not None:
            if self.kind != MATERIAL:
                raise ValueError("stream tags are only valid on material edges")
            if self.tag not in COLUMN_TAGS:
                raise ValueError(f"bad stream tag: {self.tag!r}")


# Every edge shares the one immutable record of its (kind, tag) pair.
_EDGE_ATTRS = {
    (kind, tag): EdgeAttr(kind, tag)
    for kind in EDGE_KINDS
    for tag in (None, *COLUMN_TAGS)
    if kind == MATERIAL or tag is None
}


class _Node:
    """One node: its identity, control code and incident edges in insertion order."""

    __slots__ = ("ref", "ctrl", "out", "inc")

    def __init__(self, ref: NodeRef, ctrl: str | None):
        self.ref = ref
        self.ctrl = ctrl
        self.out: list[tuple[str, EdgeAttr]] = []
        self.inc: list[tuple[str, EdgeAttr]] = []


class FlowsheetGraph:
    """Mutable directed flowsheet graph keyed by node name.

    Each node keeps its own out- and in-lists, so neighbour and degree
    queries cost O(degree) and ``edges()`` lists edges grouped by source.
    """

    def __init__(self):
        self._nodes: dict[str, _Node] = {}
        # Exchanger number -> whether its nodes are sub-units.  Only
        # exchangers can share equipment: every other name is unique.
        self._hex: dict[int, bool] = {}

    # -- nodes

    def add_node(self, node: NodeRef | str, ctrl: str | None = None) -> NodeRef:
        ref = node if isinstance(node, NodeRef) else NodeRef.parse(node)
        name = ref.name
        if name in self._nodes:
            raise GraphInvariantError(f"duplicate node: {name}")
        if (ref.category == "C") != (ctrl is not None):
            raise GraphInvariantError(
                "control code is required on C nodes and forbidden elsewhere"
            )
        if ctrl is not None and not CTRL_RE.fullmatch(ctrl):
            raise GraphInvariantError(f"control code must be capital letters A-Z: {ctrl!r}")
        split = ref.sub is not None
        if ref.category == "hex" and self._hex.setdefault(ref.number, split) != split:
            raise GraphInvariantError(
                f"cannot mix plain and sub-unit forms of {ref.category}-{ref.number}"
            )
        self._nodes[name] = _Node(ref, ctrl)
        return ref

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def node_ref(self, name: str) -> NodeRef:
        return self._nodes[name].ref

    def ctrl(self, name: str) -> str | None:
        return self._nodes[name].ctrl

    def nodes(self) -> list[str]:
        return list(self._nodes)

    # -- edges

    def add_edge(self, src: str, dst: str, kind: str = MATERIAL, tag: str | None = None) -> None:
        # A pair missing from the table is invalid, and EdgeAttr says why.
        attr = _EDGE_ATTRS.get((kind, tag)) or EdgeAttr(kind, tag)
        source = self._nodes.get(src)
        if source is None:
            raise GraphInvariantError(f"unknown node: {src}")
        target = self._nodes.get(dst)
        if target is None:
            raise GraphInvariantError(f"unknown node: {dst}")
        if src == dst:
            raise GraphInvariantError(f"self loop on {src}")
        for d, a in source.out:
            if d == dst and a.kind == kind:
                raise GraphInvariantError(f"duplicate {kind} edge {src} -> {dst}")
        if kind == MATERIAL:
            if target.ref.category == "raw":
                raise GraphInvariantError(f"material edge into raw node {dst}")
            if source.ref.category == "prod":
                raise GraphInvariantError(f"material edge out of prod node {src}")
        source.out.append((dst, attr))
        target.inc.append((src, attr))

    def edges(self) -> list[tuple[str, str, EdgeAttr]]:
        """Every edge as (src, dst, attr), grouped by source node."""
        return [(src, dst, attr) for src, node in self._nodes.items() for dst, attr in node.out]

    def out_edges(self, name: str, kind: str | None = None) -> list[tuple[str, EdgeAttr]]:
        node = self._nodes.get(name)
        if node is None:
            return []
        if kind is None:
            return list(node.out)
        return [(dst, attr) for dst, attr in node.out if attr.kind == kind]

    def in_edges(self, name: str, kind: str | None = None) -> list[tuple[str, EdgeAttr]]:
        node = self._nodes.get(name)
        if node is None:
            return []
        if kind is None:
            return list(node.inc)
        return [(src, attr) for src, attr in node.inc if attr.kind == kind]

    def material_in_degree(self, name: str) -> int:
        return len(self.in_edges(name, MATERIAL))

    def material_out_degree(self, name: str) -> int:
        return len(self.out_edges(name, MATERIAL))

    def equipment_groups(self) -> dict[tuple[str, int], list[str]]:
        """All nodes grouped by shared equipment, sub-units in order."""
        groups: dict[tuple[str, int], list[str]] = {}
        for name, node in self._nodes.items():
            groups.setdefault(node.ref.equipment, []).append(name)
        for members in groups.values():
            members.sort(key=lambda n: self._nodes[n].ref.sub or 0)
        return groups

    # -- comparison and copying

    def _edge_set(self) -> set[tuple[str, str, str, str | None]]:
        return {(s, d, a.kind, a.tag) for s, d, a in self.edges()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlowsheetGraph):
            return NotImplemented
        return (
            {n: node.ctrl for n, node in self._nodes.items()}
            == {n: node.ctrl for n, node in other._nodes.items()}
            and self._edge_set() == other._edge_set()
        )

    __hash__ = None  # mutable container

    def copy(self) -> FlowsheetGraph:
        g = FlowsheetGraph()
        for node in self._nodes.values():
            g.add_node(node.ref, ctrl=node.ctrl)
        for src, dst, attr in self.edges():
            g.add_edge(src, dst, kind=attr.kind, tag=attr.tag)
        return g


# -- JSON interchange

_NODE_KEYS = {"name", "ctrl"}
_EDGE_KEYS = {"src", "dst", "kind", "tag"}


def load_json(
    data: bytes | str | dict,
    strict: bool = True,
    warnings: list[str] | None = None,
) -> FlowsheetGraph:
    """Build a graph from its JSON document (text or parsed).

    Unknown keys are rejected in strict mode and reported through
    ``warnings`` otherwise.  Structural violations raise
    GraphInvariantError, malformed documents raise SchemaError.
    """
    if isinstance(data, (bytes, str)):
        try:
            doc = json.loads(data)
        except (ValueError, RecursionError) as exc:  # bad UTF-8, nesting, huge integers too
            raise SchemaError(f"invalid JSON: {exc}") from exc
    else:
        doc = data

    def warn(msg: str):
        if warnings is not None:
            warnings.append(msg)

    def check_item(item, where: str, keys: set[str]) -> None:
        if not isinstance(item, dict):
            raise SchemaError(f"{where} must be an object", field=where)
        extra = set(item) - keys
        if extra:
            if strict:
                raise SchemaError(f"{where} has unknown keys: {sorted(extra)}", field=where)
            warn(f"{where}: ignoring unknown keys {sorted(extra)}")

    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    extra = set(doc) - {"nodes", "edges"}
    if extra:
        if strict:
            raise SchemaError(f"unknown keys: {sorted(extra)}", field=sorted(extra)[0])
        warn(f"ignoring unknown keys: {sorted(extra)}")
    for key in ("nodes", "edges"):
        if key not in doc:
            raise SchemaError(f"missing field: {key}", field=key)
        if not isinstance(doc[key], list):
            raise SchemaError(f"{key} must be a list", field=key)

    g = FlowsheetGraph()
    for i, item in enumerate(doc["nodes"]):
        where = f"nodes[{i}]"
        check_item(item, where, _NODE_KEYS)
        if "name" not in item or not isinstance(item["name"], str):
            raise SchemaError(f"{where}.name must be a string", field=f"{where}.name")
        ctrl = item.get("ctrl")
        if ctrl is not None and not isinstance(ctrl, str):
            raise SchemaError(f"{where}.ctrl must be a string or null", field=f"{where}.ctrl")
        try:
            ref = NodeRef.parse(item["name"])
        except ValueError as exc:
            raise SchemaError(f"{where}.name: {exc}", field=f"{where}.name") from exc
        g.add_node(ref, ctrl=ctrl)

    for i, item in enumerate(doc["edges"]):
        where = f"edges[{i}]"
        check_item(item, where, _EDGE_KEYS)
        for k in ("src", "dst"):
            if k not in item or not isinstance(item[k], str):
                raise SchemaError(f"{where}.{k} must be a string", field=f"{where}.{k}")
        kind = item.get("kind", MATERIAL)
        tag = item.get("tag")
        if kind not in EDGE_KINDS:
            raise SchemaError(f"{where}.kind must be material or signal", field=f"{where}.kind")
        if tag is not None and tag not in COLUMN_TAGS:
            raise SchemaError(f"{where}.tag must be one of {COLUMN_TAGS}", field=f"{where}.tag")
        if (kind, tag) not in _EDGE_ATTRS:
            raise SchemaError(
                f"{where}.tag: stream tags are only valid on material edges", field=f"{where}.tag"
            )
        g.add_edge(item["src"], item["dst"], kind=kind, tag=tag)
    return g


# Both layouts of the document, indented (save_json) and compact (one line): head,
# node row, middle, edge row, end of a non-empty list, tail.  Nothing is escaped: names
# are ASCII letters, digits, "-" and "/", control codes capitals, kinds and tags fixed words.
_INDENTED, _COMPACT = zip(
    ('{\n  "nodes": [', '{"nodes":['),
    ('\n    {\n      "name": "%s",\n      "ctrl": %s\n    }', '{"name":"%s","ctrl":%s}'),
    (',\n  "edges": [', ',"edges":['),
    ('\n    {\n      "src": "%s",\n      "dst": "%s",\n      "kind": "%s",\n      "tag": %s\n    }',
     '{"src":"%s","dst":"%s","kind":"%s","tag":%s}'),
    ("\n  ", ""),
    ("\n}\n", "}\n"),
)


def _json_bytes(graph: FlowsheetGraph, layout: tuple[str, ...]) -> bytes:
    """The graph's document in one layout: nodes by name, edges by (src, dst, kind)."""
    head, node_row, middle, edge_row, close, tail = layout
    nodes = graph._nodes
    names = sorted(nodes)
    rows = [node_row % (n, f'"{c}"' if (c := nodes[n].ctrl) else "null") for n in names]
    parts = [head, ",".join(rows), close if rows else "", "]", middle]
    outs = [nodes[src].out for src in names]
    outs = [sorted(out, key=lambda e: (e[0], e[1].kind)) if len(out) > 1 else out for out in outs]
    rows = [
        edge_row % (src, d, a.kind, f'"{a.tag}"' if a.tag else "null")
        for src, out in zip(names, outs)
        for d, a in out
    ]
    parts += [",".join(rows), close if rows else "", "]", tail]
    return "".join(parts).encode("ascii")


def save_json(graph: FlowsheetGraph) -> bytes:
    """Serialize to the canonical byte form: sorted, indented, newline-terminated."""
    return _json_bytes(graph, _INDENTED)
