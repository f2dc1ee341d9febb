"""Serialization of flowsheet graphs into SFILES 2.0 strings.

Emission runs in two passes.  ``traverse`` plans a DFS forest over the
ranked graph: tree edges become the written chain, back and repeated
edges become numbered recycle pairs, and the first edge from a new tree
into already written material becomes that tree's converging insertion
point.  ``emit`` then walks the finished plan into a token list,
assigning recycle, signal and equipment-group identifiers by first
textual appearance, and renders it in one mode.

``rank_graph`` finishes the ranking that ``canon`` computes per
component: equally sized components are ordered by their own strings,
so that step lives here, beside ``component_string``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .canon import RankTable, rank_components
from .errors import EncodeError
from .model import MATERIAL, SIGNAL, FlowsheetGraph

GENERALIZED = "generalized"
NUMBERED = "numbered"
MODES = (GENERALIZED, NUMBERED)


class SfilesString(str):
    """A rendered SFILES string that remembers which form it is in."""

    mode: str = GENERALIZED

    def __new__(cls, value: str, mode: str = GENERALIZED):
        s = super().__new__(cls, value)
        s.mode = mode
        return s


@dataclass
class _Tree:
    index: int
    component: int
    root: str
    children: dict[str, list[tuple[str, str | None]]] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    # (source, merge target, tag) once this tree converges into earlier text
    anchor: tuple[str, str, str | None] | None = None


@dataclass
class EmissionPlan:
    dfs_forest: list[_Tree]
    trains: list[int]
    insertions: dict[str, list[int]]
    recycles: list[tuple[str, str, str | None]]
    rec_in: dict[str, list[int]]
    rec_out: dict[str, list[int]]
    sig_out: dict[str, list[tuple[str, str]]]
    sig_in: dict[str, list[tuple[str, str]]]
    group_of: dict[str, tuple[str, int]]
    recycle_ids: dict[int, int] = field(default_factory=dict)
    signal_ids: dict[tuple[str, str], int] = field(default_factory=dict)
    hex_group_ids: dict[tuple[str, int], int] = field(default_factory=dict)


@dataclass(frozen=True)
class _NodeTok:
    name: str


@dataclass(frozen=True)
class _Mark:
    kind: str  # rec_in, rec_out, sig_out, sig_in, group
    key: object


def _sorted_out(graph: FlowsheetGraph, name: str, rank: dict[str, int]):
    out = [
        (dst, attr.tag)
        for dst, attr in graph.out_edges(name, MATERIAL)
    ]
    out.sort(key=lambda e: rank[e[0]])
    return out


def _cycle_root(graph: FlowsheetGraph, unvisited: list[str], rank: dict[str, int]) -> str:
    pool = set(unvisited)
    movers = [n for n in unvisited if graph.material_out_degree(n) > 0]
    w = min(movers or unvisited, key=lambda n: rank[n])
    preds = [
        src
        for src, attr in graph.in_edges(w, MATERIAL)
        if src in pool
    ]
    if preds:
        return min(preds, key=lambda n: rank[n])
    return w


def _grow_tree(graph, tree, rank, visited, tree_of, recycles):
    visited.add(tree.root)
    tree_of[tree.root] = tree.index
    tree.order.append(tree.root)
    on_stack = {tree.root}
    stack = [(tree.root, iter(_sorted_out(graph, tree.root, rank)))]
    while stack:
        node, edges = stack[-1]
        step = next(edges, None)
        if step is None:
            stack.pop()
            on_stack.discard(node)
            continue
        dst, tag = step
        if dst not in visited:
            visited.add(dst)
            tree_of[dst] = tree.index
            tree.children.setdefault(node, []).append((dst, tag))
            tree.order.append(dst)
            stack.append((dst, iter(_sorted_out(graph, dst, rank))))
            on_stack.add(dst)
        elif dst in on_stack:
            recycles.append((node, dst, tag))
        elif tree_of[dst] != tree.index and tree.anchor is None:
            tree.anchor = (node, dst, tag)
        else:
            recycles.append((node, dst, tag))


def traverse(graph: FlowsheetGraph, ranks: RankTable) -> EmissionPlan:
    """Plan the DFS forest for the components listed in ``ranks``."""
    trees: list[_Tree] = []
    trains: list[int] = []
    insertions: dict[str, list[int]] = {}
    recycles: list[tuple[str, str, str | None]] = []
    visited: set[str] = set()
    tree_of: dict[str, int] = {}

    for comp_idx, comp in enumerate(ranks.subgraph_order):
        ranked = sorted(comp, key=ranks.rank.__getitem__)
        roots = [n for n in ranked if graph.material_in_degree(n) == 0]
        qi = 0
        while True:
            root = None
            while qi < len(roots):
                cand = roots[qi]
                qi += 1
                if cand not in visited:
                    root = cand
                    break
            if root is None:
                unvisited = [n for n in ranked if n not in visited]
                if not unvisited:
                    break
                root = _cycle_root(graph, unvisited, ranks.rank)
            tree = _Tree(len(trees), comp_idx, root)
            trees.append(tree)
            _grow_tree(graph, tree, ranks.rank, visited, tree_of, recycles)
            if tree.anchor is None:
                trains.append(tree.index)
            else:
                insertions.setdefault(tree.anchor[1], []).append(tree.index)

    # Textual position of every planned node, for deterministic mark order.
    pos: dict[str, tuple[int, int]] = {}
    for ci, comp in enumerate(ranks.subgraph_order):
        for n in comp:
            pos[n] = (ci, ranks.rank[n])

    rec_in: dict[str, list[int]] = {}
    rec_out: dict[str, list[int]] = {}
    for i, (src, dst, _tag) in enumerate(recycles):
        rec_out.setdefault(src, []).append(i)
        rec_in.setdefault(dst, []).append(i)
    for name, items in rec_in.items():
        items.sort(key=lambda i: pos[recycles[i][0]])
    for name, items in rec_out.items():
        items.sort(key=lambda i: pos[recycles[i][1]])

    sig_out: dict[str, list[tuple[str, str]]] = {}
    sig_in: dict[str, list[tuple[str, str]]] = {}
    group_of: dict[str, tuple[str, int]] = {}
    for src in pos:
        for dst, _attr in graph.out_edges(src, SIGNAL):
            if dst in pos:
                sig_out.setdefault(src, []).append((src, dst))
                sig_in.setdefault(dst, []).append((src, dst))
        if len(graph.equipment_group(src)) >= 2:
            group_of[src] = graph.node_ref(src).equipment
    for name, items in sig_out.items():
        items.sort(key=lambda e: pos[e[1]])
    for name, items in sig_in.items():
        items.sort(key=lambda e: pos[e[0]])

    return EmissionPlan(
        dfs_forest=trees,
        trains=trains,
        insertions=insertions,
        recycles=recycles,
        rec_in=rec_in,
        rec_out=rec_out,
        sig_out=sig_out,
        sig_in=sig_in,
        group_of=group_of,
    )


def _legacy_parts(graph, plan, tree):
    # The v1 notation writes a converging branch as a reversed chain, so
    # the inserted tree must be a plain pipe of nodes feeding at its end.
    chain = []
    node = tree.root
    while True:
        if (
            plan.rec_in.get(node)
            or plan.rec_out.get(node)
            or plan.sig_out.get(node)
            or plan.sig_in.get(node)
            or plan.insertions.get(node)
        ):
            raise EncodeError(
                "legacy converging notation cannot express marks inside an inserted branch"
            )
        chain.append(node)
        kids = tree.children.get(node, [])
        if not kids:
            break
        if len(kids) > 1:
            raise EncodeError("legacy converging notation cannot express nested branching")
        child, tag = kids[0]
        if tag:
            raise EncodeError("legacy converging notation cannot express stream tags")
        node = child
    src, _target, tag = tree.anchor
    if tag:
        raise EncodeError("legacy converging notation cannot express stream tags")
    if src != chain[-1]:
        raise EncodeError("legacy converging notation requires the feed at the end of the branch")
    parts: list[object] = ["["]
    for n in reversed(chain):
        parts.append("<")
        parts.append(_NodeTok(n))
        ctrl = graph.ctrl(n)
        if ctrl:
            parts.append("{%s}" % ctrl)
        if n in plan.group_of:
            parts.append(_Mark("group", plan.group_of[n]))
    parts.append("]")
    return parts


def _walk_node(graph, plan, tree, node, parts, legacy):
    # Depth first over an explicit stack, so chains of any length fit:
    # an entry is a (tree, node) pair still to write or a finished part.
    stack: list[object] = [(tree, node)]
    while stack:
        item = stack.pop()
        if type(item) is not tuple:
            parts.append(item)
            continue
        tree, node = item
        parts.append(_NodeTok(node))
        ctrl = graph.ctrl(node)
        if ctrl:
            parts.append("{%s}" % ctrl)
        if node in plan.group_of:
            parts.append(_Mark("group", plan.group_of[node]))
        for ri in plan.rec_in.get(node, ()):
            parts.append(_Mark("rec_in", ri))
        for ri in plan.rec_out.get(node, ()):
            parts.append(_Mark("rec_out", ri))
        for e in plan.sig_out.get(node, ()):
            parts.append(_Mark("sig_out", e))
        for e in plan.sig_in.get(node, ()):
            parts.append(_Mark("sig_in", e))
        if tree.anchor is not None and tree.anchor[0] == node:
            tag = tree.anchor[2]
            if tag:
                parts.append("{%s}" % tag)
            parts.append("&")
        todo: list[object] = []
        for ins in plan.insertions.get(node, ()):
            sub = plan.dfs_forest[ins]
            if legacy:
                todo.extend(_legacy_parts(graph, plan, sub))
            else:
                todo += ["<&|", (sub, sub.root), "|"]
        kids = tree.children.get(node, [])
        for i, (child, tag) in enumerate(kids):
            last = i == len(kids) - 1
            if not last:
                todo.append("[")
            if tag:
                todo.append("{%s}" % tag)
            todo.append((tree, child))
            if not last:
                todo.append("]")
        stack.extend(reversed(todo))


def _digits(i: int) -> str:
    if i < 10:
        return str(i)
    return "%%%02d" % i


def _assign_ids(plan: EmissionPlan, parts: list[object]) -> None:
    plan.recycle_ids.clear()
    plan.signal_ids.clear()
    plan.hex_group_ids.clear()
    next_rec = 1
    next_grp = 1
    for p in parts:
        if not isinstance(p, _Mark):
            continue
        if p.kind in ("rec_in", "rec_out") and p.key not in plan.recycle_ids:
            if next_rec > 99:
                raise EncodeError("more than 99 recycle connections in one string")
            plan.recycle_ids[p.key] = next_rec
            next_rec += 1
        elif p.kind == "group" and p.key not in plan.hex_group_ids:
            plan.hex_group_ids[p.key] = next_grp
            next_grp += 1
    next_sig = 1
    for p in parts:
        if isinstance(p, _Mark) and p.kind == "sig_out" and p.key not in plan.signal_ids:
            plan.signal_ids[p.key] = next_sig
            next_sig += 1


def _render_part(graph, plan, p, mode):
    if isinstance(p, str):
        return p
    if isinstance(p, _NodeTok):
        ref = graph.node_ref(p.name)
        return "(%s)" % (ref.category if mode == GENERALIZED else p.name)
    if p.kind == "rec_in":
        return "<" + _digits(plan.recycle_ids[p.key])
    if p.kind == "rec_out":
        tag = plan.recycles[p.key][2]
        prefix = "{%s}" % tag if tag else ""
        return prefix + _digits(plan.recycle_ids[p.key])
    if p.kind == "sig_out":
        return "_%d" % plan.signal_ids[p.key]
    if p.kind == "sig_in":
        return "<_%d" % plan.signal_ids[p.key]
    if p.kind == "group":
        return "{%d}" % plan.hex_group_ids[p.key]
    raise AssertionError(f"unrenderable part: {p!r}")


def _parts(graph: FlowsheetGraph, plan: EmissionPlan, legacy: bool = False) -> list[object]:
    """The plan's token list in text order, with identifiers assigned."""
    parts: list[object] = []
    for i, ti in enumerate(plan.trains):
        if i:
            parts.append("n|")
        tree = plan.dfs_forest[ti]
        _walk_node(graph, plan, tree, tree.root, parts, legacy)
    _assign_ids(plan, parts)
    return parts


def _render_both(graph: FlowsheetGraph, plan: EmissionPlan) -> tuple[str, str]:
    """The generalized and the numbered string of one plan, from one part list."""
    parts = _parts(graph, plan)
    return tuple("".join(_render_part(graph, plan, p, mode) for p in parts) for mode in MODES)


def emit(
    graph: FlowsheetGraph,
    plan: EmissionPlan,
    mode: str = GENERALIZED,
    legacy_converging: bool = False,
) -> str:
    parts = _parts(graph, plan, legacy_converging)
    return "".join(_render_part(graph, plan, p, mode) for p in parts)


def encode(
    graph: FlowsheetGraph,
    mode: str = GENERALIZED,
    *,
    legacy_converging: bool = False,
) -> SfilesString:
    """Render the canonical SFILES 2.0 string for a graph."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    ranks = rank_graph(graph)
    plan = traverse(graph, ranks)
    return SfilesString(emit(graph, plan, mode, legacy_converging), mode)


def _encode_both(graph: FlowsheetGraph) -> tuple[SfilesString, SfilesString]:
    """The generalized and the numbered string, from one ranking and one plan."""
    texts = _render_both(graph, traverse(graph, rank_graph(graph)))
    return tuple(SfilesString(text, mode) for text, mode in zip(texts, MODES))


def rank_graph(graph: FlowsheetGraph) -> RankTable:
    """Rank every node 1..n within its component and order the components.

    Components are emitted largest first.  Equal sizes are ordered by
    their provisional generalized string, then the numbered string, and
    as a last resort by their signal connections.
    """
    by_size: dict[int, list[list[str]]] = {}
    for order in rank_components(graph):
        by_size.setdefault(len(order), []).append(order)

    final: list[list[str]] = []
    for size in sorted(by_size, reverse=True):
        group = by_size[size]
        if len(group) > 1:
            group.sort(key=lambda order: _component_key(graph, order))
        final.extend(group)

    rank = {name: i for order in final for i, name in enumerate(order, 1)}
    return RankTable(rank, final)


def _component_key(graph: FlowsheetGraph, order: list[str]):
    signals = {(n, dst) for n in order for dst, _attr in graph.out_edges(n, SIGNAL)}
    signals.update((src, n) for n in order for src, _attr in graph.in_edges(n, SIGNAL))
    return (*component_string(graph, order), sorted(signals))


def component_string(graph: FlowsheetGraph, order: list[str]) -> tuple[str, str]:
    """Serialize a single ranked component, with identifiers local to it.

    Returns the generalized and the numbered string, rendered from one
    plan.  Used to order equally sized components; signal edges that
    leave the component are omitted because the peer component has no
    rank yet.
    """
    table = RankTable({n: i for i, n in enumerate(order, 1)}, [list(order)])
    return _render_both(graph, traverse(graph, table))
