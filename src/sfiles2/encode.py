"""Serialization of flowsheet graphs into SFILES 2.0 strings.

An encoding reads the graph once, into one ``canon._Index``.  Ranking,
planning and rendering work on its integer node ids and look a name up
only to write it into a numbered string.

Emission runs in two passes.  ``traverse`` plans a DFS forest over the
ranked components: tree edges become the written chain, back and repeated
edges become numbered recycle pairs, and the first edge from a new tree
into already written material becomes that tree's converging insertion
point.  ``emit`` then walks the finished plan into a token list,
assigning recycle and equipment-group identifiers by first textual
appearance and signal identifiers in the order of their out-marks
(``_n``), and renders it in one mode.

``_ranked`` finishes the ranking that ``canon`` computes per
component: equally sized components are ordered by their own strings,
so that step lives here, beside ``component_string``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .canon import RankTable, _Index, rank_components
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
    root: int
    children: dict[int, list[tuple[int, str | None]]] = field(default_factory=dict)
    # (source, merge target, tag) once this tree converges into earlier text
    anchor: tuple[int, int, str | None] | None = None


@dataclass
class EmissionPlan:
    dfs_forest: list[_Tree]
    trains: list[int]
    insertions: dict[int, list[int]]
    recycles: list[tuple[int, int, str | None]]
    rec_in: dict[int, list[int]]
    rec_out: dict[int, list[int]]
    sig_out: dict[int, list[tuple[int, int]]]
    sig_in: dict[int, list[tuple[int, int]]]
    group_of: dict[int, tuple[str, int]]
    recycle_ids: dict[int, int] = field(default_factory=dict)
    signal_ids: dict[tuple[int, int], int] = field(default_factory=dict)
    hex_group_ids: dict[tuple[str, int], int] = field(default_factory=dict)


@dataclass(frozen=True)
class _Mark:
    kind: str  # rec_in, rec_out, sig_out, sig_in, group
    key: object


def _material(edges) -> bool:
    return any(attr.kind == MATERIAL for _j, attr in edges)


def _sorted_out(ix: _Index, node: int, pos: dict[int, int]):
    out = [(dst, attr.tag) for dst, attr in ix.out[node] if attr.kind == MATERIAL]
    out.sort(key=lambda e: pos[e[0]])
    return out


def _roots(ix: _Index, comp: list[int], pos: dict[int, int], tree_of: dict[int, int]):
    """One component's tree roots, each yielded once the trees before it are grown.

    First every unit without a material inlet, in rank order: no other
    tree can reach one.  Then, while units are left, the first of them
    with a material outlet (or the first one) is entered from its first
    unplanted material predecessor, if it has one.
    """
    for node in comp:
        if not _material(ix.inc[node]):
            yield node
    while unvisited := [n for n in comp if n not in tree_of]:
        w = next((n for n in unvisited if _material(ix.out[n])), unvisited[0])
        preds = [src for src, attr in ix.inc[w] if attr.kind == MATERIAL and src not in tree_of]
        yield min(preds, key=pos.__getitem__, default=w)


def _grow_tree(ix, tree, pos, tree_of, recycles):
    tree_of[tree.root] = tree.index
    on_stack = {tree.root}
    stack = [(tree.root, iter(_sorted_out(ix, tree.root, pos)))]
    while stack:
        node, edges = stack[-1]
        step = next(edges, None)
        if step is None:
            stack.pop()
            on_stack.discard(node)
            continue
        dst, tag = step
        if dst not in tree_of:
            tree_of[dst] = tree.index
            tree.children.setdefault(node, []).append((dst, tag))
            stack.append((dst, iter(_sorted_out(ix, dst, pos))))
            on_stack.add(dst)
        elif dst in on_stack:
            recycles.append((node, dst, tag))
        elif tree_of[dst] != tree.index and tree.anchor is None:
            tree.anchor = (node, dst, tag)
        else:
            recycles.append((node, dst, tag))


def traverse(ix: _Index, components: list[list[int]]) -> EmissionPlan:
    """Plan the DFS forest for ``components``, each a list of node ids in rank order."""
    # Rank-order position of every planned node (components in order, each
    # in rank order), for deterministic mark order.
    pos = {node: p for p, node in enumerate(n for comp in components for n in comp)}
    trees: list[_Tree] = []
    trains: list[int] = []
    insertions: dict[int, list[int]] = {}
    recycles: list[tuple[int, int, str | None]] = []
    tree_of: dict[int, int] = {}
    for comp in components:
        for root in _roots(ix, comp, pos, tree_of):
            tree = _Tree(len(trees), root)
            trees.append(tree)
            _grow_tree(ix, tree, pos, tree_of, recycles)
            if tree.anchor is None:
                trains.append(tree.index)
            else:
                insertions.setdefault(tree.anchor[1], []).append(tree.index)

    rec_in: dict[int, list[int]] = {}
    rec_out: dict[int, list[int]] = {}
    for i, (src, dst, _tag) in enumerate(recycles):
        rec_out.setdefault(src, []).append(i)
        rec_in.setdefault(dst, []).append(i)
    for items in rec_in.values():
        items.sort(key=lambda i: pos[recycles[i][0]])
    for items in rec_out.values():
        items.sort(key=lambda i: pos[recycles[i][1]])

    sig_out: dict[int, list[tuple[int, int]]] = {}
    sig_in: dict[int, list[tuple[int, int]]] = {}
    group_of: dict[int, tuple[str, int]] = {}
    for src in pos:
        for dst, attr in ix.out[src]:
            if attr.kind == SIGNAL and dst in pos:
                sig_out.setdefault(src, []).append((src, dst))
                sig_in.setdefault(dst, []).append((src, dst))
        if src in ix.partners:
            group_of[src] = ix.refs[src].equipment
    for items in sig_out.values():
        items.sort(key=lambda e: pos[e[1]])
    for items in sig_in.values():
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


def _legacy_parts(ix, plan, tree):
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
        parts.append(n)
        if ix.ctrl[n]:
            parts.append("{%s}" % ix.ctrl[n])
        if n in plan.group_of:
            parts.append(_Mark("group", plan.group_of[n]))
    parts.append("]")
    return parts


def _walk_node(ix, plan, tree, node, parts, legacy):
    # Depth first over an explicit stack, so chains of any length fit:
    # an entry is a (tree, node) pair still to write or a finished part.
    stack: list[object] = [(tree, node)]
    while stack:
        item = stack.pop()
        if type(item) is not tuple:
            parts.append(item)
            continue
        tree, node = item
        parts.append(node)
        if ix.ctrl[node]:
            parts.append("{%s}" % ix.ctrl[node])
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
                todo.extend(_legacy_parts(ix, plan, sub))
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


def _render_part(ix, plan, p, mode):
    if isinstance(p, str):
        return p
    if isinstance(p, int):
        return "(%s)" % (ix.refs[p].category if mode == GENERALIZED else ix.names[p])
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


def _parts(ix: _Index, plan: EmissionPlan, legacy: bool = False) -> list[object]:
    """The plan's token list in text order, with identifiers assigned.

    A node is its id; a string is written as it is.
    """
    parts: list[object] = []
    for i, ti in enumerate(plan.trains):
        if i:
            parts.append("n|")
        tree = plan.dfs_forest[ti]
        _walk_node(ix, plan, tree, tree.root, parts, legacy)
    _assign_ids(plan, parts)
    return parts


def _render_both(ix: _Index, plan: EmissionPlan) -> tuple[str, str]:
    """The generalized and the numbered string of one plan, from one part list."""
    parts = _parts(ix, plan)
    return tuple("".join(_render_part(ix, plan, p, mode) for p in parts) for mode in MODES)


def emit(
    ix: _Index,
    plan: EmissionPlan,
    mode: str = GENERALIZED,
    legacy_converging: bool = False,
) -> str:
    parts = _parts(ix, plan, legacy_converging)
    return "".join(_render_part(ix, plan, p, mode) for p in parts)


def encode(
    graph: FlowsheetGraph,
    mode: str = GENERALIZED,
    *,
    legacy_converging: bool = False,
) -> SfilesString:
    """Render the canonical SFILES 2.0 string for a graph."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    ix = _Index(graph)
    plan = traverse(ix, _ranked(ix))
    return SfilesString(emit(ix, plan, mode, legacy_converging), mode)


def _encode_both(graph: FlowsheetGraph) -> tuple[SfilesString, SfilesString]:
    """The generalized and the numbered string, from one ranking and one plan."""
    ix = _Index(graph)
    texts = _render_both(ix, traverse(ix, _ranked(ix)))
    return tuple(SfilesString(text, mode) for text, mode in zip(texts, MODES))


def rank_graph(graph: FlowsheetGraph) -> RankTable:
    """Rank every node 1..n within its component and order the components."""
    ix = _Index(graph)
    order = [[ix.names[i] for i in comp] for comp in _ranked(ix)]
    return RankTable({name: r for comp in order for r, name in enumerate(comp, 1)}, order)


def _ranked(ix: _Index) -> list[list[int]]:
    """Every component's node ids in rank order, components in emission order.

    Components are emitted largest first.  Equal sizes are ordered by
    their provisional generalized string, then the numbered string,
    which names every unit and so differs between any two components.
    """
    by_size: dict[int, list[list[int]]] = {}
    for comp in rank_components(ix):
        by_size.setdefault(len(comp), []).append(comp)

    final: list[list[int]] = []
    for size in sorted(by_size, reverse=True):
        group = by_size[size]
        if len(group) > 1:
            group.sort(key=lambda comp: component_string(ix, comp))
        final.extend(group)
    return final


def component_string(ix: _Index, order: list[int]) -> tuple[str, str]:
    """Serialize a single ranked component, with identifiers local to it.

    Returns the generalized and the numbered string, rendered from one
    plan.  Used to order equally sized components; signal edges that
    leave the component are omitted because the peer component has no
    rank yet.
    """
    return _render_both(ix, traverse(ix, [order]))
