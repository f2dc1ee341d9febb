"""Emission as it was before component plans were joined.

Verbatim reference copies of the planning and writing code of that
time: ``_ranked`` orders equally sized components by
``component_string``, which plans and renders each of them on its own,
and ``encode`` then plans the whole graph again with one ``traverse``
over every component.  The snapshot is ``canon_oracle._Index``, and the
ranking itself comes from ``sfiles2.canon``, which ``canon_oracle``
checks.  The tests require the production encoder to return exactly
what ``encode`` here returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from canon_oracle import _Index
from sfiles2.canon import rank_component
from sfiles2.errors import EncodeError
from sfiles2.model import FlowsheetGraph

GENERALIZED = "generalized"
NUMBERED = "numbered"
MODES = (GENERALIZED, NUMBERED)


@dataclass(slots=True)
class _Tree:
    index: int
    root: int
    children: dict[int, list[tuple[int, str | None]]] = field(default_factory=dict)
    # (source, merge target, tag) once this tree converges into earlier text
    anchor: tuple[int, int, str | None] | None = None


# Mark kinds; a mark's key indexes ``EmissionPlan.recycles`` or ``signals``.
_REC_IN, _REC_OUT, _SIG_OUT, _SIG_IN = "rec_in", "rec_out", "sig_out", "sig_in"


@dataclass
class EmissionPlan:
    dfs_forest: list[_Tree]
    trains: list[int]
    insertions: dict[int, list[int]]
    recycles: list[tuple[int, int, str | None]]
    signals: list[tuple[int, int]]
    # Per node, its (kind, key) recycle and signal marks in text order.
    marks: dict[int, list[tuple[str, int]]]
    group_of: dict[int, tuple[str, int]]


def _roots(ix: _Index, comp: list[int], pos: dict[int, int], tree_of: dict[int, int]):
    """One component's tree roots, each yielded once the trees before it are grown.

    First every unit without a material inlet, in rank order: no other
    tree can reach one.  Then, while units are left, the first of them
    with a material outlet (or the first one) is entered from its first
    unplanted material predecessor, if it has one.
    """
    for node in comp:
        if not ix.mat_in[node]:
            yield node
    while unvisited := [n for n in comp if n not in tree_of]:
        w = next((n for n in unvisited if ix.mat_out[n]), unvisited[0])
        preds = [src for src, _tag in ix.mat_in[w] if src not in tree_of]
        yield min(preds, key=pos.__getitem__, default=w)


def _grow_tree(ix, tree, pos, tree_of, recycles):
    def outlets(node):
        out = ix.mat_out[node]
        return iter(sorted(out, key=lambda e: pos[e[0]]) if len(out) > 1 else out)

    tree_of[tree.root] = tree.index
    on_stack = {tree.root}
    stack = [(tree.root, outlets(tree.root))]
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
            stack.append((dst, outlets(dst)))
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

    # A node's marks: recycle in-marks by source, recycle out-marks by
    # target, signal out-marks by target, signal in-marks by source.
    signals = [(src, dst) for src in pos for dst in ix.sig_out[src] if dst in pos]
    marks: dict[int, list[tuple[str, int]]] = {}
    for kind, edges, at, by in (
        (_REC_IN, recycles, 1, 0),
        (_REC_OUT, recycles, 0, 1),
        (_SIG_OUT, signals, 0, 1),
        (_SIG_IN, signals, 1, 0),
    ):
        if edges:
            for k in sorted(range(len(edges)), key=lambda k: pos[edges[k][by]]):
                marks.setdefault(edges[k][at], []).append((kind, k))
    group_of = {i: ix.refs[i].equipment for i in pos if i in ix.partners}
    return EmissionPlan(trees, trains, insertions, recycles, signals, marks, group_of)


def _legacy_chain(plan: EmissionPlan, tree: _Tree) -> list[int]:
    """An inserted tree's nodes in legacy text order, feed end first."""
    # The v1 notation writes a converging branch as a reversed chain, so
    # the inserted tree must be a plain pipe of nodes feeding at its end.
    chain = []
    node = tree.root
    while True:
        if node in plan.marks or node in plan.insertions:
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
    return chain[::-1]


def _digits(i: int) -> str:
    if i < 10:
        return str(i)
    return "%%%02d" % i


def _write(ix: _Index, plan: EmissionPlan, legacy: bool = False) -> list[object]:
    """The plan's text in order: a node is its id, anything else a finished string.

    Recycle and equipment-group ids are numbered by first appearance, so
    the walk numbers them as it writes them.  Signal ids follow the
    out-marks; an in-mark written before its out-mark is filled in at
    the end.
    """
    ctrl, group_of, marks, recycles = ix.ctrl, plan.group_of, plan.marks, plan.recycles
    parts: list[object] = []
    rec_ids: dict[int, int] = {}
    sig_ids: dict[int, int] = {}
    group_ids: dict[tuple[str, int], int] = {}
    waiting: list[tuple[int, int]] = []  # (part position, signal) of early in-marks

    def write_node(node: int) -> None:
        parts.append(node)
        if ctrl[node]:
            parts.append("{%s}" % ctrl[node])
        if node in group_of:
            parts.append("{%d}" % group_ids.setdefault(group_of[node], len(group_ids) + 1))

    # Depth first over an explicit stack, so chains of any length fit:
    # an entry is a (tree, node) pair still to write or a finished string.
    stack: list[object] = []
    for ti in reversed(plan.trains):
        tree = plan.dfs_forest[ti]
        stack += ["n|", (tree, tree.root)]
    del stack[:1]  # no separator after the last train
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
            continue
        tree, node = item
        write_node(node)
        for kind, k in marks.get(node, ()):
            if kind == _REC_IN or kind == _REC_OUT:
                rid = _digits(rec_ids.setdefault(k, len(rec_ids) + 1))
                tag = recycles[k][2]
                if kind == _REC_IN:
                    parts.append("<" + rid)
                else:
                    parts.append("{%s}%s" % (tag, rid) if tag else rid)
            elif kind == _SIG_OUT:
                sig_ids[k] = len(sig_ids) + 1
                parts.append("_%d" % sig_ids[k])
            elif k in sig_ids:
                parts.append("<_%d" % sig_ids[k])
            else:
                waiting.append((len(parts), k))
                parts.append("")
        if tree.anchor is not None and tree.anchor[0] == node:
            tag = tree.anchor[2]
            parts.append("{%s}&" % tag if tag else "&")
        # What follows the node is inserted trees, every child but the
        # last as a bracketed branch, then the last child: push it in
        # reverse.  A legacy inserted branch is written at once.
        for n, (child, tag) in enumerate(reversed(tree.children.get(node, ()))):
            if n:
                stack.append("]")
            stack.append((tree, child))
            if tag:
                stack.append("{%s}" % tag)
            if n:
                stack.append("[")
        inserted = plan.insertions.get(node)
        if inserted and legacy:
            for ins in inserted:
                parts.append("[")
                for n in _legacy_chain(plan, plan.dfs_forest[ins]):
                    parts.append("<")
                    write_node(n)
                parts.append("]")
        elif inserted:
            for ins in reversed(inserted):
                sub = plan.dfs_forest[ins]
                stack += ["|", (sub, sub.root), "<&|"]
    if len(rec_ids) > 99:
        raise EncodeError("more than 99 recycle connections in one string")
    for at, k in waiting:
        parts[at] = "<_%d" % sig_ids[k]
    return parts


def _render(ix: _Index, parts: list[object], mode: str) -> str:
    label = (ix.names if mode == NUMBERED else ix.cats).__getitem__
    return "".join([p if type(p) is str else "(%s)" % label(p) for p in parts])


def _render_both(ix: _Index, plan: EmissionPlan) -> tuple[str, str]:
    """The generalized and the numbered string of one plan, from one walk."""
    parts = _write(ix, plan)
    return tuple(_render(ix, parts, mode) for mode in MODES)


def _ranked(ix: _Index) -> list[list[int]]:
    """Every component's node ids in rank order, components in emission order.

    Components are emitted largest first.  Equal sizes are ordered by
    their provisional generalized string, then the numbered string,
    which names every unit and so differs between any two components.
    """
    by_size: dict[int, list[list[int]]] = {}
    for comp in [rank_component(ix, c) for c in ix.components()]:
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


def encode(graph: FlowsheetGraph, mode: str = GENERALIZED, legacy_converging: bool = False) -> str:
    ix = _Index(graph)
    plan = traverse(ix, _ranked(ix))
    return _render(ix, _write(ix, plan, legacy_converging), mode)
