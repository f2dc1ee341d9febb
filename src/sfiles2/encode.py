"""Serialization of flowsheet graphs into SFILES 2.0 strings.

An encoding reads the graph once, into one ``canon._Index``.  Ranking,
planning and rendering work on its integer node ids and look a name up
only to write it into a numbered string.  As in SMILES, ranks only pick
where a walk starts and which branch comes first.  So a forced
component, a path from its one feed with no branch and no signal,
writes the same bytes in any rank order: ``_forced_plan`` decides that
and reads its plan off its walk with no DFS, and only ``rank_graph``
ranks it.

Emission runs in two passes.  ``traverse`` plans the DFS forest of one
ranked component as flat maps keyed by node id: tree edges become the
written chain, back and repeated edges become numbered recycle pairs,
and the first edge from a new tree into already written material
becomes that tree's converging insertion point.  ``_plans`` plans each
component once and orders equally sized ones by ``component_string``,
then by unit names, for encoding and ``rank_graph`` alike.  ``_write``
takes the plans in that order, places every mark and walks them once,
writing each mark as text when it reaches it: recycle and
equipment-group ids count up by first textual appearance, signal ids in
the order of their out-marks (``_n``).  Nodes stay ids until ``_render``
joins the parts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .canon import RankTable, _Index, rank_component
from .errors import EncodeError
from .model import FlowsheetGraph

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


# Mark kinds.  A mark's key is its edge: (source, target, tag) for a
# recycle, (source, target) for a signal.
_REC_IN, _REC_OUT, _SIG_OUT, _SIG_IN = "rec_in", "rec_out", "sig_out", "sig_in"


@dataclass(slots=True)
class EmissionPlan:
    """The DFS forest of one component, keyed by node id.  Every node is
    in one tree, so one map per relation serves the whole forest."""

    nodes: list[int]  # in rank order
    pos: dict[int, int]  # each node's position in ``nodes``
    roots: list[int]  # of the trains: trees that converge into no earlier text
    children: dict[int, list[tuple[int, str | None]]]  # with the tag of each tree edge
    insertions: dict[int, list[int]]  # merge target: roots of the trees converging into it
    anchors: dict[int, str | None]  # source of a tree's converging edge: its tag
    recycles: list[tuple[int, int, str | None]]
    forced: bool = False  # read off the walk by ``_forced_plan``, never ranked


def traverse(ix: _Index, comp: list[int]) -> EmissionPlan:
    """Plan the DFS forest of one component, its node ids in rank order,
    with positions local to it.  ``_write`` places the marks.

    Trees are rooted first at every unit without a material inlet, in
    rank order: no other tree can reach one.  Then, while units are
    left, the first of them with a material outlet (or the first one)
    is entered from its first unplanted material predecessor, if it has
    one.  A unit's outlets are taken in rank order of their targets.
    """
    mat_in, mat_out = ix.mat_in, ix.mat_out
    pos = {node: p for p, node in enumerate(comp)}
    roots: list[int] = []
    children: dict[int, list[tuple[int, str | None]]] = {}
    insertions: dict[int, list[int]] = {}
    anchors: dict[int, str | None] = {}
    recycles: list[tuple[int, int, str | None]] = []
    root_of: dict[int, int] = {}  # each planted node's tree, by its root
    feeds = iter([node for node in comp if not mat_in[node]])
    while (root := next(feeds, None)) is not None or len(root_of) < len(comp):
        if root is None:
            unvisited = [n for n in comp if n not in root_of]
            w = next((n for n in unvisited if mat_out[n]), unvisited[0])
            preds = [src for src, _tag in mat_in[w] if src not in root_of]
            root = min(preds, key=pos.__getitem__, default=w)
        root_of[root] = root
        target = None  # where this tree converges into earlier text
        on_stack = {root}
        out = mat_out[root]
        stack = [(root, iter(sorted(out, key=lambda e: pos[e[0]]) if len(out) > 1 else out))]
        while stack:
            node, edges = stack[-1]
            for dst, tag in edges:
                if dst not in root_of:
                    root_of[dst] = root
                    children.setdefault(node, []).append((dst, tag))
                    out = mat_out[dst]
                    stack.append(
                        (dst, iter(sorted(out, key=lambda e: pos[e[0]]) if len(out) > 1 else out))
                    )
                    on_stack.add(dst)
                    break
                if dst in on_stack:
                    recycles.append((node, dst, tag))
                elif target is None and root_of[dst] != root:
                    target = dst
                    anchors[node] = tag
                else:
                    recycles.append((node, dst, tag))
            else:
                stack.pop()
                on_stack.discard(node)
        if target is None:
            roots.append(root)
        else:
            insertions.setdefault(target, []).append(root)
    return EmissionPlan(comp, pos, roots, children, insertions, anchors, recycles)


def _legacy_chain(plan: EmissionPlan, root: int, marks: dict) -> list[int]:
    """The nodes of the tree at ``root``, which converges into earlier
    text, in legacy text order, feed end first."""
    # The v1 notation writes a converging branch as a reversed chain, so
    # the inserted tree must be a plain pipe of nodes feeding at its end.
    chain = []
    node = root
    while True:
        if node in marks or node in plan.insertions:
            raise EncodeError(
                "legacy converging notation cannot express marks inside an inserted branch"
            )
        chain.append(node)
        kids = plan.children.get(node)
        if not kids:
            break
        if len(kids) > 1:
            raise EncodeError("legacy converging notation cannot express nested branching")
        node, tag = kids[0]
        if tag:
            raise EncodeError("legacy converging notation cannot express stream tags")
    src = next(node for node in chain if node in plan.anchors)
    if plan.anchors[src]:
        raise EncodeError("legacy converging notation cannot express stream tags")
    if src != chain[-1]:
        raise EncodeError("legacy converging notation requires the feed at the end of the branch")
    return chain[::-1]


def _write(ix: _Index, plans: list[EmissionPlan], legacy: bool = False) -> list[object]:
    """The plans' text in the given order: a node is its id, anything
    else a finished string.

    A signal can point into another component, so the marks are placed
    here, once the order is known.  Recycle and equipment-group ids are
    numbered by first appearance, so the walk numbers them as it writes
    them.  Signal ids follow the out-marks; an in-mark written before
    its out-mark is filled in at the end.
    """
    if len(plans) == 1:
        nodes, pos, recycles = plans[0].nodes, plans[0].pos, plans[0].recycles
    else:
        nodes = [node for plan in plans for node in plan.nodes]
        pos = {node: p for p, node in enumerate(nodes)}
        recycles = [edge for plan in plans for edge in plan.recycles]
    signals = [(src, dst) for src in nodes for dst in ix.sig_out[src] if dst in pos]
    # A node's marks: recycle in-marks by source, recycle out-marks by
    # target, signal out-marks by target, signal in-marks by source.
    marks: dict[int, list[tuple[str, tuple]]] = {}
    for kind, edges, at, by in (
        (_REC_IN, recycles, 1, 0),
        (_REC_OUT, recycles, 0, 1),
        (_SIG_OUT, signals, 0, 1),
        (_SIG_IN, signals, 1, 0),
    ):
        for edge in sorted(edges, key=lambda e: pos[e[by]]) if edges else ():
            marks.setdefault(edge[at], []).append((kind, edge))

    ctrl, refs, partners = ix.ctrl, ix.refs, ix.partners
    parts: list[object] = []
    rec_ids: dict[tuple, int] = {}
    sig_ids: dict[tuple, int] = {}
    group_ids: dict[tuple[str, int], int] = {}
    waiting: list[tuple[int, tuple]] = []  # (part position, signal) of early in-marks

    def write_node(node: int) -> None:
        parts.append(node)
        if ctrl[node]:
            parts.append("{%s}" % ctrl[node])
        if node in partners:
            parts.append("{%d}" % group_ids.setdefault(refs[node].equipment, len(group_ids) + 1))

    for plan in plans:
        children, insertions, anchors = plan.children, plan.insertions, plan.anchors
        # Depth first over an explicit stack, so chains of any length
        # fit: an entry is a node still to write or a finished string.
        # Every train is followed by a separator.
        stack: list[object] = []
        for root in reversed(plan.roots):
            stack += ["n|", root]
        while stack:
            node = stack.pop()
            if type(node) is str:
                parts.append(node)
                continue
            write_node(node)
            for kind, edge in marks.get(node, ()):
                if kind == _REC_IN or kind == _REC_OUT:
                    k = rec_ids.setdefault(edge, len(rec_ids) + 1)
                    rid = str(k) if k < 10 else "%%%02d" % k
                    tag = edge[2]
                    if kind == _REC_IN:
                        parts.append("<" + rid)
                    else:
                        parts.append("{%s}%s" % (tag, rid) if tag else rid)
                elif kind == _SIG_OUT:
                    sig_ids[edge] = len(sig_ids) + 1
                    parts.append("_%d" % sig_ids[edge])
                elif edge in sig_ids:
                    parts.append("<_%d" % sig_ids[edge])
                else:
                    waiting.append((len(parts), edge))
                    parts.append("")
            if node in anchors:
                tag = anchors[node]
                parts.append("{%s}&" % tag if tag else "&")
            # What follows the node is inserted trees, every child but the
            # last as a bracketed branch, then the last child: push it in
            # reverse.  A legacy inserted branch is written at once.
            for n, (child, tag) in enumerate(reversed(children.get(node, ()))):
                if n:
                    stack.append("]")
                stack.append(child)
                if tag:
                    stack.append("{%s}" % tag)
                if n:
                    stack.append("[")
            inserted = insertions.get(node)
            if inserted and legacy:
                for root in inserted:
                    parts.append("[")
                    for n in _legacy_chain(plan, root, marks):
                        parts.append("<")
                        write_node(n)
                    parts.append("]")
            elif inserted:
                for root in reversed(inserted):
                    stack += ["|", root, "<&|"]
    del parts[-1:]  # no separator after the last train
    if len(rec_ids) > 99:
        raise EncodeError("more than 99 recycle connections in one string")
    for at, edge in waiting:
        parts[at] = "<_%d" % sig_ids[edge]
    return parts


def _render(ix: _Index, parts: list[object], mode: str) -> str:
    label = (ix.names if mode == NUMBERED else ix.cats).__getitem__
    return "".join([p if type(p) is str else "(%s)" % label(p) for p in parts])


def emit(
    ix: _Index, plans: list[EmissionPlan], mode: str = GENERALIZED, legacy_converging: bool = False
) -> str:
    return _render(ix, _write(ix, plans, legacy_converging), mode)


def encode(
    graph: FlowsheetGraph, mode: str = GENERALIZED, *, legacy_converging: bool = False
) -> SfilesString:
    """Render the canonical SFILES 2.0 string for a graph."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    ix = _Index(graph)
    return SfilesString(emit(ix, _plans(ix), mode, legacy_converging), mode)


def _encode_both(graph: FlowsheetGraph) -> tuple[SfilesString, SfilesString]:
    """The generalized and the numbered string, from one ranking and one plan."""
    ix = _Index(graph)
    parts = _write(ix, _plans(ix))
    return tuple(SfilesString(_render(ix, parts, mode), mode) for mode in MODES)


def rank_graph(graph: FlowsheetGraph) -> RankTable:
    """Rank every node 1..n within its component and order the components.

    Both come from ``_plans``, except that a plan marked ``forced``, in
    walk order, is ranked here.
    """
    ix = _Index(graph)
    ranked = [rank_component(ix, p.nodes) if p.forced else p.nodes for p in _plans(ix)]
    order = [[ix.names[i] for i in comp] for comp in ranked]
    return RankTable({name: r for comp in order for r, name in enumerate(comp, 1)}, order)


def _plans(ix: _Index) -> list[EmissionPlan]:
    """Every component's plan, components in emission order.

    A component whose emission makes no choice is planned from its walk
    by ``_forced_plan`` and never ranked; any other is ranked and planned
    by ``traverse``.  Components are emitted largest first.  Equal sizes
    are ordered by ``component_string``, and inside a run of equal strings
    by their unit names in text order, which tell any two components
    apart.  That is the order of their numbered strings: the members of a
    run share every part but the units, no ``(name)`` label is a prefix
    of another, and ``)`` sorts below every character of a name.  Each
    ``_shape`` is keyed once.
    """
    by_size: dict[int, list[EmissionPlan]] = {}
    for comp in ix.components():
        plan = _forced_plan(ix, comp) or traverse(ix, rank_component(ix, comp))
        by_size.setdefault(len(comp), []).append(plan)

    names = ix.names
    final: list[EmissionPlan] = []
    for size in sorted(by_size, reverse=True):
        plans = by_size[size]
        if len(plans) > 1:
            # Per shape: its string, and the local positions of its units in text order.
            shapes: dict[tuple, tuple[str, list[int]]] = {}
            keys = []
            for plan in plans:
                shape = _shape(ix, plan)
                if shape not in shapes:
                    text, parts = component_string(ix, plan)
                    local = plan.pos
                    shapes[shape] = text, [local[p] for p in parts if type(p) is not str]
                keys.append((*shapes[shape], plan.nodes))
            runs = Counter(text for text, _units, _nodes in keys)
            key = [(t, [names[nodes[p]] for p in units] if runs[t] > 1 else ())
                   for t, units, nodes in keys]
            plans = [plans[k] for k in sorted(range(len(plans)), key=key.__getitem__)]
        final += plans
    return final


def _forced_plan(ix: _Index, comp: list[int]) -> EmissionPlan | None:
    """``comp``'s plan, read off its walk from its feed, if ``comp`` is
    forced, else ``None``.

    A component is forced when exactly one of its units has no material
    inlet, none has more than one material outlet and none has a signal
    edge.  It is then a path from that feed, which may end in one recycle
    back into itself: every unit is on the walk, ``traverse`` and
    ``_write`` never compare two of its units, and no other unit's marks
    sort on its positions.  So any rank order writes the same bytes, and
    the plan is ``traverse(ix, walk)``: the feed is the only root, each
    unit's one outlet its tree edge, except the last unit's, which can
    only lead back into the walk and so is the only recycle, and nothing
    converges.  The check stops at the first unit that breaks it.
    """
    mat_out, mat_in, sig_out, sig_in = ix.mat_out, ix.mat_in, ix.sig_out, ix.sig_in
    feed = None
    for i in comp:
        if len(mat_out[i]) > 1 or sig_out[i] or sig_in[i]:
            return None
        if not mat_in[i]:
            if feed is not None:
                return None
            feed = i
    if feed is None:
        return None
    walk = [feed]
    children = {}  # each unit's one (target, tag)
    for _ in range(len(comp) - 1):
        out = children[walk[-1]] = mat_out[walk[-1]]
        walk.append(out[0][0])
    last = mat_out[walk[-1]]
    recycles = [(walk[-1], *last[0])] if last else []
    pos = {node: p for p, node in enumerate(walk)}
    return EmissionPlan(walk, pos, walk[:1], children, {}, {}, recycles, forced=True)


def _shape(ix: _Index, plan: EmissionPlan) -> tuple:
    """All that ``component_string`` reads of a planned component, with
    positions in ``plan.nodes`` for node ids, so equal shapes write equal
    strings.
    Material inlets come from the component's own outlets.  Outlets are
    sorted only where a unit has more than one, and a unit without
    signal outlets gets the empty tuple, as sorting would give."""
    cats, ctrl, mat_out, sig_out = ix.cats, ix.ctrl, ix.mat_out, ix.sig_out
    refs, partners, local = ix.refs, ix.partners, plan.pos
    shells: dict[tuple[str, int], int] = {}  # equipment: its first unit here
    shape = []
    for p, i in enumerate(plan.nodes):
        out = mat_out[i]
        if len(out) == 1:
            outlets = ((local[out[0][0]], out[0][1]),)
        else:
            outlets = tuple(sorted([(local[j], t) for j, t in out]))
        signals = tuple(sorted([local[j] for j in sig_out[i] if j in local])) if sig_out[i] else ()
        group = shells.setdefault(refs[i].equipment, p) if i in partners else -1
        shape.append((cats[i], ctrl[i], outlets, signals, group))
    return tuple(shape)


def component_string(ix: _Index, plan: EmissionPlan) -> tuple[str, list[object]]:
    """One component's generalized string, from its own plan, and the
    parts it was rendered from.  Signal edges that leave the component
    are omitted: the peer component has no place yet."""
    parts = _write(ix, [plan])
    return _render(ix, parts, GENERALIZED), parts
