"""The ranking stages as first written.

Verbatim reference copies: Morgan refinement over a name index built
from the graph's own edge queries, color refinement that re-sorts every
node every round, one depth first search per node for reach, and the
eager tie-break that computes colors and every tie key up front, and
the integer snapshot ``_Index`` built from the graph's public queries.
The tests require the production ranking to return exactly what these
return.  ``morgan_state`` runs the production Morgan kernel, which takes
node ids, on a graph and keys its result by name, as ``morgan_iterate``
here does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import add

from sfiles2 import MATERIAL, FlowsheetGraph, canon

TAG_RANK = {None: -1, "bin": 0, "tin": 1, "tout": 2, "bout": 3}

_CATEGORY_PRIO = {"C": 0, "prod": 1, "raw": 2}

_STAGNATION_WINDOW = 3


@dataclass
class MorganState:
    """Snapshot of the refinement at its most discriminating iteration.

    ``value`` maps each node name to its value.
    """

    value: dict[str, int]
    val_set: int
    iteration: int

    def classes(self) -> list[list[str]]:
        by_value: dict[int, list[str]] = {}
        for name in sorted(self.value):
            by_value.setdefault(self.value[name], []).append(name)
        return [by_value[v] for v in sorted(by_value)]


def morgan_state(graph: FlowsheetGraph, nodes: list[str] | None = None) -> MorganState:
    """``sfiles2.canon.morgan_iterate`` on ``nodes`` (default: every node),
    keyed by name, to compare with ``morgan_iterate`` below.

    The kernel takes node ids of one snapshot.  Only material edges
    between two of ``nodes`` count, so the snapshot's neighbor lists are
    cut down to them first.
    """
    ix = canon._Index(graph)
    wanted = set(ix.names if nodes is None else nodes)
    keep = [name in wanted for name in ix.names]
    ix.nbrs = [[j for j in nbrs if keep[j]] for nbrs in ix.nbrs]
    comp = [i for i in range(len(keep)) if keep[i]]
    peak, best, iteration = canon.morgan_iterate(ix, comp)
    return MorganState(dict(zip(map(ix.names.__getitem__, comp), peak)), best, iteration)


def morgan_iterate(graph: FlowsheetGraph, nodes: list[str] | None = None) -> MorganState:
    """Refine node values by summing neighbor values over material edges.

    Values start at 1.  Each iteration replaces a node's value with the
    sum over its incident material edges of the neighbor's value, so a
    parallel edge pair counts its neighbor twice.  Iteration stops once
    the number of distinct values has not improved for
    ``_STAGNATION_WINDOW`` rounds (or after 2*len(nodes) rounds), and the
    returned state is the snapshot of the first iteration that reached
    the best discrimination.
    """
    names = list(nodes) if nodes is not None else graph.nodes()
    index = {n: i for i, n in enumerate(names)}
    nbrs: list[list[int]] = [[] for _ in names]
    for i, n in enumerate(names):
        for dst, _attr in graph.out_edges(n, MATERIAL):
            j = index.get(dst)
            if j is not None:
                nbrs[i].append(j)
                nbrs[j].append(i)

    # Values are kept in order of neighbor count, and each run of nodes
    # with k neighbors sums its neighbors column by column, so a round
    # loops in C rather than once per node in Python.
    perm = sorted(range(len(names)), key=lambda i: len(nbrs[i]))
    where = [0] * len(names)
    for p, i in enumerate(perm):
        where[i] = p
    runs = []
    for degree, run in groupby(perm, key=lambda i: len(nbrs[i])):
        run = list(run)
        runs.append((len(run), [[where[nbrs[i][k]] for i in run] for k in range(degree)]))

    value = [1] * len(names)
    best = len(set(value))
    peak, peak_iteration = value, 0
    stagnant = 0
    for it in range(1, 2 * len(names) + 1):
        if best == len(names):
            break  # fully discriminated, nothing left to refine
        get = value.__getitem__
        value = []
        for size, columns in runs:
            if not columns:
                value += [0] * size
                continue
            total = map(get, columns[0])
            for column in columns[1:]:
                total = list(map(add, total, map(get, column)))
            value += total
        distinct = len(set(value))
        if distinct > best:
            best, peak, peak_iteration = distinct, value, it
            stagnant = 0
        else:
            stagnant += 1
            if stagnant >= _STAGNATION_WINDOW:
                break
    return MorganState(dict(zip(names, map(peak.__getitem__, where))), best, peak_iteration)


def _refine_colors(graph: FlowsheetGraph) -> dict[str, int]:
    """Structure-only node colors, stable under equipment renumbering.

    Seeds every node with (category, ctrl) and repeatedly refines by the
    sorted multiset of (direction, kind, tag, neighbor color) over all
    incident edges, material and signal alike, plus one ("grp", color)
    entry per co-equipment partner, until the partition stops splitting.
    Color ordinals come from sorting the refinement keys, so numbering
    never leaks in.  Used as the last structural tie-break before node
    numbers: without it, units that the value refinement and the local
    descriptors cannot separate would be ordered by their labels alone,
    and renaming equipment could change the canonical string.  The
    partner entries matter for the same reason: sharing a shell with an
    exchanger elsewhere in the plant is part of the drawing, so a
    grouped unit must never tie with an otherwise identical lone one.
    """
    names = graph.nodes()
    partners: dict[str, list[str]] = {n: [] for n in names}
    for members in graph.equipment_groups().values():
        if len(members) < 2:
            continue
        for m in members:
            partners[m] = [x for x in members if x != m]

    def ordinalize(keys: dict[str, object]) -> dict[str, int]:
        ranks = {k: i for i, k in enumerate(sorted(set(keys.values())))}
        return {n: ranks[keys[n]] for n in names}

    colors = ordinalize(
        {n: (graph.node_ref(n).category, graph.ctrl(n) or "") for n in names}
    )
    for _ in range(len(names)):
        keys: dict[str, object] = {}
        for n in names:
            descs = sorted(
                [("out", a.kind, a.tag or "", colors[d]) for d, a in graph.out_edges(n)]
                + [("in", a.kind, a.tag or "", colors[s]) for s, a in graph.in_edges(n)]
                + [("grp", "", "", colors[p]) for p in partners[n]]
            )
            keys[n] = (colors[n], tuple(descs))
        refined = ordinalize(keys)
        if len(set(refined.values())) == len(set(colors.values())):
            break  # stable partition; refinement never merges classes
        colors = refined
    return colors


def _successor_count(graph: FlowsheetGraph, start: str) -> int:
    seen = {start}
    stack = [start]
    while stack:
        n = stack.pop()
        for dst, attr in graph.out_edges(n):
            if attr.kind == MATERIAL and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return len(seen) - 1



def _step3_key(graph: FlowsheetGraph, name: str):
    ref = graph.node_ref(name)
    descs = []
    for dst, attr in graph.out_edges(name):
        material = attr.kind == MATERIAL
        descs.append(
            (
                graph.node_ref(dst).category,
                "out",
                TAG_RANK[attr.tag] if material else -1,
                0 if material else 1,
            )
        )
    for src, attr in graph.in_edges(name):
        material = attr.kind == MATERIAL
        descs.append(
            (
                graph.node_ref(src).category,
                "in",
                TAG_RANK[attr.tag] if material else -1,
                0 if material else 1,
            )
        )
    descs.sort()
    return (ref.category, graph.ctrl(name) or "", descs)


def _tie_key(graph: FlowsheetGraph, name: str, colors: dict[str, int], reach: dict[str, int]):
    ref = graph.node_ref(name)
    prio = _CATEGORY_PRIO.get(ref.category, 3)
    if ref.category == "raw":
        # Feeds with longer downstream paths come first.
        deg_key = -reach[name]
    elif prio == 3:
        deg_key = reach[name]
    else:
        deg_key = 0
    return (
        prio,
        deg_key,
        _step3_key(graph, name),
        colors[name],
        (ref.category, ref.number, ref.sub or 0),
    )


def break_ties(
    graph: FlowsheetGraph,
    classes: list[list[str]],
    colors: dict[str, int],
) -> list[str]:
    """Flatten Morgan classes into a total order, lowest rank first."""
    reach = {n: _successor_count(graph, n) for cls in classes for n in cls}
    order: list[str] = []
    for cls in classes:
        order.extend(sorted(cls, key=lambda n: _tie_key(graph, n, colors, reach)))
    return order


def _components(graph: FlowsheetGraph) -> list[list[str]]:
    seen: set[str] = set()
    comps: list[list[str]] = []
    for n in graph.nodes():
        if n in seen:
            continue
        comp = []
        stack = [n]
        seen.add(n)
        while stack:
            x = stack.pop()
            comp.append(x)
            for m, _attr in graph.out_edges(x, MATERIAL) + graph.in_edges(x, MATERIAL):
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        comps.append(sorted(comp))
    return comps


def rank_components(graph: FlowsheetGraph) -> list[list[str]]:
    colors = _refine_colors(graph)
    return [
        break_ties(graph, morgan_iterate(graph, comp).classes(), colors)
        for comp in _components(graph)
    ]


class _Index:
    """The snapshot as built from ``nodes()``, ``node_ref()``, ``ctrl()`` and
    ``edges()``, with the slots of ``sfiles2.canon._Index``, so that
    ``rank_component`` can fill in ``reach``, ``cat_ranks`` and ``colors``."""

    __slots__ = (
        "names", "refs", "cats", "ctrl", "mat_out", "mat_in", "nbrs", "sig_out", "sig_in",
        "partners", "reach", "cat_ranks", "colors",
    )

    def __init__(self, graph: FlowsheetGraph):
        self.names = names = graph.nodes()
        pos = {name: i for i, name in enumerate(names)}
        self.refs = refs = [graph.node_ref(name) for name in names]
        self.cats = [ref.category for ref in refs]
        self.ctrl = [graph.ctrl(name) or "" for name in names]
        self.mat_out = mat_out = [[] for _ in names]
        self.mat_in = mat_in = [[] for _ in names]
        self.nbrs = nbrs = [[] for _ in names]
        self.sig_out = sig_out = [[] for _ in names]
        self.sig_in = sig_in = [[] for _ in names]
        for src, dst, attr in graph.edges():
            i, j = pos[src], pos[dst]
            if attr.kind == MATERIAL:
                mat_out[i].append((j, attr.tag))
                mat_in[j].append((i, attr.tag))
                nbrs[i].append(j)
                nbrs[j].append(i)
            else:
                sig_out[i].append(j)
                sig_in[j].append(i)
        # Only exchanger sub-units share equipment: other names are unique.
        shells: dict[int, list[int]] = {}
        for i, ref in enumerate(refs):
            if ref.sub is not None:
                shells.setdefault(ref.number, []).append(i)
        self.partners = {i: shell for shell in shells.values() if len(shell) > 1 for i in shell}
        self.reach: list[int] | None = None
        self.cat_ranks: list[int] | None = None
        self.colors: list[int] | None = None

    def components(self) -> list[list[int]]:
        """Material components as node id lists, in order of their first node."""
        nbrs = self.nbrs
        seen = [False] * len(nbrs)
        comps = []
        for root in range(len(nbrs)):
            if seen[root]:
                continue
            seen[root] = True
            comp = []
            stack = [root]
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in nbrs[i]:
                    if not seen[j]:
                        seen[j] = True
                        stack.append(j)
            comps.append(comp)
        return comps
