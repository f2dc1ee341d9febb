"""The round-by-round color refinement and reach count as first written.

Verbatim reference copies: every node re-sorted every round, and one
depth first search per node.  The tests require the production ranking
stages to return exactly what these return.
"""

from __future__ import annotations

from sfiles2 import MATERIAL, FlowsheetGraph


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

