"""Canonical node ranking.

Ranking runs in two stages per connected component, both called by
``rank_component`` through this module: Morgan's extended-connectivity
refinement over the undirected material graph (``morgan_iterate``),
then rule based tie-breaking inside the surviving equivalence classes
(``break_ties``).  The resulting rank order is what makes string
emission deterministic.  Components of equal size are ordered by their
strings, next to the string code in ``encode``.  Every stage reads one
integer snapshot of the graph, ``_Index``, by node id, and emission
then reads it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, groupby
from operator import itemgetter

from .model import COLUMN_TAGS, EDGE_KINDS, MATERIAL, SIGNAL, FlowsheetGraph

# Collation order for column tags in tie-break descriptors: inlets
# before draws, bottoms feed first, top draw before bottoms draw.
# Untagged edges sort before tagged ones.
TAG_RANK = {None: -1, "bin": 0, "tin": 1, "tout": 2, "bout": 3}

_CATEGORY_PRIO = {"C": 0, "prod": 1, "raw": 2}

# Morgan refinement stops after this many rounds without a new distinct value.
_STAGNATION_WINDOW = 3

# Refinement descriptors are (direction, kind, tag, neighbor color)
# tuples.  Numbering the first three in their sorted order lets one
# descriptor pack into the int ``code * n + color``, which sorts like the
# tuple because colors stay below n.
_DESC_CODE = {
    key: i
    for i, key in enumerate(
        sorted(
            [("grp", "", "")]
            + [(d, k, t) for d in ("in", "out") for k in EDGE_KINDS for t in ("", *COLUMN_TAGS)]
        )
    )
}
# Refinement codes of incidence entries, a material edge's by its tag.
_OUT_MAT = {t: _DESC_CODE["out", MATERIAL, t or ""] for t in TAG_RANK}
_IN_MAT = {t: _DESC_CODE["in", MATERIAL, t or ""] for t in TAG_RANK}
_OUT_SIG, _IN_SIG = _DESC_CODE["out", SIGNAL, ""], _DESC_CODE["in", SIGNAL, ""]
_GRP = _DESC_CODE["grp", "", ""]

# Tie-break descriptors are (neighbor category, direction, tag rank, kind)
# tuples.  With the category as its rank among the snapshot's categories,
# one packs into the int ``20 * category + 10 * out + 2 * (tag + 1) + kind``,
# which sorts like the tuple: "in" sorts before "out", tag ranks run from
# -1 to 3 and signals (kind 1) carry no tag.
_OUT_TAG = {t: 10 + 2 * (r + 1) for t, r in TAG_RANK.items()}
_IN_TAG = {t: 2 * (r + 1) for t, r in TAG_RANK.items()}
_OUT_SIGNAL, _IN_SIGNAL = 11, 1


@dataclass
class RankTable:
    """Per-component ranks plus the component emission order."""

    rank: dict[str, int]
    subgraph_order: list[list[str]]


def morgan_iterate(ix: _Index, comp: list[int]) -> tuple[list[int], int, int]:
    """Refine node values by summing neighbor values over material edges.

    Values start at 1.  Each iteration replaces a node's value with the
    sum over its incident material edges of the neighbor's value, so a
    parallel edge pair counts its neighbor twice.  Iteration stops once
    the number of distinct values has not improved for
    ``_STAGNATION_WINDOW`` rounds (or after 2*len(comp) rounds).  Returns
    the values of the first iteration that reached the best
    discrimination, in ``comp``'s order, the number of distinct values
    and the iteration.  Every neighbor of a node in ``comp`` must be in it.
    """
    nbrs = ix.nbrs
    # Every value starts at 1, so round 1 gives each node its neighbor count.
    value = [len(nbrs[i]) for i in comp]
    if not comp or min(value) == max(value):
        # A regular component: every round gives every node one value.
        return [1] * len(comp), min(len(comp), 1), 0
    where = {i: p for p, i in enumerate(comp)}
    around = [[where[j] for j in nbrs[i]] for i in comp]

    best, peak, peak_iteration = 1, [1] * len(comp), 0
    stagnant = 0
    for it in range(1, 2 * len(comp) + 1):
        distinct = len(set(value))
        if distinct > best:
            best, peak, peak_iteration = distinct, value, it
            stagnant = 0
            if best == len(comp):
                break  # fully discriminated, nothing left to refine
        else:
            stagnant += 1
            if stagnant >= _STAGNATION_WINDOW:
                break
        # The next round.  Nested loops, because calling sum() on a list
        # per unit costs about three times as much on CPython 3.11.
        last, value = value, []
        for positions in around:
            total = 0
            for p in positions:
                total += last[p]
            value.append(total)
    return peak, best, peak_iteration


class _Index:
    """One integer snapshot of a graph, read by ranking and emission alike.

    Node ``i`` is the ``i``-th name of ``graph.nodes()``, of category
    ``cats[i]``.  The adjacency is split by edge kind once, each list in
    edge order: ``mat_out[i]`` and ``mat_in[i]`` hold ``(j, tag)`` for
    every material edge ``i -> j`` and ``j -> i``, ``nbrs[i]`` the ``j``
    of both, and ``sig_out[i]`` and ``sig_in[i]`` the neighbor ``j`` of
    every signal edge.  ``partners`` maps each exchanger sub-unit that
    shares its shell with another to all the shell's members.  ``reach``,
    ``cat_ranks`` and ``colors`` are filled in by ``break_ties`` when it
    first needs them.  The graph is mutable, so a snapshot lives for one
    encoding only.

    The snapshot reads each of the graph's node records
    (``FlowsheetGraph._nodes``, same package) once, for its ref, control
    code and out-list, in the order ``nodes()`` and ``edges()`` give
    them, so every list is the one those queries would build.
    """

    __slots__ = (
        "names", "refs", "cats", "ctrl", "mat_out", "mat_in", "nbrs", "sig_out", "sig_in",
        "partners", "reach", "cat_ranks", "colors",
    )

    def __init__(self, graph: FlowsheetGraph):
        records = graph._nodes
        self.names = names = list(records)
        pos = {name: i for i, name in enumerate(names)}
        self.refs = refs = []
        self.ctrl = ctrl = []
        self.mat_out = mat_out = [[] for _ in names]
        self.mat_in = mat_in = [[] for _ in names]
        self.nbrs = nbrs = [[] for _ in names]
        self.sig_out = sig_out = [[] for _ in names]
        self.sig_in = sig_in = [[] for _ in names]
        # Only exchanger sub-units share equipment: other names are unique.
        shells: dict[int, list[int]] = {}
        for i, node in enumerate(records.values()):
            ref = node.ref
            refs.append(ref)
            ctrl.append(node.ctrl or "")
            if ref.sub is not None:
                shells.setdefault(ref.number, []).append(i)
            for dst, attr in node.out:
                j = pos[dst]
                if attr.kind == MATERIAL:
                    mat_out[i].append((j, attr.tag))
                    mat_in[j].append((i, attr.tag))
                    nbrs[i].append(j)
                    nbrs[j].append(i)
                else:
                    sig_out[i].append(j)
                    sig_in[j].append(i)
        self.cats = [ref.category for ref in refs]
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


def _refine(ix: _Index) -> list[int]:
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

    The incidence table is built in one pass over the material and
    signal out-lists, entering each edge at both of its ends, and one
    over the shared shells.  Rounds are synchronous, and each one yields
    the classes and the class order that re-sorting every node would.  A
    class is an interval of the color order and colors by its first
    position, so a split never moves another class and descriptors only
    compare positions.  A round re-keys only the nodes next to a node
    that changed class in the previous round, plus one untouched member
    per touched class to stand for the rest, whose descriptors cannot
    have changed.  The largest part of a split keeps its class, so a
    node changes class only when its class at least halves, and the
    whole refinement costs O((n + m) log n) descriptor entries.
    """
    n = len(ix.names)
    # Per node: (code * n, j) for every incident edge and partner j.
    inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, edges in enumerate(ix.mat_out):
        for j, t in edges:
            inc[i].append((_OUT_MAT[t] * n, j))
            inc[j].append((_IN_MAT[t] * n, i))
    for i, peers in enumerate(ix.sig_out):
        for j in peers:
            inc[i].append((_OUT_SIG * n, j))
            inc[j].append((_IN_SIG * n, i))
    for i, shell in ix.partners.items():
        inc[i] += [(_GRP * n, j) for j in shell if j != i]

    # Classes: first position in the color order, and members.
    start: list[int] = []
    members: list[set[int]] = []
    cls = [0] * n
    seeds: dict[tuple[str, str], list[int]] = {}
    for i, ref in enumerate(ix.refs):
        seeds.setdefault((ref.category, ix.ctrl[i]), []).append(i)
    pos = 0
    for key in sorted(seeds):
        for i in seeds[key]:
            cls[i] = len(start)
        start.append(pos)
        members.append(set(seeds[key]))
        pos += len(seeds[key])

    def descriptor(i: int) -> tuple[int, ...]:
        return tuple(sorted([code + start[cls[j]] for code, j in inc[i]]))

    touched = set(range(n))
    while touched:
        by_class: dict[int, list[int]] = {}
        for i in touched:
            by_class.setdefault(cls[i], []).append(i)
        # Key every touched class against this round's colors first ...
        splits = []
        for c, keyed in by_class.items():
            if len(members[c]) == 1:
                continue
            parts: dict[tuple[int, ...], list[int]] = {}
            for i in keyed:
                parts.setdefault(descriptor(i), []).append(i)
            rest = None
            if len(keyed) < len(members[c]):
                rest = descriptor(next(i for i in members[c] if i not in touched))
                parts.setdefault(rest, [])
            if len(parts) > 1:
                splits.append((c, sorted(parts.items()), rest, len(members[c]) - len(keyed)))
        # ... then split them, parts in descriptor order.
        touched = set()
        for c, parts, rest, untouched in splits:
            sizes = [len(part) + (untouched if key == rest else 0) for key, part in parts]
            keep = sizes.index(max(sizes))
            pos = start[c]
            for k, (key, part) in enumerate(parts):
                if k == keep:
                    start[c] = pos
                else:
                    moved = set(part)
                    if key == rest:
                        rekeyed = {i for _key, p in parts for i in p}
                        moved.update(i for i in members[c] if i not in rekeyed)
                    members[c] -= moved
                    for i in moved:
                        cls[i] = len(start)
                        touched.update(j for _code, j in inc[i])
                    start.append(pos)
                    members.append(moved)
                pos += sizes[k]

    order = {c: color for color, c in enumerate(sorted(range(len(start)), key=start.__getitem__))}
    return [order[c] for c in cls]


def _reach_counts(ix: _Index) -> list[int]:
    """How many other units each node reaches over material edges.

    One pass of Tarjan's strongly connected component algorithm over the
    whole snapshot.  Tarjan finishes a component only after every
    component it feeds, so each component's reach is one bitset: its own
    members or-ed with the reach of its successors.
    """
    succ = ix.mat_out
    n = len(succ)
    order = [-1] * n  # DFS number, also the node's bit
    low = [0] * n
    comp_of = [-1] * n
    reach: list[int] = []
    stack: list[int] = []
    number = count()
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = next(number)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w, _tag in edges:
                if order[w] < 0:
                    order[w] = low[w] = next(number)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp_of[w] < 0 and order[w] < low[v]:  # still on the stack
                    low[v] = order[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] != order[v]:
                    continue
                scc = len(reach)
                bits = 0
                popped = []
                while True:
                    w = stack.pop()
                    comp_of[w] = scc
                    bits |= 1 << order[w]
                    popped.append(w)
                    if w == v:
                        break
                for w in popped:
                    for x, _tag in succ[w]:
                        if comp_of[x] != scc:
                            bits |= reach[comp_of[x]]
                reach.append(bits)
    return [reach[c].bit_count() - 1 for c in comp_of]


def _category_ranks(ix: _Index) -> list[int]:
    """Each node's category rank among the snapshot's categories in string
    order, times 20: the base of its packed descriptor entries."""
    rank = {cat: 20 * r for r, cat in enumerate(sorted(set(ix.cats)))}
    return [rank[cat] for cat in ix.cats]


def _descriptor(ix: _Index, i: int) -> tuple[str, str, list[int]]:
    """Node ``i``'s category, control code and the sorted (neighbor
    category, direction, tag rank, kind) of every incident edge, each
    packed into one int that sorts like the tuple.  Reads ``cat_ranks``."""
    base = ix.cat_ranks
    descs = [base[j] + _OUT_TAG[t] for j, t in ix.mat_out[i]]
    descs += [base[j] + _IN_TAG[t] for j, t in ix.mat_in[i]]
    descs += [base[j] + _OUT_SIGNAL for j in ix.sig_out[i]]
    descs += [base[j] + _IN_SIGNAL for j in ix.sig_in[i]]
    descs.sort()
    return ix.cats[i], ix.ctrl[i], descs


def _staged(ix: _Index, members: list[int], stage: int = 0) -> list[int]:
    """``members`` in order of tie-break stage ``stage`` and the stages after it."""
    if stage == 0:
        key = [_CATEGORY_PRIO.get(ix.cats[i], 3) for i in members]
    elif stage == 1:
        # Feeds with longer downstream paths come first; C and prod have no reach key.
        prio = _CATEGORY_PRIO.get(ix.cats[members[0]], 3)
        if prio >= 2 and ix.reach is None:
            ix.reach = _reach_counts(ix)
        key = [0 if prio < 2 else -ix.reach[i] if prio == 2 else ix.reach[i] for i in members]
    elif stage == 2:
        if ix.cat_ranks is None:
            ix.cat_ranks = _category_ranks(ix)
        key = [_descriptor(ix, i) for i in members]
    elif stage == 3:
        if ix.colors is None:
            ix.colors = _refine(ix)
        key = [ix.colors[i] for i in members]
    else:  # equipment numbers, unique among units of one category and color
        return sorted(members, key=lambda i: (ix.refs[i].number, ix.refs[i].sub or 0))
    if key.count(key[0]) == len(key):
        return _staged(ix, members, stage + 1)  # all tie: the next stage decides
    order: list[int] = []
    for _key, run in groupby(sorted(zip(key, members)), key=itemgetter(0)):
        run = [i for _key, i in run]
        order += _staged(ix, run, stage + 1) if len(run) > 1 else run
    return order


def break_ties(ix: _Index, classes: list[list[int]]) -> list[int]:
    """Flatten Morgan classes into a total order, lowest rank first.

    A class is ordered one stage at a time by priority, reach key, local
    descriptor, refined color and equipment number, each stage keying
    only members that tie on every stage before it.  The descriptor is
    the node's category and control code and the sorted (neighbor
    category, direction, tag rank, kind) of every incident edge, each
    packed into one int over the snapshot's category ranks.  So reach is
    counted only for two tied ``raw`` units or two tied units outside
    ``C``, ``prod`` and ``raw``, the category ranks only once two members
    reach the descriptor, and colors only for two members equal up to
    their descriptors, each at most once per ranking.
    """
    order: list[int] = []
    for cls in classes:
        order += _staged(ix, cls) if len(cls) > 1 else cls
    return order


def rank_component(ix: _Index, comp: list[int]) -> list[int]:
    """``comp``, a material component of ``ix``, as its node ids in rank
    order, lowest rank first, whatever order ``comp`` is in: one
    ``morgan_iterate`` run, its peak values grouped into classes,
    flattened by ``break_ties``."""
    peak, _best, _iteration = morgan_iterate(ix, comp)
    by_value = groupby(sorted(zip(peak, comp)), key=itemgetter(0))
    return break_ties(ix, [[i for _value, i in run] for _value, run in by_value])
