"""Random flowsheet generator for round trip stress tests.

Generates small plants that stay inside the structural rules the model
enforces: feeds into processing chains, optional separators, bounded
recycles back to a mixer or reactor, at most one multi stream exchanger
group, and an optional control loop.  A minority of outputs are pure
cycle plants with no feed at all, which exercises the cycle rooted
traversal path.  ``random_string`` writes a valid string of any graph
from a random rank order, one that the ranking would not have chosen.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Sequence

from sfiles2 import FlowsheetGraph, GraphInvariantError
from sfiles2.canon import _Index
from sfiles2.encode import _render, _write, traverse

_CHAIN = ["hex", "pp", "v", "r", "comp", "flash", "blwr"]


class _Builder:
    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.nodes: list[tuple[str, str | None]] = []
        self.edges: list[tuple[str, str, str, str | None]] = []

    def new(self, category: str, ctrl: str | None = None) -> str:
        self.counts[category] = self.counts.get(category, 0) + 1
        name = f"{category}-{self.counts[category]}"
        self.nodes.append((name, ctrl))
        return name

    def link(self, src: str, dst: str, kind: str = "material", tag: str | None = None) -> None:
        self.edges.append((src, dst, kind, tag))

    def graph(self) -> FlowsheetGraph:
        g = FlowsheetGraph()
        for name, ctrl in self.nodes:
            g.add_node(name, ctrl=ctrl)
        for src, dst, kind, tag in self.edges:
            g.add_edge(src, dst, kind=kind, tag=tag)
        return g


def _pure_cycle(rng: random.Random) -> FlowsheetGraph:
    b = _Builder()
    length = rng.randint(3, 5)
    ring = [b.new(rng.choice(["hex", "comp", "v", "pp"])) for _ in range(length)]
    for i, n in enumerate(ring):
        b.link(n, ring[(i + 1) % length])
    return b.graph()


def random_flowsheet(rng: random.Random) -> FlowsheetGraph:
    if rng.random() < 0.15:
        return _pure_cycle(rng)

    b = _Builder()
    n_feeds = rng.randint(1, 2)
    heads = []
    for _ in range(n_feeds):
        head = b.new("raw")
        for _ in range(rng.randint(0, 2)):
            nxt = b.new(rng.choice(_CHAIN[:4]))
            b.link(head, nxt)
            head = nxt
        heads.append(head)

    if len(heads) > 1:
        joiner = b.new(rng.choice(["mix", "r"]))
        for h in heads:
            b.link(h, joiner)
        current = joiner
    else:
        current = heads[0]

    for _ in range(rng.randint(0, 2)):
        nxt = b.new(rng.choice(_CHAIN))
        b.link(current, nxt)
        current = nxt

    recycle_targets = [n for n, _ in b.nodes if n.startswith(("mix", "r-"))]
    open_ends: list[tuple[str, str | None]] = []

    if rng.random() < 0.55:
        sep = b.new(rng.choice(["dist", "splt", "flash"]))
        b.link(current, sep)
        if sep.startswith("dist"):
            open_ends.append((sep, "tout"))
            open_ends.append((sep, "bout"))
        else:
            open_ends.append((sep, None))
            open_ends.append((sep, None))
    else:
        open_ends.append((current, None))

    n_recycles = rng.randint(0, min(2, len(recycle_targets)))
    rng.shuffle(open_ends)
    for _ in range(n_recycles):
        if len(open_ends) <= 1:
            break
        src, tag = open_ends.pop()
        hop = b.new(rng.choice(["v", "pp", "comp"]))
        b.link(src, hop, tag=tag)
        b.link(hop, rng.choice(recycle_targets))

    for src, tag in open_ends:
        if rng.random() < 0.4:
            hop = b.new(rng.choice(["hex", "v"]))
            b.link(src, hop, tag=tag)
            src, tag = hop, None
        b.link(src, b.new("prod"), tag=tag)

    g = b.graph()
    g = _maybe_group_hex(g, rng)
    g = _maybe_control(g, rng)
    return g


def _maybe_group_hex(g: FlowsheetGraph, rng: random.Random) -> FlowsheetGraph:
    hexes = [n for n in g.nodes() if g.node_ref(n).category == "hex"]
    if len(hexes) < 2 or rng.random() < 0.5:
        return g
    pair = rng.sample(hexes, 2)
    rename = {pair[0]: "hex-9/1", pair[1]: "hex-9/2"}
    out = FlowsheetGraph()
    for n in g.nodes():
        if g.node_ref(n).category == "hex" and n not in rename:
            rename[n] = n  # keep other exchangers as plain units
    for n in g.nodes():
        out.add_node(rename.get(n, n), ctrl=g.ctrl(n))
    for src, dst, attr in g.edges():
        out.add_edge(rename.get(src, src), rename.get(dst, dst), kind=attr.kind, tag=attr.tag)
    return out


def _maybe_control(g: FlowsheetGraph, rng: random.Random) -> FlowsheetGraph:
    if rng.random() < 0.6:
        return g
    valves = [n for n in g.nodes() if g.node_ref(n).category == "v"]
    taps = [
        n
        for n in g.nodes()
        if g.node_ref(n).category in ("tank", "r", "mix", "flash", "dist")
    ]
    if not valves or not taps:
        return g
    out = g.copy()
    out.add_node("C-1", ctrl=rng.choice(["FC", "LC", "PC", "TC"]))
    out.add_edge(rng.choice(taps), "C-1")
    out.add_edge("C-1", rng.choice(valves), kind="signal")
    return out


def renumber_randomly(
    g: FlowsheetGraph, rng: random.Random, numbers: Sequence[int] | None = None
) -> FlowsheetGraph:
    """Same plant, different equipment numbers and insertion order.

    Each category's numbers are drawn from ``numbers``, by default from 1
    to three times as many as the category has."""
    by_cat: dict[str, list[int]] = {}
    for n in g.nodes():
        ref = g.node_ref(n)
        by_cat.setdefault(ref.category, []).append(ref.number)

    mapping: dict[tuple[str, int], int] = {}
    for cat, nums in by_cat.items():
        uniq = sorted(set(nums))
        fresh = rng.sample(numbers or range(1, len(uniq) * 3 + 1), len(uniq))
        for old, new in zip(uniq, fresh):
            mapping[(cat, old)] = new

    def rename(name: str) -> str:
        ref = g.node_ref(name)
        new_num = mapping[(ref.category, ref.number)]
        sub = f"/{ref.sub}" if ref.sub is not None else ""
        return f"{ref.category}-{new_num}{sub}"

    nodes = g.nodes()
    rng.shuffle(nodes)
    edges = list(g.edges())
    rng.shuffle(edges)

    out = FlowsheetGraph()
    for n in nodes:
        out.add_node(rename(n), ctrl=g.ctrl(n))
    for src, dst, attr in edges:
        out.add_edge(rename(src), rename(dst), kind=attr.kind, tag=attr.tag)
    return out


def repeat_component(
    g: FlowsheetGraph,
    comp: list[str],
    copies: int,
    rng: random.Random,
    *,
    signals: int = 0,
    shells: bool = False,
    interleave: bool = False,
) -> FlowsheetGraph:
    """``copies`` renumbered copies of the units ``comp`` of ``g`` and the
    edges among them, as one graph.

    Every copy takes fresh numbers in every category.  With ``shells``,
    each exchanger of ``comp`` puts the copies into random buckets, and
    the copies in one bucket share one shell as its sub-units.  Nodes and
    edges go in in one shuffled order, copy after copy, or with
    ``interleave`` all copies mixed.  Then ``signals`` attempts each add a
    signal edge from a unit of one copy to a unit of another.
    """
    refs = {n: g.node_ref(n) for n in comp}
    # (copy, equipment) -> (equipment, bucket); a bucket of two or more
    # copies is one shared shell.
    owner = {}
    for equipment in sorted({ref.equipment for ref in refs.values()}):
        shared = shells and equipment[0] == "hex"
        for c in range(copies):
            owner[c, equipment] = equipment, rng.randrange(copies) if shared else c
    members = Counter(owner.values())
    number = {}
    for category in sorted({ref.category for ref in refs.values()}):
        keys = sorted(key for key in members if key[0][0] == category)
        number.update(zip(keys, rng.sample(range(1, 3 * len(keys) + 1), len(keys))))
    subs: Counter = Counter()
    names = {}
    for c in range(copies):
        for n in sorted(comp):
            ref = refs[n]
            key = owner[c, ref.equipment]
            if members[key] > 1:
                subs[key] += 1
                names[c, n] = f"hex-{number[key]}/{subs[key]}"
            else:
                sub = "" if ref.sub is None else f"/{ref.sub}"
                names[c, n] = f"{ref.category}-{number[key]}{sub}"

    inside = set(comp)
    order = sorted(comp)
    rng.shuffle(order)
    edges = [(s, d, a) for s, d, a in g.edges() if s in inside and d in inside]
    rng.shuffle(edges)
    node_items = [(c, n) for c in range(copies) for n in order]
    edge_items = [(c, e) for c in range(copies) for e in edges]
    if interleave:
        rng.shuffle(node_items)
        rng.shuffle(edge_items)
    out = FlowsheetGraph()
    for c, n in node_items:
        out.add_node(names[c, n], ctrl=g.ctrl(n))
    for c, (src, dst, attr) in edge_items:
        out.add_edge(names[c, src], names[c, dst], kind=attr.kind, tag=attr.tag)
    for _ in range(signals):
        a, b = rng.sample(range(copies), 2)
        try:
            out.add_edge(names[a, rng.choice(order)], names[b, rng.choice(order)], kind="signal")
        except GraphInvariantError:
            pass  # a duplicate
    return out


def random_string(g: FlowsheetGraph, rng: random.Random, mode: str) -> str:
    """A valid string of ``g`` that is not canonical in general: each
    component's units, and the components, in a random order, planned
    and written as an encoding plans and writes its ranked ones."""
    ix = _Index(g)
    comps = ix.components()
    for comp in comps:
        rng.shuffle(comp)
    rng.shuffle(comps)
    return _render(ix, _write(ix, [traverse(ix, c) for c in comps]), mode)
