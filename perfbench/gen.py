"""Seeded inputs for the codec benchmark.

Everything here is plain data: a graph is a node list and an edge list,
and every generated string comes with the graph it denotes.  Nothing
here imports ``sfiles2`` or the test helpers, so neither the program
under test nor later test edits can shift a workload.  The same seed
always gives the same inputs.

    python3 perfbench/gen.py --workload decode_long --seed 1

prints the inputs of one workload as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from dataclasses import dataclass, field

MATERIAL = "material"
SIGNAL = "signal"

_NAME_RE = re.compile(r"^([A-Za-z]+)-(\d+)(?:/(\d+))?$")


@dataclass
class Spec:
    """One flowsheet graph: ``(name, ctrl)`` nodes and ``(src, dst, kind, tag)`` edges."""

    nodes: list[tuple[str, str | None]] = field(default_factory=list)
    edges: list[tuple[str, str, str, str | None]] = field(default_factory=list)

    def key(self):
        """Order-free form, comparable with the same form of a parsed graph."""
        return dict(self.nodes), sorted(self.edges, key=repr)


@dataclass
class Item:
    """One graph to encode, with whatever reference is known for it."""

    key: str
    family: str
    spec: Spec
    ref: str | None = None  # generalized string, where it has a closed form or a pin
    numbered: str | None = None  # pinned numbered string
    original: str | None = None  # key of the item this one renumbers
    ring: int | None = None  # exchanger count of a symmetric loop


@dataclass
class Text:
    """One string to parse: valid with its graph, or malformed with its code."""

    key: str
    text: str
    spec: Spec | None = None
    code: str | None = None
    first: bool = True  # the code must be the first error, not just one of them


class _Graph:
    def __init__(self) -> None:
        self.spec = Spec()
        self.counts: dict[str, int] = {}

    def new(self, category: str, ctrl: str | None = None) -> str:
        self.counts[category] = self.counts.get(category, 0) + 1
        name = f"{category}-{self.counts[category]}"
        self.spec.nodes.append((name, ctrl))
        return name

    def link(self, src: str, dst: str, kind: str = MATERIAL, tag: str | None = None) -> None:
        self.spec.edges.append((src, dst, kind, tag))

    def then(self, src: str, category: str, tag: str | None = None) -> str:
        dst = self.new(category)
        self.link(src, dst, tag=tag)
        return dst


# -- plants: small seeded flowsheets, the paper's typical traffic

_FEED_UNITS = ("hex", "pp", "v", "r")
_UNITS = ("hex", "pp", "v", "r", "comp", "flash", "blwr")


def _pure_cycle(rng: random.Random) -> Spec:
    b = _Graph()
    ring = [b.new(rng.choice(("hex", "comp", "v", "pp"))) for _ in range(rng.randint(3, 5))]
    for i, n in enumerate(ring):
        b.link(n, ring[(i + 1) % len(ring)])
    return b.spec


def _process_plant(rng: random.Random) -> Spec:
    b = _Graph()
    heads = []
    for _ in range(rng.randint(1, 2)):
        head = b.new("raw")
        for _ in range(rng.randint(0, 2)):
            head = b.then(head, rng.choice(_FEED_UNITS))
        heads.append(head)
    current = heads[0]
    if len(heads) > 1:
        current = b.new(rng.choice(("mix", "r")))
        for h in heads:
            b.link(h, current)
    for _ in range(rng.randint(0, 2)):
        current = b.then(current, rng.choice(_UNITS))

    targets = [n for n, _ in b.spec.nodes if n.split("-")[0] in ("mix", "r")]
    if rng.random() < 0.55:
        category = rng.choice(("dist", "splt", "flash"))
        sep = b.then(current, category)
        tags = ("tout", "bout") if category == "dist" else (None, None)
        ends = [(sep, tag) for tag in tags]
    else:
        ends = [(current, None)]
    rng.shuffle(ends)
    for _ in range(rng.randint(0, min(2, len(targets)))):
        if len(ends) <= 1:
            break
        src, tag = ends.pop()
        hop = b.then(src, rng.choice(("v", "pp", "comp")), tag)
        b.link(hop, rng.choice(targets))
    for src, tag in ends:
        if rng.random() < 0.4:
            src, tag = b.then(src, rng.choice(("hex", "v")), tag), None
        b.then(src, "prod", tag)

    spec = b.spec
    hexes = [n for n, _ in spec.nodes if n.startswith("hex-")]
    if len(hexes) >= 2 and rng.random() < 0.5:
        # two streams through one exchanger, numbered past the plain ones
        shared = len(hexes) + 1
        pair = rng.sample(hexes, 2)
        rename = {pair[0]: f"hex-{shared}/1", pair[1]: f"hex-{shared}/2"}
        spec = Spec(
            [(rename.get(n, n), c) for n, c in spec.nodes],
            [(rename.get(s, s), rename.get(d, d), k, t) for s, d, k, t in spec.edges],
        )
    valves = [n for n, _ in spec.nodes if n.startswith("v-")]
    taps = [n for n, _ in spec.nodes if n.split("-")[0] in ("r", "mix", "flash", "dist")]
    if valves and taps and rng.random() < 0.4:
        spec.nodes.append(("C-1", rng.choice(("FC", "LC", "PC", "TC"))))
        spec.edges.append((rng.choice(taps), "C-1", MATERIAL, None))
        spec.edges.append(("C-1", rng.choice(valves), SIGNAL, None))
    return spec


def plant(rng: random.Random) -> Spec:
    """A plant of 3 to 15 units (mean about 7): feeds, a processing
    chain, an optional separator, recycles, products, and sometimes a
    shared exchanger or a control loop.  About one in seven is a bare
    cycle with no feed."""
    while True:
        spec = _pure_cycle(rng) if rng.random() < 0.15 else _process_plant(rng)
        if 3 <= len(spec.nodes) <= 15:
            return spec


def renumber(spec: Spec, rng: random.Random) -> Spec:
    """The same plant with fresh equipment numbers per category and a
    shuffled insertion order; sub-unit indices are kept."""
    parts = {}
    for name, _ in spec.nodes:
        category, number, sub = _NAME_RE.match(name).groups()
        parts[name] = (category, int(number), sub)
    numbers: dict[str, set[int]] = {}
    for category, number, _ in parts.values():
        numbers.setdefault(category, set()).add(number)
    fresh: dict[tuple[str, int], int] = {}
    for category, old in numbers.items():
        new = rng.sample(range(1, 3 * len(old) + 1), len(old))
        fresh.update({(category, o): n for o, n in zip(sorted(old), new)})

    def rename(name: str) -> str:
        category, number, sub = parts[name]
        return f"{category}-{fresh[(category, number)]}" + (f"/{sub}" if sub else "")

    nodes = [(rename(n), c) for n, c in spec.nodes]
    edges = [(rename(s), rename(d), k, t) for s, d, k, t in spec.edges]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return Spec(nodes, edges)


PLANTS = 1500
PLANT_COPIES = 500  # the first plants each get one renumbered copy


def plants(seed: int, count: int = PLANTS, copies: int = PLANT_COPIES) -> list[Item]:
    rng = random.Random(seed)
    items = [Item(f"plant-{i}", "plant", plant(rng)) for i in range(count)]
    copy_rng = random.Random(seed + 1)
    for item in items[:copies]:
        items.append(
            Item(f"{item.key}~1", "plant", renumber(item.spec, copy_rng), original=item.key)
        )
    return items


# -- scaled: a few large graphs per family, where ranking cost dominates

_PIPE_UNITS = ("pp", "v", "hex", "comp", "pipe", "blwr", "expand", "orif")

# Sizes are fixed so that every seed costs the same; the seed picks unit
# categories, numbering and insertion order.  Encode cost grows roughly
# cubically, which caps the chains at 300 units.
CHAIN_UNITS = (50, 75, 100, 150, 200, 300)
TRAIN_COUNTS = (25, 50, 100, 150, 200)
LOOP_EXCHANGERS = (8, 16, 32, 64, 128)
COPIES = {"chain": 1, "trains": 1, "loop": 4}


def chain(units: int, category: str) -> Item:
    b = _Graph()
    node = b.new("raw")
    for _ in range(units - 2):
        node = b.then(node, category)
    b.then(node, "prod")
    ref = "(raw)" + f"({category})" * (units - 2) + "(prod)"
    return Item(f"chain-{units}", "chain", b.spec, ref=ref)


def trains(count: int, category: str) -> Item:
    b = _Graph()
    for _ in range(count):
        b.then(b.then(b.new("raw"), category), "prod")
    ref = "n|".join([f"(raw)({category})(prod)"] * count)
    return Item(f"trains-{count}", "trains", b.spec, ref=ref)


def exchanger_loop(count: int) -> Item:
    """Exchangers in a ring, ``1<->2, 2->3, 3<->4, ..., count->1``."""
    b = _Graph()
    ring = [b.new("hex") for _ in range(count)]
    for i in range(0, count, 2):
        a, c = ring[i], ring[i + 1]
        b.link(a, c)
        b.link(c, a)
        b.link(c, ring[(i + 2) % count])
    return Item(f"loop-{count}", "loop", b.spec, ring=count)


def scaled(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = [chain(n, rng.choice(_PIPE_UNITS)) for n in CHAIN_UNITS]
    items += [trains(n, rng.choice(_PIPE_UNITS)) for n in TRAIN_COUNTS]
    items += [exchanger_loop(n) for n in LOOP_EXCHANGERS]
    copies = []
    for item in items:
        for i in range(COPIES[item.family]):
            copies.append(
                Item(
                    f"{item.key}~{i + 1}",
                    item.family,
                    renumber(item.spec, rng),
                    ref=item.ref,
                    original=item.key,
                    ring=item.ring,
                )
            )
    items += copies
    rng.shuffle(items)
    return items


# -- decode_long: long strings written directly as text


class _Writer:
    """Writes an SFILES string atom by atom, recording the graph it denotes.

    Numbers follow the parser's rule for unnumbered strings (by first
    occurrence per category, exchanger groups counted as exchangers), so
    the numbered and the generalized rendering denote the same graph.
    After every atom it also records the first diagnostic a strict parse
    must give if the string ended there.
    """

    def __init__(self, numbered: bool):
        self.numbered = numbered
        self.atoms: list[str] = []
        self.length = 0
        self.spec = Spec()
        self.counts: dict[str, int] = {}
        self.groups: dict[int, list[int]] = {}
        self.current: str | None = None
        self.frames: list[tuple[str, str | None]] = []
        self.pending: str | None = None
        self.open_rec: dict[int, str] = {}  # recycle id -> its target
        self.open_sig: dict[int, str] = {}  # signal id -> its source
        self.next_rec = 1
        self.next_sig = 1
        self.next_group = 1
        self.exchangers = 0
        self.cuts: list[tuple[int, str]] = []

    def text(self) -> str:
        return "".join(self.atoms)

    def units(self) -> int:
        return len(self.spec.nodes)

    def _put(self, atom: str) -> None:
        self.atoms.append(atom)
        self.length += len(atom)
        code = self._ending_code()
        if code is not None:
            self.cuts.append((self.length, code))

    def _ending_code(self) -> str | None:
        if self.pending is not None:
            return "dangling-tag"
        if self.frames:
            return "unclosed-converging" if self.frames[0][0] == "conv" else "unclosed-branch"
        if self.open_rec:
            return "dangling-recycle"
        if self.open_sig:
            return "dangling-signal"
        return None

    def _edge(self, src: str, dst: str, kind: str = MATERIAL, tag: str | None = None) -> None:
        self.spec.edges.append((src, dst, kind, tag))

    def unit(self, category: str, ctrl: str | None = None, group: int | None = None) -> str:
        if group is None:
            self.counts[category] = self.counts.get(category, 0) + 1
            name = f"{category}-{self.counts[category]}"
        else:
            if group not in self.groups:
                self.counts["hex"] = self.counts.get("hex", 0) + 1
                self.groups[group] = [self.counts["hex"], 0]
            number = self.groups[group]
            number[1] += 1
            name = f"hex-{number[0]}/{number[1]}"
        label = name if self.numbered else category
        if self.current is not None:
            self._edge(self.current, name, tag=self.pending)
            self.pending = None
        self.spec.nodes.append((name, ctrl))
        self.exchangers += category == "hex"
        self.current = name
        self.cuts.append((self.length + 1 + len(label), "unterminated-node"))
        braces = (f"{{{ctrl}}}" if ctrl else "") + (f"{{{group}}}" if group is not None else "")
        self._put(f"({label}){braces}")
        return name

    def tag(self, tag: str) -> None:
        self.pending = tag
        self._put(f"{{{tag}}}")

    def branch_open(self) -> None:
        self.frames.append(("branch", self.current))
        self._put("[")

    def branch_close(self) -> None:
        self.current = self.frames.pop()[1]
        self._put("]")

    def conv_open(self) -> None:
        self.frames.append(("conv", self.current))
        self.current = None
        self._put("<&|")

    def conv_connect(self) -> None:
        self._edge(self.current, self.frames[-1][1], tag=self.pending)
        self.pending = None
        self._put("&")

    def conv_close(self) -> None:
        self.current = self.frames.pop()[1]
        self._put("|")

    def recycle_target(self) -> int:
        rid = self.next_rec
        self.next_rec += 1
        self.open_rec[rid] = self.current
        self._put("<" + _recycle_digits(rid))
        return rid

    def recycle_source(self, rid: int) -> None:
        self._edge(self.current, self.open_rec.pop(rid))
        self._put(_recycle_digits(rid))

    def signal_source(self) -> int:
        sid = self.next_sig
        self.next_sig += 1
        self.open_sig[sid] = self.current
        self._put(f"_{sid}")
        return sid

    def signal_target(self, sid: int) -> None:
        self._edge(self.open_sig.pop(sid), self.current, kind=SIGNAL)
        self._put(f"<_{sid}")

    def new_train(self) -> None:
        self.current = None
        self._put("n|")


def _recycle_digits(rid: int) -> str:
    return str(rid) if rid < 10 else f"%{rid:02d}"


_LONG_UNITS = ("pp", "v", "comp", "pipe", "r", "mix", "tank")


HEX_SHARE = 0.2  # exchangers among all units of a long string


def _flow_unit(w: _Writer, rng: random.Random, groups: list[int]) -> None:
    """One unit on the current path.  It is an exchanger whenever fewer than
    HEX_SHARE of the units so far are, so that the exchanger count, which
    parse cost grows with quadratically, does not depend on the seed.
    Exchangers sometimes carry a second stream."""
    if w.exchangers >= HEX_SHARE * (w.units() + 1):
        w.unit(rng.choice(_LONG_UNITS))
    elif groups and rng.random() < 0.3:
        w.unit("hex", group=groups.pop())
    elif rng.random() < 0.02:
        group = w.next_group
        w.next_group += 1
        w.unit("hex", group=group)
        groups.append(group)
    else:
        w.unit("hex")


def hex_chain(units: int, numbered: bool, rng: random.Random) -> _Writer:
    """raw -> ``units - 2`` units, HEX_SHARE of them exchangers -> prod."""
    w = _Writer(numbered)
    groups: list[int] = []
    w.unit("raw")
    while w.units() < units - 1 - len(groups):
        _flow_unit(w, rng, groups)
    while groups:
        w.unit("hex", group=groups.pop())
    w.unit("prod")
    return w


def branched(units: int, numbered: bool, rng: random.Random) -> _Writer:
    """Trains of blocks: plain units, product side branches, tagged
    columns, recycle loops, converging feeds and control loops."""
    w = _Writer(numbered)
    groups: list[int] = []

    def flow(n: int) -> None:
        for _ in range(n):
            _flow_unit(w, rng, groups)

    w.unit("raw")
    train_units = 0
    while w.units() < units - 1 - len(groups):
        if train_units > 400 and rng.random() < 0.1:
            w.unit("prod")
            w.new_train()
            w.unit("raw")
            train_units = 0
        before = w.units()
        block = rng.random()
        if block < 0.35:
            flow(rng.randint(1, 4))
        elif block < 0.5:
            w.branch_open()
            flow(rng.randint(0, 2))
            w.unit("prod")
            w.branch_close()
            flow(1)
        elif block < 0.62:
            w.unit("dist")
            w.branch_open()
            w.tag("tout")
            flow(rng.randint(0, 2))
            w.unit("prod")
            w.branch_close()
            w.tag("bout")
            flow(1)
        elif block < 0.76 and w.next_rec <= 99:
            w.unit("mix")
            rid = w.recycle_target()
            flow(rng.randint(1, 3))
            w.unit("splt")
            w.branch_open()
            w.unit(rng.choice(("v", "pp")))
            w.recycle_source(rid)
            w.branch_close()
            flow(1)
        elif block < 0.88:
            w.unit("r")
            w.conv_open()
            w.unit("raw")
            flow(rng.randint(0, 2))
            w.conv_connect()
            w.conv_close()
            flow(1)
        else:
            w.unit("tank")
            w.branch_open()
            w.unit("C", ctrl=rng.choice(("FC", "LC", "PC", "TC")))
            sid = w.signal_source()
            w.branch_close()
            flow(rng.randint(0, 2))
            w.unit("v")
            w.signal_target(sid)
        train_units += w.units() - before
    while groups:
        w.unit("hex", group=groups.pop())
    w.unit("prod")
    return w


# Many moderate strings give the latency percentiles their samples; a few
# long ones reach the sizes where parse cost grows faster than linearly.
# Sizes are fixed so that every seed costs the same.
LONG_UNITS = tuple(round(200 * 5 ** (i / 59)) for i in range(60)) + (1600, 2500, 5000)


def _truncation(key: str, w: _Writer, rng: random.Random) -> Text:
    """Cut the string where a strict parse must fail, choosing the
    expected code first so that every code appears about equally."""
    by_code: dict[str, list[int]] = {}
    for pos, code in w.cuts:
        by_code.setdefault(code, []).append(pos)
    code = rng.choice(sorted(by_code))
    return Text(f"{key}/cut", w.text()[: rng.choice(by_code[code])], code=code)


def decode_long(seed: int, malformed: list[tuple[str, str, str]]) -> list[Text]:
    """Valid long strings with their graphs, one truncation of each, and
    the given ``(case, text, code)`` malformed strings."""
    rng = random.Random(seed)
    valid: list[Text] = []
    cuts: list[Text] = []
    for i, units in enumerate(LONG_UNITS):
        # both families and both renderings alternate along the sizes
        make = hex_chain if i % 2 == 0 else branched
        w = make(units, i % 4 < 2, rng)
        key = f"{make.__name__}-{units}"
        valid.append(Text(key, w.text(), spec=w.spec))
        cuts.append(_truncation(key, w, rng))
    bad = [Text(f"malformed/{case}", text, code=code, first=False) for case, text, code in malformed]
    return valid + cuts + bad


def _dump_spec(spec: Spec | None):
    return None if spec is None else {"nodes": spec.nodes, "edges": spec.edges}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("plants", "scaled", "decode_long"), required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    if args.workload == "decode_long":
        # the corpus malformed strings are read by the benchmark, not generated
        rows = [vars(t) | {"spec": _dump_spec(t.spec)} for t in decode_long(args.seed, [])]
    else:
        make = plants if args.workload == "plants" else scaled
        rows = [vars(i) | {"spec": _dump_spec(i.spec)} for i in make(args.seed)]
    for row in rows:
        sys.stdout.write(json.dumps(row) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
