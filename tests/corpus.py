"""Shared test corpus: reference flowsheets with their expected strings.

Each fixture builds its graph from scratch through the model API and
pins the exact output for every rendering mode we guarantee, plus the
hand-checked rank table where one is part of the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from sfiles2 import FlowsheetGraph


def build(nodes, edges) -> FlowsheetGraph:
    g = FlowsheetGraph()
    for n in nodes:
        if isinstance(n, tuple):
            g.add_node(n[0], ctrl=n[1])
        else:
            g.add_node(n)
    for e in edges:
        g.add_edge(*e[:2], **(e[2] if len(e) > 2 else {}))
    return g


def without_signals(graph: FlowsheetGraph) -> FlowsheetGraph:
    """Copy of the graph keeping only material connectivity."""
    g = FlowsheetGraph()
    for n in graph.nodes():
        g.add_node(n, ctrl=graph.ctrl(n))
    for src, dst, attr in graph.edges():
        if attr.kind == "material":
            g.add_edge(src, dst, kind=attr.kind, tag=attr.tag)
    return g


@dataclass(frozen=True)
class Fixture:
    key: str
    make: Callable[[], FlowsheetGraph]
    generalized: str
    numbered: str | None = None
    legacy_generalized: str | None = None
    legacy_numbered: str | None = None
    ranks: dict[str, int] | None = None
    has_signals: bool = False


def _reactor_recycle_plant(tags: bool) -> FlowsheetGraph:
    return build(
        [
            "raw-1", "hex-1", "r-1", "raw-2", "pp-1", "mix-1",
            "v-1", "dist-1", "prod-1", "splt-1", "prod-2",
        ],
        [
            ("raw-1", "hex-1"),
            ("hex-1", "r-1"),
            ("raw-2", "pp-1"),
            ("pp-1", "r-1"),
            ("r-1", "mix-1"),
            ("mix-1", "v-1"),
            ("v-1", "dist-1"),
            ("dist-1", "prod-1", {"tag": "tout"} if tags else {}),
            ("dist-1", "splt-1", {"tag": "bout"} if tags else {}),
            ("splt-1", "mix-1"),
            ("splt-1", "prod-2"),
        ],
    )


_REACTOR_RANKS = {
    "raw-1": 1, "raw-2": 2, "prod-1": 3, "prod-2": 4, "hex-1": 5,
    "pp-1": 6, "v-1": 7, "dist-1": 8, "r-1": 9, "splt-1": 10, "mix-1": 11,
}


def _single_feed() -> FlowsheetGraph:
    return build(
        ["raw-1", "hex-1", "r-1", "mix-1", "v-1", "dist-1", "prod-1", "splt-1", "prod-2"],
        [
            ("raw-1", "hex-1"),
            ("hex-1", "r-1"),
            ("r-1", "mix-1"),
            ("mix-1", "v-1"),
            ("v-1", "dist-1"),
            ("dist-1", "prod-1", {"tag": "tout"}),
            ("dist-1", "splt-1", {"tag": "bout"}),
            ("splt-1", "mix-1"),
            ("splt-1", "prod-2"),
        ],
    )


_COLUMN_TRAIN_NODES = ["raw-1", "hex-1/1", "dist-1", "prod-1", "hex-1/2", "prod-2"]


def _column_train_edges(tags: bool):
    return [
        ("raw-1", "hex-1/1"),
        ("hex-1/1", "dist-1"),
        ("dist-1", "prod-1", {"tag": "bout"} if tags else {}),
        ("dist-1", "hex-1/2", {"tag": "tout"} if tags else {}),
        ("hex-1/2", "prod-2"),
    ]


def _multistream(tags: bool) -> FlowsheetGraph:
    return build(
        _COLUMN_TRAIN_NODES + ["raw-2", "hex-1/3", "prod-3"],
        _column_train_edges(tags) + [("raw-2", "hex-1/3"), ("hex-1/3", "prod-3")],
    )


def _column_train() -> FlowsheetGraph:
    return build(_COLUMN_TRAIN_NODES, _column_train_edges(True))


def _refrigeration() -> FlowsheetGraph:
    return build(
        _COLUMN_TRAIN_NODES + ["hex-2", "comp-1", "hex-1/3", "v-1"],
        _column_train_edges(True)
        + [
            ("hex-2", "comp-1"),
            ("comp-1", "hex-1/3"),
            ("hex-1/3", "v-1"),
            ("v-1", "hex-2"),
        ],
    )


def _absorber() -> FlowsheetGraph:
    return build(
        ["raw-1", "raw-2", "abs-1", "prod-1", "prod-2"],
        [
            ("raw-1", "abs-1", {"tag": "bin"}),
            ("raw-2", "abs-1", {"tag": "tin"}),
            ("abs-1", "prod-1", {"tag": "tout"}),
            ("abs-1", "prod-2", {"tag": "bout"}),
        ],
    )


def _flow_control() -> FlowsheetGraph:
    return build(
        ["raw-1", ("C-1", "FC"), "v-1", "prod-1"],
        [
            ("raw-1", "C-1"),
            ("C-1", "v-1"),
            ("v-1", "prod-1"),
            ("C-1", "v-1", {"kind": "signal"}),
        ],
    )


def _tank_level_control() -> FlowsheetGraph:
    return build(
        ["raw-1", "tank-1", ("C-1", "LC"), "v-1", "prod-1"],
        [
            ("raw-1", "tank-1"),
            ("tank-1", "C-1"),
            ("tank-1", "v-1"),
            ("v-1", "prod-1"),
            ("C-1", "v-1", {"kind": "signal"}),
        ],
    )


def _cascade() -> FlowsheetGraph:
    return build(
        ["raw-1", "tank-1", ("C-1", "LT"), ("C-2", "FC"), "v-1", "prod-1"],
        [
            ("raw-1", "tank-1"),
            ("tank-1", "C-1"),
            ("tank-1", "C-2"),
            ("C-2", "v-1"),
            ("v-1", "prod-1"),
            ("C-1", "C-2", {"kind": "signal"}),
            ("C-2", "v-1", {"kind": "signal"}),
        ],
    )


def _nested_converging() -> FlowsheetGraph:
    return build(
        [
            "raw-1", "pp-1", "r-1", "raw-2", "mix-1", "dist-1",
            "hex-1", "splt-1", "prod-1", "hex-2", "prod-2",
        ],
        [
            ("raw-1", "pp-1"),
            ("pp-1", "r-1"),
            ("raw-2", "mix-1"),
            ("mix-1", "dist-1"),
            ("dist-1", "hex-1", {"tag": "tout"}),
            ("hex-1", "r-1"),
            ("dist-1", "splt-1", {"tag": "bout"}),
            ("splt-1", "mix-1"),
            ("splt-1", "prod-1"),
            ("r-1", "hex-2"),
            ("hex-2", "prod-2"),
        ],
    )


def _merged_exchanger() -> FlowsheetGraph:
    return build(
        ["raw-1", "raw-2", "hex-1", "dist-1", "prod-1", "prod-2", "prod-3"],
        [
            ("raw-1", "hex-1"),
            ("raw-2", "hex-1"),
            ("hex-1", "dist-1"),
            ("dist-1", "hex-1"),
            ("hex-1", "prod-1"),
            ("hex-1", "prod-2"),
            ("dist-1", "prod-3"),
        ],
    )


def _bypass_split() -> FlowsheetGraph:
    return build(
        ["raw-1", "splt-1", "v-1", "mix-1", "prod-1"],
        [
            ("raw-1", "splt-1"),
            ("splt-1", "v-1"),
            ("splt-1", "mix-1"),
            ("v-1", "mix-1"),
            ("mix-1", "prod-1"),
        ],
    )


FIXTURES: list[Fixture] = [
    Fixture(
        key="reactor_recycle_plant",
        make=lambda: _reactor_recycle_plant(False),
        generalized="(raw)(hex)(r)<&|(raw)(pp)&|(mix)<1(v)(dist)[(prod)](splt)1(prod)",
        numbered="(raw-1)(hex-1)(r-1)<&|(raw-2)(pp-1)&|(mix-1)<1(v-1)(dist-1)[(prod-1)](splt-1)1(prod-2)",
        legacy_generalized="(raw)(hex)(r)[<(pp)<(raw)](mix)<1(v)(dist)[(prod)](splt)1(prod)",
        legacy_numbered="(raw-1)(hex-1)(r-1)[<(pp-1)<(raw-2)](mix-1)<1(v-1)(dist-1)[(prod-1)](splt-1)1(prod-2)",
        ranks=_REACTOR_RANKS,
    ),
    Fixture(
        key="reactor_recycle_plant_tagged",
        make=lambda: _reactor_recycle_plant(True),
        generalized="(raw)(hex)(r)<&|(raw)(pp)&|(mix)<1(v)(dist)[{tout}(prod)]{bout}(splt)1(prod)",
        numbered=(
            "(raw-1)(hex-1)(r-1)<&|(raw-2)(pp-1)&|(mix-1)<1(v-1)(dist-1)"
            "[{tout}(prod-1)]{bout}(splt-1)1(prod-2)"
        ),
        ranks=_REACTOR_RANKS,
    ),
    Fixture(
        key="reactor_recycle_single_feed",
        make=_single_feed,
        generalized="(raw)(hex)(r)(mix)<1(v)(dist)[{tout}(prod)]{bout}(splt)1(prod)",
        ranks={
            "raw-1": 1, "hex-1": 2, "prod-1": 3, "prod-2": 4, "r-1": 5,
            "v-1": 6, "splt-1": 7, "dist-1": 8, "mix-1": 9,
        },
    ),
    Fixture(
        key="multistream_exchanger_plant",
        make=lambda: _multistream(False),
        generalized="(raw)(hex){1}(dist)[(prod)](hex){1}(prod)n|(raw)(hex){1}(prod)",
        numbered="(raw-1)(hex-1/1){1}(dist-1)[(prod-1)](hex-1/2){1}(prod-2)n|(raw-2)(hex-1/3){1}(prod-3)",
        ranks={
            "prod-2": 1, "raw-1": 2, "prod-1": 3, "hex-1/2": 4, "hex-1/1": 5,
            "dist-1": 6, "prod-3": 1, "raw-2": 2, "hex-1/3": 3,
        },
    ),
    Fixture(
        key="multistream_exchanger_plant_tagged",
        make=lambda: _multistream(True),
        generalized="(raw)(hex){1}(dist)[{bout}(prod)]{tout}(hex){1}(prod)n|(raw)(hex){1}(prod)",
        numbered="(raw-1)(hex-1/1){1}(dist-1)[{bout}(prod-1)]{tout}(hex-1/2){1}(prod-2)n|(raw-2)(hex-1/3){1}(prod-3)",
    ),
    Fixture(
        key="column_exchanger_train",
        make=_column_train,
        generalized="(raw)(hex){1}(dist)[{bout}(prod)]{tout}(hex){1}(prod)",
        numbered="(raw-1)(hex-1/1){1}(dist-1)[{bout}(prod-1)]{tout}(hex-1/2){1}(prod-2)",
    ),
    Fixture(
        key="refrigeration_cycle",
        make=_refrigeration,
        generalized="(raw)(hex){1}(dist)[{bout}(prod)]{tout}(hex){1}(prod)n|(hex)<1(comp)(hex){1}(v)1",
        numbered="(raw-1)(hex-1/1){1}(dist-1)[{bout}(prod-1)]{tout}(hex-1/2){1}(prod-2)n|(hex-2)<1(comp-1)(hex-1/3){1}(v-1)1",
    ),
    Fixture(
        key="absorber",
        make=_absorber,
        generalized="(raw){bin}(abs)<&|(raw){tin}&|[{tout}(prod)]{bout}(prod)",
        numbered="(raw-1){bin}(abs-1)<&|(raw-2){tin}&|[{tout}(prod-1)]{bout}(prod-2)",
        ranks={"prod-1": 1, "prod-2": 2, "raw-1": 3, "raw-2": 4, "abs-1": 5},
    ),
    Fixture(
        key="flow_control_loop",
        make=_flow_control,
        generalized="(raw)(C){FC}_1(v)<_1(prod)",
        numbered="(raw-1)(C-1){FC}_1(v-1)<_1(prod-1)",
        ranks={"prod-1": 1, "raw-1": 2, "C-1": 3, "v-1": 4},
        has_signals=True,
    ),
    Fixture(
        key="tank_level_control",
        make=_tank_level_control,
        generalized="(raw)(tank)[(C){LC}_1](v)<_1(prod)",
        numbered="(raw-1)(tank-1)[(C-1){LC}_1](v-1)<_1(prod-1)",
        ranks={"C-1": 1, "prod-1": 2, "raw-1": 3, "v-1": 4, "tank-1": 5},
        has_signals=True,
    ),
    Fixture(
        key="control_cascade",
        make=_cascade,
        generalized="(raw)(tank)[(C){LT}_1](C){FC}_2<_1(v)<_2(prod)",
        numbered="(raw-1)(tank-1)[(C-1){LT}_1](C-2){FC}_2<_1(v-1)<_2(prod-1)",
        ranks={"prod-1": 1, "v-1": 2, "C-1": 3, "raw-1": 4, "tank-1": 5, "C-2": 6},
        has_signals=True,
    ),
    Fixture(
        key="nested_converging_plant",
        make=_nested_converging,
        generalized="(raw)(pp)(r)<&|(raw)(mix)<1(dist)[{tout}(hex)&]{bout}(splt)1(prod)|(hex)(prod)",
        numbered="(raw-1)(pp-1)(r-1)<&|(raw-2)(mix-1)<1(dist-1)[{tout}(hex-1)&]{bout}(splt-1)1(prod-1)|(hex-2)(prod-2)",
        ranks={
            "prod-2": 1, "raw-1": 2, "hex-2": 3, "pp-1": 4, "prod-1": 5,
            "raw-2": 6, "r-1": 7, "hex-1": 8, "mix-1": 9, "splt-1": 10, "dist-1": 11,
        },
    ),
    Fixture(
        key="merged_exchanger_plant",
        make=_merged_exchanger,
        generalized="(raw)(hex)<1<&|(raw)&|[(prod)][(prod)](dist)1(prod)",
        numbered="(raw-1)(hex-1)<1<&|(raw-2)&|[(prod-1)][(prod-2)](dist-1)1(prod-3)",
        ranks={
            "prod-3": 1, "prod-1": 2, "prod-2": 3, "raw-1": 4,
            "raw-2": 5, "hex-1": 6, "dist-1": 7,
        },
    ),
    Fixture(
        key="bypass_split",
        make=_bypass_split,
        generalized="(raw)(splt)1(v)(mix)<1(prod)",
        numbered="(raw-1)(splt-1)1(v-1)(mix-1)<1(prod-1)",
        ranks={"prod-1": 1, "raw-1": 2, "v-1": 3, "mix-1": 4, "splt-1": 5},
    ),
]

BY_KEY = {f.key: f for f in FIXTURES}


def fixture(key: str) -> Fixture:
    return BY_KEY[key]


# Malformed inputs with the diagnostic code each must produce.
MALFORMED: list[tuple[str, str, str]] = [
    ("unclosed-branch", "(raw)[", "unclosed-branch"),
    ("dangling-recycle", "(raw)(v)<1(prod)", "dangling-recycle"),
    ("unknown-brace", "(raw){foo}(prod)", "unknown-brace"),
    ("stray-connector", "(raw)&(prod)", "stray-connector"),
    ("tag-on-signal", "(raw){tout}_1(v)", "tag-on-signal"),
    ("illegal-character", "(raw)(prod)!", "illegal-character"),
    ("unterminated-node", "(raw)(prod", "unterminated-node"),
    ("unterminated-brace", "(raw){tout", "unterminated-brace"),
    ("unmatched-bracket-close", "(raw)]", "unmatched-bracket-close"),
    ("unmatched-conv-close", "(raw)(v)|", "unmatched-conv-close"),
    ("dangling-tag", "(raw){tout}", "dangling-tag"),
    ("graph-invariant", "(prod)(v)", "graph-invariant"),
    ("bad-recycle-digits", "(raw)%1a(v)", "bad-recycle-digits"),
    ("empty-node", "()", "empty-node"),
    ("mark-without-node", "<1(raw)", "mark-without-node"),
    ("dangling-signal", "(raw)(C){FC}_1", "dangling-signal"),
    ("missing-connector", "(raw)<&|(v)|(prod)", "missing-connector"),
    ("branch-without-node", "[(raw)]", "branch-without-node"),
]

# Whole tokens of the notation, valid and not, for joining into arbitrary
# strings that reach the parse machine and the finalize step, not only the
# lexer.  "²" and "١" are digits to str.isdigit but not ASCII digits.
FRAGMENTS = [
    "(raw)", "(prod)", "(hex)", "(v)", "(mix)", "(r)", "(C)", "(frob)", "(hex-1/2)",
    "(raw-1)", "(v-2)", "()", "{tin}", "{bout}", "{1}", "{2}", "{PC}", "{x}", "<&|",
    "&", "|", "&|", "[", "]", "[<", "<(", "1", "<1", "%12", "<%12", "_1", "<_1",
    "n|", "(", "{", "<", "²", "١",
]


# Scaled families: long chains, identical trains and symmetric exchanger
# loops, which stress refinement depth, ties and emission depth.


def chain(units: int, category: str = "pp") -> FlowsheetGraph:
    names = ["raw-1"] + [f"{category}-{i}" for i in range(1, units + 1)] + ["prod-1"]
    return build(names, list(zip(names, names[1:])))


def trains(count: int, units: int) -> FlowsheetGraph:
    nodes, edges = [], []
    for t in range(count):
        names = [f"raw-{t + 1}"] + [f"v-{t * units + i}" for i in range(1, units + 1)]
        names.append(f"prod-{t + 1}")
        nodes += names
        edges += list(zip(names, names[1:]))
    return build(nodes, edges)


def exchanger_loop(exchangers: int) -> FlowsheetGraph:
    """The loop 1<->2, 2->3, 3<->4, ..., n->1 of an even number, at least 4, of exchangers."""
    names = [f"hex-{i}" for i in range(1, exchangers + 1)]
    edges = []
    for i in range(0, exchangers, 2):
        a, b, c = names[i], names[i + 1], names[(i + 2) % exchangers]
        edges += [(a, b), (b, a), (b, c)]
    return build(names, edges)


def controlled_trains() -> FlowsheetGraph:
    """Two ``raw -> v -> prod`` trains, each valve driven by its own
    ``(C){FC}``: the two controllers are equal one-unit components."""
    return build(
        ["raw-1", "v-1", "prod-1", "raw-2", "v-2", "prod-2", ("C-1", "FC"), ("C-2", "FC")],
        [("raw-1", "v-1"), ("v-1", "prod-1"), ("raw-2", "v-2"), ("v-2", "prod-2")]
        + [("C-1", "v-1", {"kind": "signal"}), ("C-2", "v-2", {"kind": "signal"})],
    )


def half_controlled_trains() -> FlowsheetGraph:
    """Two ``raw -> v -> prod`` trains, only the second valve driven by a
    ``(C){FC}``: equal component strings, and one train is forced (a path
    from its feed with no signal) while the other is not."""
    return build(
        ["raw-1", "v-1", "prod-1", "raw-2", "v-2", "prod-2", ("C-1", "FC")],
        [("raw-1", "v-1"), ("v-1", "prod-1"), ("raw-2", "v-2"), ("v-2", "prod-2")]
        + [("C-1", "v-2", {"kind": "signal"})],
    )


def lollipop() -> FlowsheetGraph:
    """``raw -> v -> pp -> hex`` with the recycle ``hex -> v``: a path from
    its feed that ends in a recycle back into itself."""
    names = ["raw-1", "v-1", "pp-1", "hex-1"]
    return build(names, list(zip(names, names[1:])) + [("hex-1", "v-1")])


def shell_trains() -> FlowsheetGraph:
    """Two identical ``raw -> hex -> prod`` trains whose exchangers share
    their shells with two identical ``raw -> hex -> pp -> prod`` trains."""
    nodes, edges = [], []
    for t in (1, 2):
        short = [f"raw-{t}", f"hex-{t}/1", f"prod-{t}"]
        long = [f"raw-{t + 2}", f"hex-{t}/2", f"pp-{t}", f"prod-{t + 2}"]
        nodes += short + long
        edges += list(zip(short, short[1:])) + list(zip(long, long[1:]))
    return build(nodes, edges)
