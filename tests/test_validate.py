"""Unit operation registry and structural checking."""

import pytest

import corpus
from sfiles2 import REGISTRY, DegreeSpec, FlowsheetGraph, check_graph


def test_registry_has_expected_rows():
    assert len(REGISTRY) == 32
    core = {
        "abs", "blwr", "centr", "comp", "cond", "C", "cycl", "dist",
        "egclean", "expand", "extr", "flash", "gfil", "hcycl", "hex",
        "lfil", "mix", "orif", "pipe", "pp", "prod", "r", "raw", "reb",
        "rect", "scrub", "sep", "splt", "strip", "tank", "v", "X",
    }
    assert set(REGISTRY) == core


def test_registry_degree_bounds():
    assert REGISTRY["raw"].inlets.max == 0
    assert REGISTRY["prod"].outlets.max == 0
    assert REGISTRY["dist"].outlets.min == 2
    assert REGISTRY["dist"].outlets.max is None
    assert REGISTRY["mix"].inlets.max is None
    assert REGISTRY["mix"].outlets == DegreeSpec(1, 1)
    assert REGISTRY["X"].inlets.admits(0) and REGISTRY["X"].inlets.admits(99)


def test_extension_flags():
    for cat in ("blwr", "comp", "expand", "orif", "pipe", "pp", "tank", "v", "strip"):
        assert REGISTRY[cat].extension, cat
    for cat in ("dist", "hex", "mix", "r", "raw", "prod"):
        assert not REGISTRY[cat].extension, cat


def test_clean_plants_have_no_diagnostics():
    for key in ("reactor_recycle_plant", "tank_level_control", "absorber"):
        g = corpus.fixture(key).make()
        assert check_graph(g) == [], key


def test_degree_violation_is_warning():
    g = FlowsheetGraph()
    g.add_node("raw-1")
    g.add_node("dist-1")
    g.add_node("prod-1")
    g.add_edge("raw-1", "dist-1")
    g.add_edge("dist-1", "prod-1")  # a column with one outlet
    diags = check_graph(g)
    assert len(diags) == 1
    d = diags[0]
    assert d.level == "warning"
    assert d.code == "degree"
    assert d.node == "dist-1"
    assert "outlet" in d.message


def test_mount_edge_excluded_from_source_out_degree():
    # The level transmitter tap on a vessel is instrumentation, not a
    # process outlet, so the vessel keeps a single counted outlet.
    g = corpus.fixture("tank_level_control").make()
    assert check_graph(g) == []


def test_inline_controller_edge_still_counts():
    g = corpus.fixture("flow_control_loop").make()
    assert check_graph(g) == []


def test_controller_without_connections_flagged():
    g = FlowsheetGraph()
    g.add_node("C-1", ctrl="FC")
    diags = check_graph(g)
    assert any(d.node == "C-1" and d.level == "warning" for d in diags)


def test_unknown_category_lenient_vs_strict():
    g = FlowsheetGraph()
    g.add_node("frobnicator-1")
    lenient = check_graph(g)
    assert [d.level for d in lenient] == ["warning"]
    strict = check_graph(g, strict=True)
    assert [d.level for d in strict] == ["error"]
    assert strict[0].code == "unknown-category"


def test_diagnostics_sorted_by_node():
    g = FlowsheetGraph()
    g.add_node("v-1")
    g.add_node("abs-1")
    diags = check_graph(g)
    assert [d.node for d in diags] == sorted(d.node for d in diags)


# One graph per way a degree can miss its bound, and the exact diagnostics:
# by node name, inlets before outlets.
_DEGREE_CASES = {
    "too-few-inlets": (
        ["mix-1", "prod-1"],
        [("mix-1", "prod-1")],
        [("mix-1", "mix-1: 0 inlets, expected >=1")],
    ),
    "too-few-outlets": (
        ["raw-1", "dist-1", "prod-1"],
        [("raw-1", "dist-1"), ("dist-1", "prod-1")],
        [("dist-1", "dist-1: 1 outlets, expected >=2")],
    ),
    "too-many-outlets": (
        ["raw-1", "v-1", "v-2", "prod-1", "prod-2"],
        [("raw-1", "v-1"), ("raw-1", "v-2"), ("v-1", "prod-1"), ("v-2", "prod-2")],
        [("raw-1", "raw-1: 2 outlets, expected 1")],
    ),
    "both-sides": (
        ["dist-1"],
        [],
        [
            ("dist-1", "dist-1: 0 inlets, expected >=1"),
            ("dist-1", "dist-1: 0 outlets, expected >=2"),
        ],
    ),
}


@pytest.mark.parametrize("nodes, edges, expected", _DEGREE_CASES.values(), ids=list(_DEGREE_CASES))
def test_degree_messages(nodes, edges, expected):
    diags = check_graph(corpus.build(nodes, edges))
    assert [(d.level, d.code, d.node, d.message) for d in diags] == [
        ("warning", "degree", node, message) for node, message in expected
    ]


@pytest.mark.parametrize(
    "spec, text",
    [
        (DegreeSpec(), "any"),
        (DegreeSpec(0, 0), "0"),
        (DegreeSpec(2, 2), "2"),
        (DegreeSpec(2, None), ">=2"),
        (DegreeSpec(None, 3), "<=3"),
        (DegreeSpec(1, 3), "1..3"),
    ],
)
def test_degree_spec_describe(spec, text):
    assert spec.describe() == text
