"""Graph model: node naming, edge rules, JSON codec."""

import dataclasses
import json
import random
import re
from pathlib import Path

import pytest

import corpus
import genflow
import json_oracle
from sfiles2 import (
    MATERIAL,
    NUMBERED,
    SIGNAL,
    EdgeAttr,
    FlowsheetGraph,
    GraphInvariantError,
    NodeRef,
    SchemaError,
    encode,
    load_json,
    parse,
    save_json,
)
from sfiles2 import model
from sfiles2.cli import _json_line

FIXDIR = Path(__file__).parent / "fixtures"


class TestNodeRef:
    def test_parse_plain(self):
        ref = NodeRef.parse("dist-3")
        assert (ref.category, ref.number, ref.sub) == ("dist", 3, None)
        assert ref.name == "dist-3"
        assert ref.equipment == ("dist", 3)

    def test_parse_sub_unit(self):
        ref = NodeRef.parse("hex-1/2")
        assert (ref.category, ref.number, ref.sub) == ("hex", 1, 2)
        assert ref.name == "hex-1/2"
        assert ref.equipment == ("hex", 1)

    @pytest.mark.parametrize(
        "bad",
        # numbers take ASCII digits only: \d also matches Arabic-Indic digits
        ["hex", "hex-", "-1", "hex-0", "hex-1/0", "hex-1/2/3", "Hex 1", "", "raw-\u0661",
         "hex-1/\u0661", "raw-1\n", "hex-1/2\n", "r\u00e9e-1", "raw-01", "hex-1/01", "hex-01/2"],
    )
    def test_parse_rejects(self, bad):
        # A rejected name is never kept, so a second call checks it again
        # and fails with the same message.
        size = len(model._REFS)
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError) as exc:
                NodeRef.parse(bad)
            messages.append(str(exc.value))
            with pytest.raises(ValueError):
                FlowsheetGraph().add_node(bad)
        assert messages[0] == messages[1]
        assert len(model._REFS) == size

    def test_field_validation(self):
        with pytest.raises(ValueError):
            NodeRef("", 1)
        with pytest.raises(ValueError):
            NodeRef("hex", 0)
        with pytest.raises(ValueError):  # the notation writes ASCII letters only
            NodeRef("r\u00e9e", 1)
        with pytest.raises(ValueError):
            NodeRef("hex", 1, 0)

    def test_frozen_and_hashable(self):
        # A parsed ref may be a shared one from the table; it behaves
        # exactly like a ref built from its fields.
        for name, parts, renamed in [
            ("v-1", ("v", 1, None), "v-7"),
            ("hex-12/3", ("hex", 12, 3), "hex-7/3"),
        ]:
            a, b = NodeRef.parse(name), NodeRef(*parts)
            assert a == b and hash(a) == hash(b)
            assert a.name == b.name == name
            assert repr(a) == repr(b) == "NodeRef(category=%r, number=%r, sub=%r)" % parts
            with pytest.raises(dataclasses.FrozenInstanceError):
                a.number = 7
            assert dataclasses.replace(a, number=7).name == renamed
            assert a.name == name


class TestRefTable:
    """``NodeRef.parse`` shares one ref per name, in a table of fixed size.

    Each test starts from an empty table, so that what other tests parsed
    does not decide what is kept."""

    @pytest.fixture(autouse=True)
    def empty_table(self, monkeypatch):
        monkeypatch.setattr(model, "_REFS", {})

    def test_table_stays_bounded(self):
        cap = model._REFS_CAP
        for k in range(1, cap + 1001):
            ref = NodeRef.parse(f"raw-{k}")
            assert (ref.category, ref.number, ref.sub, ref.name) == ("raw", k, None, f"raw-{k}")
            assert len(model._REFS) <= cap
        assert len(model._REFS) == cap
        # names seen before the table filled are shared; later ones are
        # built and checked on each call
        assert NodeRef.parse("raw-1") is NodeRef.parse("raw-1")
        late = f"raw-{cap + 1000}"
        assert NodeRef.parse(late) is not NodeRef.parse(late)
        assert NodeRef.parse(late) == NodeRef("raw", cap + 1000)

    def test_graph_named_past_the_cap_roundtrips(self):
        cap = model._REFS_CAP
        for k in range(1, cap + 1):
            NodeRef.parse(f"pp-{k}")
        names = [f"raw-{cap + 1}", f"hex-{cap + 2}/1", f"pp-{cap + 3}", f"hex-{cap + 2}/2",
                 f"prod-{cap + 4}"]
        g = FlowsheetGraph()
        for name in names:
            g.add_node(name)
        for src, dst in zip(names, names[1:]):
            g.add_edge(src, dst)
        assert len(model._REFS) == cap
        numbered = encode(g, NUMBERED)
        back, diags = parse(numbered)
        assert diags.ok() and back == g
        assert encode(back) == encode(g)

    @pytest.mark.parametrize(
        "text",
        ["(raw-2)(hex-1/1)(C-4){FC}_1(v-3)<_1(hex-1/2)(prod-1)",  # the labels name the units
         "(raw)(hex){1}(C){FC}_1(v)<_1(hex){1}(prod)"],  # the parser numbers them
    )
    def test_second_parse_builds_no_ref(self, text):
        first, second = parse(text)[0], parse(text)[0]
        assert first == second and len(first.nodes()) == 6
        for name in first.nodes():
            assert first.node_ref(name) is second.node_ref(name)


class TestEdgeAttr:
    def test_defaults(self):
        attr = EdgeAttr()
        assert attr.kind == "material"
        assert attr.tag is None

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            EdgeAttr(kind="pipe")

    def test_rejects_bad_tag(self):
        with pytest.raises(ValueError):
            EdgeAttr(tag="side")

    def test_rejects_tag_on_signal(self):
        with pytest.raises(ValueError):
            EdgeAttr(kind="signal", tag="tout")


class TestGraphConstruction:
    def test_duplicate_node(self):
        g = FlowsheetGraph()
        g.add_node("v-1")
        with pytest.raises(GraphInvariantError):
            g.add_node("v-1")

    def test_ctrl_required_iff_controller(self):
        g = FlowsheetGraph()
        with pytest.raises(GraphInvariantError):
            g.add_node("C-1")
        with pytest.raises(GraphInvariantError):
            g.add_node("v-1", ctrl="FC")
        g.add_node("C-1", ctrl="FC")
        assert g.ctrl("C-1") == "FC"

    @pytest.mark.parametrize("ctrl", ["", "fc", "F}C", "FC\n", "F1", "\u00c9"])
    def test_ctrl_is_capital_ascii_letters(self, ctrl):
        # anything else encodes to a brace the parser cannot read back
        g = FlowsheetGraph()
        with pytest.raises(GraphInvariantError):
            g.add_node("C-1", ctrl=ctrl)
        assert g.nodes() == []
        doc = {"nodes": [{"name": "C-1", "ctrl": ctrl}], "edges": []}
        with pytest.raises(GraphInvariantError):
            load_json(doc)

    def test_has_node(self):
        # A node is found under its one name only: numbers have no
        # leading zeros, so no other spelling names it.
        g = FlowsheetGraph()
        g.add_node("raw-1")
        g.add_node("hex-2/1")
        assert g.has_node("raw-1") and g.has_node("hex-2/1")
        assert not any(map(g.has_node, ["raw-2", "raw-01", "hex-2", "hex-2/01", "hex-02/1"]))
        with pytest.raises(ValueError, match="not a node name: 'raw-01'"):
            g.add_node("raw-01")
        assert g.nodes() == ["raw-1", "hex-2/1"]

    def test_plain_and_sub_unit_conflict(self):
        g = FlowsheetGraph()
        g.add_node("hex-1/1")
        g.add_node("hex-1/2")
        with pytest.raises(GraphInvariantError):
            g.add_node("hex-1")
        g2 = FlowsheetGraph()
        g2.add_node("hex-1")
        with pytest.raises(GraphInvariantError):
            g2.add_node("hex-1/1")

    def test_edge_endpoints_must_exist(self):
        g = FlowsheetGraph()
        g.add_node("v-1")
        with pytest.raises(GraphInvariantError):
            g.add_edge("v-1", "prod-1")

    def test_no_self_loop(self):
        g = FlowsheetGraph()
        g.add_node("mix-1")
        with pytest.raises(GraphInvariantError):
            g.add_edge("mix-1", "mix-1")

    def test_no_duplicate_edge_same_kind(self):
        g = FlowsheetGraph()
        g.add_node("C-1", ctrl="FC")
        g.add_node("v-1")
        g.add_edge("C-1", "v-1")
        g.add_edge("C-1", "v-1", kind="signal")  # distinct kind is fine
        with pytest.raises(GraphInvariantError):
            g.add_edge("C-1", "v-1")

    def test_feed_and_product_direction(self):
        g = FlowsheetGraph()
        g.add_node("raw-1")
        g.add_node("prod-1")
        g.add_node("v-1")
        with pytest.raises(GraphInvariantError):
            g.add_edge("v-1", "raw-1")
        with pytest.raises(GraphInvariantError):
            g.add_edge("prod-1", "v-1")

    def test_parallel_edges_between_groups(self):
        # A condenser loop style pairing: two independent material paths.
        g = corpus.fixture("merged_exchanger_plant").make()
        assert g.material_out_degree("hex-1") == 3
        assert g.material_in_degree("hex-1") == 3

    def test_equipment_groups(self):
        g = corpus.fixture("multistream_exchanger_plant").make()
        groups = g.equipment_groups()
        assert groups[("hex", 1)] == ["hex-1/1", "hex-1/2", "hex-1/3"]

    def test_degree_queries_filter_by_kind(self):
        g = corpus.fixture("tank_level_control").make()
        assert g.material_out_degree("C-1") == 0
        assert [d for d, _ in g.out_edges("C-1", kind="signal")] == ["v-1"]

    def test_copy_is_independent(self):
        g = corpus.fixture("absorber").make()
        h = g.copy()
        h.add_node("v-9")
        assert "v-9" not in g.nodes()
        assert g == g.copy()

    def test_graph_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(FlowsheetGraph())

    def test_equality_covers_tags_and_ctrl(self):
        g = corpus.fixture("absorber").make()
        h = corpus.fixture("absorber").make()
        assert g == h
        h2 = corpus.build(
            ["raw-1", "raw-2", "abs-1", "prod-1", "prod-2"],
            [
                ("raw-1", "abs-1", {"tag": "tin"}),  # swapped inlet tags
                ("raw-2", "abs-1", {"tag": "bin"}),
                ("abs-1", "prod-1", {"tag": "tout"}),
                ("abs-1", "prod-2", {"tag": "bout"}),
            ],
        )
        assert g != h2


def _index_graphs() -> list[FlowsheetGraph]:
    plants = [genflow.random_flowsheet(random.Random(seed)) for seed in range(100)]
    return (
        [f.make() for f in corpus.FIXTURES]
        + plants
        + [genflow.renumber_randomly(g, random.Random(3)) for g in plants]
    )


def _edge_keys(pairs) -> list[tuple[str, str, str]]:
    return sorted((name, attr.kind, attr.tag or "") for name, attr in pairs)


class TestAdjacencyIndex:
    def test_queries_match_the_edge_list(self):
        for g in _index_graphs():
            edges = g.edges()
            for n in g.nodes():
                for kind in (None, MATERIAL, SIGNAL):
                    out = [(d, a) for s, d, a in edges if s == n and kind in (None, a.kind)]
                    inc = [(s, a) for s, d, a in edges if d == n and kind in (None, a.kind)]
                    assert _edge_keys(g.out_edges(n, kind)) == _edge_keys(out)
                    assert _edge_keys(g.in_edges(n, kind)) == _edge_keys(inc)
                assert g.material_out_degree(n) == len(g.out_edges(n, MATERIAL))
                assert g.material_in_degree(n) == len(g.in_edges(n, MATERIAL))

    def test_equipment_groups_match_the_node_list(self):
        for g in _index_graphs():
            want: dict[tuple[str, int], list[str]] = {}
            for n in g.nodes():
                want.setdefault(g.node_ref(n).equipment, []).append(n)
            for members in want.values():
                members.sort(key=lambda n: g.node_ref(n).sub or 0)
            assert g.equipment_groups() == want

    @pytest.mark.parametrize("order", ["shuffled", "descending"])
    def test_sub_units_stay_in_order_whatever_the_insertion_order(self, order):
        subs = list(range(1, 31))
        if order == "shuffled":
            random.Random(5).shuffle(subs)
        else:
            subs.reverse()
        g = FlowsheetGraph()
        g.add_node("hex-2")
        for i, sub in enumerate(subs):
            g.add_node(f"hex-1/{sub}")
            want = [f"hex-1/{s}" for s in sorted(subs[: i + 1])]
            assert g.equipment_groups()["hex", 1] == want
        assert g.equipment_groups()["hex", 2] == ["hex-2"]

    def test_edges_are_grouped_by_source(self):
        g = corpus.build(
            ["raw-1", "v-1", "v-2", "prod-1"],
            [("v-1", "v-2"), ("raw-1", "v-1"), ("v-2", "prod-1"), ("raw-1", "v-2")],
        )
        assert [(s, d) for s, d, _ in g.edges()] == [
            ("raw-1", "v-1"), ("raw-1", "v-2"), ("v-1", "v-2"), ("v-2", "prod-1"),
        ]

    def test_unknown_node_has_no_edges(self):
        g = corpus.fixture("absorber").make()
        assert g.out_edges("v-99") == [] and g.in_edges("v-99", MATERIAL) == []
        assert g.material_in_degree("v-99") == 0

    def test_edges_share_one_attribute_record_per_kind_and_tag(self):
        g = corpus.fixture("absorber").make()
        (_, a), = g.in_edges("prod-1")
        (_, b), = corpus.fixture("absorber").make().in_edges("prod-1")
        assert a is b

    # Each rejection with its exact exception type and message.  add_edge
    # checks the kind and tag first, then the source, then the target.
    @pytest.mark.parametrize(
        "mutate, exc, message",
        [
            (lambda g: g.add_edge("splt-1", "v-1"), GraphInvariantError,
             "duplicate material edge splt-1 -> v-1"),
            (lambda g: g.add_edge("C-1", "v-1", kind="signal"), GraphInvariantError,
             "duplicate signal edge C-1 -> v-1"),
            (lambda g: g.add_edge("v-1", "raw-1"), GraphInvariantError,
             "material edge into raw node raw-1"),
            (lambda g: g.add_edge("prod-1", "v-1"), GraphInvariantError,
             "material edge out of prod node prod-1"),
            (lambda g: g.add_edge("v-1", "v-1"), GraphInvariantError, "self loop on v-1"),
            (lambda g: g.add_edge("v-1", "v-9"), GraphInvariantError, "unknown node: v-9"),
            (lambda g: g.add_edge("v-8", "v-9"), GraphInvariantError, "unknown node: v-8"),
            (lambda g: g.add_edge("v-8", "v-8", kind="pipe"), ValueError,
             "bad edge kind: 'pipe'"),
            (lambda g: g.add_edge("v-1", "v-2", kind="pipe"), ValueError,
             "bad edge kind: 'pipe'"),
            (lambda g: g.add_node("hex-1"), GraphInvariantError,
             "cannot mix plain and sub-unit forms of hex-1"),
            (lambda g: g.add_node("hex-2/3"), GraphInvariantError,
             "cannot mix plain and sub-unit forms of hex-2"),
            (lambda g: g.add_node("hex-1/2"), GraphInvariantError, "duplicate node: hex-1/2"),
        ],
        ids=[
            "duplicate-material", "duplicate-signal", "into-raw", "out-of-prod",
            "self-loop", "unknown-node", "both-unknown", "bad-kind-before-unknown",
            "bad-kind", "plain-after-sub", "sub-after-plain", "duplicate-sub-unit",
        ],
    )
    def test_rejected_mutation_leaves_the_graph_unchanged(self, mutate, exc, message):
        g = corpus.build(
            ["raw-1", "splt-1", "v-1", "v-2", "hex-1/2", "hex-1/1", "hex-2", "prod-1",
             ("C-1", "FC")],
            [
                ("raw-1", "splt-1"), ("splt-1", "v-2"), ("splt-1", "v-1"), ("v-1", "hex-1/1"),
                ("hex-1/1", "prod-1"), ("v-2", "hex-1/2"), ("hex-1/2", "hex-2"),
                ("hex-2", "prod-1"), ("C-1", "v-1", {"kind": "signal"}),
            ],
        )
        before = (save_json(g), g.equipment_groups(), {n: g.in_edges(n) for n in g.nodes()})
        with pytest.raises(exc, match=f"^{re.escape(message)}$") as info:
            mutate(g)
        assert type(info.value) is exc
        assert (save_json(g), g.equipment_groups(), {n: g.in_edges(n) for n in g.nodes()}) == before


class TestJsonCodec:
    def test_save_is_deterministic_and_sorted(self):
        g = corpus.fixture("reactor_recycle_plant_tagged").make()
        blob = save_json(g)
        assert blob == save_json(g)
        doc = json.loads(blob)
        names = [n["name"] for n in doc["nodes"]]
        assert names == sorted(names)
        keys = [(e["src"], e["dst"], e["kind"]) for e in doc["edges"]]
        assert keys == sorted(keys)
        assert blob.endswith(b"\n")

    def test_roundtrip_through_json(self):
        for f in corpus.FIXTURES:
            g = f.make()
            doc = json.loads(save_json(g))
            assert load_json(doc) == g, f.key

    def test_committed_fixtures_are_current(self):
        # Regenerating any fixture file must reproduce it byte for byte.
        for f in corpus.FIXTURES:
            path = FIXDIR / f"{f.key}.json"
            if path.exists():
                assert path.read_bytes() == save_json(f.make()), f.key

    def test_load_reports_field_paths(self):
        with pytest.raises(SchemaError):
            load_json({"edges": []})
        with pytest.raises(SchemaError) as exc:
            load_json({"nodes": [{"name": "v-1"}], "edges": [{"src": "v-1"}]})
        assert "dst" in str(exc.value)

    def test_load_strict_rejects_unknown_keys(self):
        doc = {"nodes": [{"name": "v-1", "colour": "red"}], "edges": []}
        with pytest.raises(SchemaError):
            load_json(doc)
        warnings: list = []
        g = load_json(doc, strict=False, warnings=warnings)
        assert g.nodes() == ["v-1"]
        assert warnings

    def test_load_rejects_a_name_with_a_final_newline(self):
        with pytest.raises(SchemaError) as exc:
            load_json({"nodes": [{"name": "raw-1\n"}], "edges": []})
        assert exc.value.field == "nodes[0].name"

    def test_load_rejects_invariant_breakers(self):
        doc = {
            "nodes": [{"name": "prod-1"}, {"name": "v-1"}],
            "edges": [{"src": "prod-1", "dst": "v-1"}],
        }
        with pytest.raises(GraphInvariantError):
            load_json(doc)


_V = {"name": "v-1"}
_W = {"name": "v-2"}


def _int_error(digits: str) -> str:
    """The words of the ValueError that ``int`` raises past the digit limit,
    which differ between Python versions."""
    with pytest.raises(ValueError) as exc:
        int(digits)
    return str(exc.value)


# (document, message, field) for every SchemaError that load_json raises
SCHEMA_ERRORS = [
    ("[", "invalid JSON: Expecting value: line 1 column 2 (char 1)", None),
    (b"nodes", "invalid JSON: Expecting value: line 1 column 1 (char 0)", None),
    ("[]", "top level must be an object", None),
    ({"nodes": [], "edges": [], "zeta": 1, "meta": 2}, "unknown keys: ['meta', 'zeta']", "meta"),
    ({"edges": []}, "missing field: nodes", "nodes"),
    ({"nodes": [], "edges": {}}, "edges must be a list", "edges"),
    ({"nodes": ["v-1"], "edges": []}, "nodes[0] must be an object", "nodes[0]"),
    ({"nodes": [{"ctrl": None}], "edges": []}, "nodes[0].name must be a string", "nodes[0].name"),
    ({"nodes": [_V, {"name": 5}], "edges": []}, "nodes[1].name must be a string", "nodes[1].name"),
    (
        # A name spelled with a leading zero, and spelled so everywhere.
        {"nodes": [{"name": "raw-01"}, _V], "edges": [{"src": "raw-01", "dst": "v-1"}]},
        "nodes[0].name: not a node name: 'raw-01'",
        "nodes[0].name",
    ),
    (
        {"nodes": [_V, {"name": "hex-1/01"}], "edges": []},
        "nodes[1].name: not a node name: 'hex-1/01'",
        "nodes[1].name",
    ),
    (
        {"nodes": [{"name": "C-1", "ctrl": 5}], "edges": []},
        "nodes[0].ctrl must be a string or null",
        "nodes[0].ctrl",
    ),
    ({"nodes": [_V, _W], "edges": [["v-1", "v-2"]]}, "edges[0] must be an object", "edges[0]"),
    (
        {"nodes": [_V, _W], "edges": [{"src": "v-1", "dst": "v-2", "colour": "red"}]},
        "edges[0] has unknown keys: ['colour']",
        "edges[0]",
    ),
    (
        {"nodes": [_V, _W], "edges": [{"src": "v-1", "dst": 2}]},
        "edges[0].dst must be a string",
        "edges[0].dst",
    ),
    (
        {"nodes": [_V, _W], "edges": [{"src": "v-1", "dst": "v-2", "kind": "energy"}]},
        "edges[0].kind must be material or signal",
        "edges[0].kind",
    ),
    (
        {"nodes": [_V, _W], "edges": [{"src": "v-1", "dst": "v-2", "tag": "side"}]},
        "edges[0].tag must be one of ('bin', 'tin', 'bout', 'tout')",
        "edges[0].tag",
    ),
    (
        {
            "nodes": [{"name": "C-1", "ctrl": "FC"}, _V],
            "edges": [{"src": "C-1", "dst": "v-1", "kind": "signal", "tag": "bin"}],
        },
        "edges[0].tag: stream tags are only valid on material edges",
        "edges[0].tag",
    ),
    (
        b"\xff",
        "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        None,
    ),
    (
        "[" * 100000,
        "invalid JSON: maximum recursion depth exceeded while decoding a JSON array"
        " from a unicode string",
        None,
    ),
    (
        '{"nodes": [], "edges": [], "x": ' + "1" * 5000 + "}",
        "invalid JSON: " + _int_error("1" * 5000),
        None,
    ),
]


def _assert_writes_like_the_reference(g: FlowsheetGraph) -> None:
    assert save_json(g) == json_oracle.save_json(g)
    assert _json_line(g) == json_oracle.json_line(g)


_WRITER_CASES = {
    "empty": ([], []),
    "control-code": (["raw-1", "v-1", "prod-1", ("C-1", "FC")], [
        ("raw-1", "v-1"), ("v-1", "prod-1"), ("C-1", "v-1", {"kind": SIGNAL}),
    ]),
    "column-tags": (["raw-1", "raw-2", "dist-1", "prod-1", "prod-2"], [
        ("raw-1", "dist-1", {"tag": "bin"}), ("raw-2", "dist-1", {"tag": "tin"}),
        ("dist-1", "prod-1", {"tag": "bout"}), ("dist-1", "prod-2", {"tag": "tout"}),
    ]),
    "material-and-signal-on-one-pair": (["v-1", "v-2"], [
        ("v-1", "v-2", {"kind": SIGNAL}), ("v-1", "v-2"),
    ]),
    "both-directions": (["v-1", "v-2"], [("v-2", "v-1"), ("v-1", "v-2")]),
    "name-order": (["hex-2", "hex-10", "hex-1/2", "raw-1"], [
        ("hex-1/2", "hex-2"), ("hex-1/2", "hex-10"), ("raw-1", "hex-2"),
        ("raw-1", "hex-1/2"), ("hex-10", "hex-2"), ("hex-2", "hex-10"),
    ]),
}


class TestJsonWriter:
    """save_json and the compact decode line against the json.dumps reference."""

    @pytest.mark.parametrize("nodes, edges", _WRITER_CASES.values(), ids=list(_WRITER_CASES))
    def test_explicit_cases(self, nodes, edges):
        _assert_writes_like_the_reference(corpus.build(nodes, edges))

    def test_fixtures_and_corpus_graphs(self):
        graphs = [f.make() for f in corpus.FIXTURES]
        graphs += [corpus.without_signals(g) for g in graphs]
        graphs += [corpus.chain(30), corpus.trains(4, 3), corpus.exchanger_loop(8)]
        for g in graphs:
            _assert_writes_like_the_reference(g)


@pytest.mark.parametrize(
    "doc, message, field", SCHEMA_ERRORS, ids=[m for _d, m, _f in SCHEMA_ERRORS]
)
def test_schema_errors_are_pinned(doc, message, field):
    with pytest.raises(SchemaError) as exc:
        load_json(doc)
    assert (str(exc.value), exc.value.field) == (message, field)


@pytest.mark.parametrize(
    "doc, warning",
    [
        ({"nodes": [_V], "edges": [], "meta": 1}, "ignoring unknown keys: ['meta']"),
        (
            {"nodes": [_V, _W], "edges": [{"src": "v-1", "dst": "v-2", "colour": "red"}]},
            "edges[0]: ignoring unknown keys ['colour']",
        ),
    ],
)
def test_lenient_load_warns_on_unknown_keys(doc, warning):
    warnings: list[str] = []
    g = load_json(doc, strict=False, warnings=warnings)
    assert warnings == [warning]
    assert load_json(save_json(g)) == g
    load_json(doc, strict=False)  # no warnings list: the warning is dropped
