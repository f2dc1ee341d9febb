"""String emission: every guaranteed rendering of the corpus plus limits."""

import random

import pytest

import corpus
import genflow
from sfiles2 import EncodeError, FlowsheetGraph, encode, parse_sfiles, roundtrip_check
from sfiles2.canon import _Index
from sfiles2.encode import _walk


@pytest.mark.parametrize("key", [f.key for f in corpus.FIXTURES])
def test_generalized(key):
    f = corpus.fixture(key)
    assert str(encode(f.make())) == f.generalized


@pytest.mark.parametrize("key", [f.key for f in corpus.FIXTURES if f.numbered])
def test_numbered(key):
    f = corpus.fixture(key)
    assert str(encode(f.make(), mode="numbered")) == f.numbered


@pytest.mark.parametrize(
    "key", [f.key for f in corpus.FIXTURES if f.legacy_generalized]
)
def test_legacy_generalized(key):
    f = corpus.fixture(key)
    got = encode(f.make(), legacy_converging=True)
    assert str(got) == f.legacy_generalized


@pytest.mark.parametrize("key", [f.key for f in corpus.FIXTURES if f.legacy_numbered])
def test_legacy_numbered(key):
    f = corpus.fixture(key)
    got = encode(f.make(), mode="numbered", legacy_converging=True)
    assert str(got) == f.legacy_numbered


def test_result_remembers_its_mode():
    g = corpus.fixture("absorber").make()
    assert encode(g).mode == "generalized"
    assert encode(g, mode="numbered").mode == "numbered"
    assert isinstance(encode(g), str)


def test_rejects_unknown_mode():
    g = corpus.fixture("absorber").make()
    with pytest.raises(ValueError):
        encode(g, mode="fancy")


def test_empty_graph_encodes_to_empty_string():
    assert str(encode(FlowsheetGraph())) == ""


def test_isolated_node():
    g = FlowsheetGraph()
    g.add_node("tank-1")
    assert str(encode(g)) == "(tank)"


def test_legacy_cannot_express_tagged_feeder():
    # The old notation has no place for a column tag on a reversed
    # feeder chain, so the absorber must refuse rather than drop it.
    g = corpus.fixture("absorber").make()
    with pytest.raises(EncodeError, match="^legacy converging notation cannot express stream tags$"):
        encode(g, legacy_converging=True)


def test_legacy_cannot_express_branched_feeder():
    g = corpus.fixture("nested_converging_plant").make()
    with pytest.raises(
        EncodeError,
        match="^legacy converging notation cannot express marks inside an inserted branch$",
    ):
        encode(g, legacy_converging=True)


# (canonical string with one converging branch, why the legacy notation
# cannot write that branch as a reversed chain).  Marks inside the
# branch, a tagged converging edge and a feed that is not at the end of
# the branch have tests of their own.
_LEGACY_REFUSALS = {
    "nested-branching": (
        "(raw)(v)(v)(v)(v)(v)(mix)<&|(raw)(splt)[(prod)](pp)&|(prod)",
        "cannot express nested branching",
    ),
    "chain-edge-tag": (
        "(raw)(v)(v)(v)(v)(v)(mix)<&|(raw){tin}(dist){tout}(pp)&|(prod)",
        "cannot express stream tags",
    ),
    # A tagged converging edge that also leaves the branch before its
    # end: the tag is reported, not the feed.
    "tag-and-feed-not-at-the-end": (
        "(raw)(v)(v)(v)(v)(dist)<&|(raw)(pp){bin}&(pp)(pp)|[{tout}(prod)]{bout}(prod)",
        "cannot express stream tags",
    ),
}


@pytest.mark.parametrize("text, why", _LEGACY_REFUSALS.values(), ids=list(_LEGACY_REFUSALS))
def test_legacy_refusals_are_pinned(text, why):
    g = parse_sfiles(text)
    assert str(encode(g)) == text
    for mode in ("generalized", "numbered"):
        with pytest.raises(EncodeError, match=f"^legacy converging notation {why}$"):
            encode(g, mode, legacy_converging=True)


def test_legacy_needs_the_feed_at_the_end_of_the_branch():
    # raw-2 feeds mix-1 and also runs on through v-1 to prod-2, so the
    # converging branch goes on past the feed: a reversed chain cannot
    g = FlowsheetGraph()
    for name in ("raw-1", "mix-1", "prod-1", "raw-2", "v-1", "prod-2"):
        g.add_node(name)
    for src, dst in [
        ("raw-1", "mix-1"),
        ("mix-1", "prod-1"),
        ("raw-2", "v-1"),
        ("v-1", "prod-2"),
        ("raw-2", "mix-1"),
    ]:
        g.add_edge(src, dst)
    assert str(encode(g)) == "(raw)(mix)<&|(raw)&(v)(prod)|(prod)"
    with pytest.raises(EncodeError, match="requires the feed at the end of the branch"):
        encode(g, legacy_converging=True)


def _two_way_pipes(pairs: int, graph: FlowsheetGraph | None = None) -> FlowsheetGraph:
    # Pipes in a line with a reverse edge alongside every forward one:
    # each pair is one recycle.
    g = graph if graph is not None else FlowsheetGraph()
    for i in range(1, pairs + 2):
        g.add_node(f"pipe-{i}")
    for i in range(1, pairs + 1):
        g.add_edge(f"pipe-{i}", f"pipe-{i + 1}")
        g.add_edge(f"pipe-{i + 1}", f"pipe-{i}")
    return g


def test_recycle_id_overflow():
    overflow = "^more than 99 recycle connections in one string$"
    g = _two_way_pipes(99)
    assert "%99" in str(encode(g)) and "%99" in str(encode(g, mode="numbered"))
    assert roundtrip_check(g).ok
    g = _two_way_pipes(100)  # one past the two digit ceiling
    for mode in ("generalized", "numbered"):
        with pytest.raises(EncodeError, match=overflow):
            encode(g, mode=mode)
    with pytest.raises(EncodeError, match=overflow):
        roundtrip_check(g)
    # The absorber's tagged converging branch cannot be written in the
    # legacy notation; that is reported even though the pipes, written
    # first, also overflow the recycle ids.
    g = _two_way_pipes(100, corpus.fixture("absorber").make())
    with pytest.raises(EncodeError, match="^legacy converging notation cannot express stream tags$"):
        encode(g, legacy_converging=True)
    with pytest.raises(EncodeError, match=overflow):
        encode(g)


def test_two_digit_recycle_ids_use_percent():
    g = FlowsheetGraph()
    n = 12
    for i in range(1, n + 1):
        g.add_node(f"pipe-{i}")
    for i in range(1, n):
        g.add_edge(f"pipe-{i}", f"pipe-{i + 1}")
        g.add_edge(f"pipe-{i + 1}", f"pipe-{i}")
    s = str(encode(g))
    assert "%10" in s and "<%10" in s
    assert "%9" not in s  # single digit ids stay bare
    assert parse_sfiles(str(encode(g, mode="numbered"))) == g


def test_signal_ids_are_plain_numbers():
    g = FlowsheetGraph()
    g.add_node("raw-1")
    g.add_node("tank-1")
    g.add_node("prod-1")
    g.add_edge("raw-1", "tank-1")
    g.add_edge("tank-1", "prod-1")
    ctrl_count = 11
    prev = None
    for i in range(1, ctrl_count + 1):
        g.add_node(f"C-{i}", ctrl="FC")
        g.add_edge("tank-1", f"C-{i}")
        if prev:
            g.add_edge(prev, f"C-{i}", kind="signal")
        prev = f"C-{i}"
    s = str(encode(g))
    assert "_10" in s
    assert "%" not in s


def test_signal_ids_follow_the_out_marks():
    # The in-marks come first in the text, in the order <_2 then <_1: signal
    # ids are numbered along the out-marks, not by first appearance.
    g = corpus.build(
        ["raw-1", "hex-1", "v-1", "prod-1", "raw-2", "v-2", "prod-2"]
        + [("C-1", "FC"), ("C-2", "AC")],
        [
            ("raw-1", "hex-1"), ("hex-1", "v-1"), ("v-1", "prod-1"),
            ("raw-2", "v-2"), ("v-2", "prod-2"),
            ("C-1", "v-1", {"kind": "signal"}), ("C-2", "v-2", {"kind": "signal"}),
        ],
    )
    want = "(raw)(hex)(v)<_2(prod)n|(raw)(v)<_1(prod)n|(C){AC}_1n|(C){FC}_2"
    assert str(encode(g)) == want
    rng = random.Random(3)
    for _ in range(20):
        assert str(encode(genflow.renumber_randomly(g, rng))) == want
    assert roundtrip_check(g).ok
    assert str(encode(parse_sfiles(want))) == want


def test_group_braces_only_for_real_groups():
    lone = corpus.build(
        ["raw-1", "hex-1/1", "prod-1"],
        [("raw-1", "hex-1/1"), ("hex-1/1", "prod-1")],
    )
    # A single sub unit is still an ungrouped exchanger on the page.
    assert str(encode(lone)) == "(raw)(hex)(prod)"
    grouped = corpus.fixture("multistream_exchanger_plant").make()
    assert str(encode(grouped)).count("{1}") == 3


def test_group_ids_assigned_in_emission_order():
    g = corpus.build(
        ["raw-1", "hex-2/1", "hex-1/1", "prod-1", "raw-2", "hex-2/2", "hex-1/2", "prod-2"],
        [
            ("raw-1", "hex-2/1"),
            ("hex-2/1", "hex-1/1"),
            ("hex-1/1", "prod-1"),
            ("raw-2", "hex-2/2"),
            ("hex-2/2", "hex-1/2"),
            ("hex-1/2", "prod-2"),
        ],
    )
    s = str(encode(g, mode="numbered"))
    # Whichever group appears first in the string takes brace id 1.
    first = s.index("{1}")
    second = s.index("{2}")
    assert first < second


def test_train_separator_between_components():
    g = corpus.fixture("refrigeration_cycle").make()
    s = str(encode(g))
    assert s.count("n|") == 1
    left, right = s.split("n|")
    assert left.startswith("(raw)")
    assert right.startswith("(hex)")


_SIGNAL = {"kind": "signal"}


@pytest.mark.parametrize(
    "graph, expected",
    [
        (
            corpus.build(
                ["raw-1", "v-1", "prod-1", "raw-2", "v-2", "prod-2"],
                [("raw-1", "v-1"), ("v-1", "prod-1"), ("raw-1", "prod-1", _SIGNAL)]
                + [("raw-2", "v-2"), ("v-2", "prod-2")],
            ),
            "(raw)(v)(prod)n|(raw)_1(v)(prod)<_1",
        ),
        (
            corpus.build(
                ["raw-1", "hex-1/1", "hex-2/1", "prod-1", "raw-2", "hex-3/1", "hex-3/2", "prod-2"]
                + ["raw-3", "hex-1/2", "hex-2/2", "pp-1", "prod-3"],
                [("raw-1", "hex-1/1"), ("hex-1/1", "hex-2/1"), ("hex-2/1", "prod-1")]
                + [("raw-2", "hex-3/1"), ("hex-3/1", "hex-3/2"), ("hex-3/2", "prod-2")]
                + [("raw-3", "hex-1/2"), ("hex-1/2", "hex-2/2"), ("hex-2/2", "pp-1")]
                + [("pp-1", "prod-3")],
            ),
            "(raw)(hex){1}(hex){2}(pp)(prod)n|(raw)(hex){3}(hex){3}(prod)n|"
            "(raw)(hex){1}(hex){2}(prod)",
        ),
        (
            corpus.build(
                ["raw-1", "v-1", "prod-1", ("C-1", "LC"), "raw-2", "v-2", "prod-2", ("C-2", "FC")],
                [("raw-1", "v-1"), ("v-1", "prod-1"), ("v-1", "C-1")]
                + [("raw-2", "v-2"), ("v-2", "prod-2"), ("v-2", "C-2")],
            ),
            "(raw)(v)[(C){FC}](prod)n|(raw)(v)[(C){LC}](prod)",
        ),
        (
            corpus.build(
                ["raw-1", "dist-1", "prod-1", "raw-2", "dist-2", "prod-2"],
                [("raw-1", "dist-1"), ("dist-1", "prod-1", {"tag": "tout"})]
                + [("raw-2", "dist-2"), ("dist-2", "prod-2", {"tag": "bout"})],
            ),
            "(raw)(dist){bout}(prod)n|(raw)(dist){tout}(prod)",
        ),
    ],
    ids=["signal_inside", "shells", "control_code", "tag"],
)
def test_equal_sizes_that_differ_in_one_detail_key_apart(graph, expected):
    # The first component is keyed first.  Were the shape of the second
    # taken for the first's, their strings would tie and names would order them.
    assert str(encode(graph)) == expected


_RING = ["hex-1", "hex-2", "hex-3", "hex-4"]


@pytest.mark.parametrize(
    "graph, walks",
    [
        (corpus.build(["tank-1"], []), [["tank-1"]]),
        (
            corpus.build(["raw-1", "v-1", "prod-1"], [("raw-1", "v-1"), ("v-1", "prod-1")]),
            [["raw-1", "v-1", "prod-1"]],
        ),
        (
            corpus.build(
                ["raw-1", "v-1", "r-1", "pp-1"],
                [("raw-1", "v-1"), ("v-1", "r-1"), ("r-1", "pp-1"), ("pp-1", "r-1")],
            ),
            [["raw-1", "v-1", "r-1", "pp-1"]],
        ),
        (
            corpus.build(
                ["tank-1", "pp-1", "v-1"], [("tank-1", "pp-1"), ("pp-1", "v-1"), ("v-1", "tank-1")]
            ),
            [None],
        ),
        (corpus.build(_RING, list(zip(_RING, _RING[1:] + _RING[:1]))), [None]),
        (
            corpus.build(
                ["raw-1", "raw-2", "mix-1", "prod-1"],
                [("raw-1", "mix-1"), ("raw-2", "mix-1"), ("mix-1", "prod-1")],
            ),
            [None],
        ),
        (
            corpus.build(
                ["raw-1", "splt-1", "prod-1", "prod-2"],
                [("raw-1", "splt-1"), ("splt-1", "prod-1"), ("splt-1", "prod-2")],
            ),
            [None],
        ),
        (
            corpus.build(
                ["raw-1", "v-1", "prod-1", ("C-1", "FC")],
                [("raw-1", "v-1"), ("v-1", "prod-1"), ("C-1", "v-1", _SIGNAL)],
            ),
            [None, None],
        ),
        (
            corpus.build(
                ["raw-1", "v-1", "prod-1", "raw-2", "v-2", "prod-2"],
                [("raw-1", "v-1"), ("v-1", "prod-1"), ("raw-2", "v-2"), ("v-2", "prod-2")]
                + [("prod-1", "raw-2", _SIGNAL)],
            ),
            [None, None],
        ),
    ],
    ids=[
        "isolated_unit", "pipe", "recycle_into_the_middle", "recycle_into_the_feed",
        "exchanger_ring", "two_feeds", "two_outlets", "controller", "signal_between_trains",
    ],
)
def test_walk(graph, walks):
    # A component is walked only when it is a path from its one feed
    # with no branch and no signal, whatever order its units come in.
    ix = _Index(graph)
    for comp, walk in zip(ix.components(), walks, strict=True):
        for units in (comp, comp[::-1]):
            got = _walk(ix, units)
            assert (got and [ix.names[i] for i in got]) == walk


def test_long_chain_encodes_without_recursion_limit():
    g = corpus.chain(2000)
    s = encode(g)
    assert s == "(raw)" + "(pp)" * 2000 + "(prod)"
    assert parse_sfiles(s) == g


def test_encoding_reads_no_neighbour_query(monkeypatch):
    # Encoding takes one snapshot of the graph and reads only that.
    def forbidden(*args, **kwargs):
        raise AssertionError("neighbour query during encoding")

    for name in ("out_edges", "in_edges", "material_in_degree", "material_out_degree"):
        monkeypatch.setattr(FlowsheetGraph, name, forbidden)
    for f in corpus.FIXTURES:
        g = f.make()
        assert str(encode(g)) == f.generalized
        encode(g, mode="numbered")
        for mode in ("generalized", "numbered"):
            try:
                encode(g, mode, legacy_converging=True)
            except EncodeError:
                pass
        assert roundtrip_check(g).ok
