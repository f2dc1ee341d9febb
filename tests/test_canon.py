"""Ranking: Morgan refinement, tie-breaking, component ordering."""

import importlib
import random
from collections import Counter

import pytest

import canon_oracle
import corpus
import genflow
from canon_oracle import morgan_state
from sfiles2 import FlowsheetGraph, canon, encode, rank_graph
from sfiles2.canon import _Index, _reach_counts, _refine, rank_component

# The package's ``encode`` is the function; the module is needed here.
encode_module = importlib.import_module("sfiles2.encode")


class TestMorgan:
    def test_single_node(self):
        g = FlowsheetGraph()
        g.add_node("v-1")
        state = morgan_state(g)
        assert state.value == {"v-1": 1}
        assert state.val_set == 1

    def test_no_units(self):
        # No unit gives no value, as in the reference copy.
        state = morgan_state(corpus.chain(3), [])
        assert (state.value, state.val_set, state.iteration) == ({}, 0, 0)
        assert morgan_state(FlowsheetGraph()).val_set == 0

    def test_symmetric_chain_keeps_siblings_equal(self):
        g = corpus.build(
            ["raw-1", "mix-1", "raw-2", "prod-1"],
            [("raw-1", "mix-1"), ("raw-2", "mix-1"), ("mix-1", "prod-1")],
        )
        state = morgan_state(g)
        # The two feeds see identical surroundings and must share a class;
        # the center splits away from the leaves.
        assert state.value["raw-1"] == state.value["raw-2"]
        assert state.value["raw-1"] != state.value["mix-1"]

    def test_stops_early_when_fully_discriminated(self):
        # Parallel pair v/hex plus a product draw: three distinct
        # neighborhoods, resolved on the first sweep.
        g = corpus.build(
            ["v-1", "hex-1", "prod-1"],
            [("v-1", "hex-1"), ("hex-1", "v-1"), ("hex-1", "prod-1")],
        )
        state = morgan_state(g)
        assert state.val_set == 3
        assert state.iteration == 1

    def test_returns_peak_not_converged_values(self):
        # On the reference recycle plant the refinement peaks at nine
        # distinct values and later collapses; the snapshot must be the
        # first iteration at the peak, where the valve still scores
        # below the column and the reactor.
        g = corpus.fixture("reactor_recycle_plant").make()
        state = morgan_state(g)
        assert state.val_set == 9
        v = state.value
        assert v["v-1"] < v["dist-1"] < v["r-1"] < v["splt-1"] < v["mix-1"]

    def test_parallel_edges_count_twice(self):
        straight = corpus.build(
            ["v-1", "hex-1", "v-2", "hex-2"],
            [("v-1", "hex-1"), ("hex-1", "v-2"), ("v-2", "hex-2")],
        )
        doubled = corpus.build(
            ["v-1", "hex-1", "v-2", "hex-2"],
            [
                ("v-1", "hex-1"),
                ("hex-1", "v-1"),  # forms a parallel pair with the first
                ("hex-1", "v-2"),
                ("v-2", "hex-2"),
            ],
        )
        s1 = morgan_state(straight)
        s2 = morgan_state(doubled)
        assert s1.value["v-1"] != s2.value["v-1"]

    def test_signals_are_invisible_to_refinement(self):
        g = corpus.fixture("tank_level_control").make()
        bare = corpus.without_signals(g)
        assert morgan_state(g, g.nodes()).value == morgan_state(bare, bare.nodes()).value

    def test_classes_group_by_value(self):
        g = corpus.build(
            ["raw-1", "mix-1", "raw-2", "prod-1"],
            [("raw-1", "mix-1"), ("raw-2", "mix-1"), ("mix-1", "prod-1")],
        )
        classes = morgan_state(g).classes()
        assert classes == [["prod-1", "raw-1", "raw-2"], ["mix-1"]]


class TestRankTables:
    @pytest.mark.parametrize(
        "key", [f.key for f in corpus.FIXTURES if f.ranks is not None]
    )
    def test_pinned_ranks(self, key):
        f = corpus.fixture(key)
        assert rank_graph(f.make()).rank == f.ranks

    def test_controllers_outrank_everything(self):
        g = corpus.fixture("tank_level_control").make()
        table = rank_graph(g)
        assert table.rank["C-1"] == 1

    def test_products_before_feeds_within_a_class(self):
        g = corpus.fixture("absorber").make()
        r = rank_graph(g).rank
        assert r["prod-1"] < r["raw-1"]
        assert r["prod-2"] < r["raw-2"]

    def test_feed_with_longer_reach_ranks_first(self):
        r = corpus.fixture("reactor_recycle_plant").ranks
        # raw-1 reaches the whole plant, raw-2 reaches one unit fewer.
        assert r["raw-1"] < r["raw-2"]

    def test_deep_structure_beats_numbering(self):
        # The two feeds agree on category, reach, and immediate
        # neighborhood; only the third unit down the chain differs.
        # Which chain becomes the trunk must follow that structure, not
        # whichever raw happens to carry the lower number.
        def plant(reactor_feed_first: bool):
            mid = [("r-1", "pp-1"), ("pp-1", "r-1")][reactor_feed_first]
            return corpus.build(
                ["raw-1", "v-1", mid[1], "raw-2", "v-2", mid[0], "mix-1", "hex-1", "prod-1"],
                [
                    ("raw-1", "v-1"),
                    ("v-1", mid[1]),
                    (mid[1], "mix-1"),
                    ("raw-2", "v-2"),
                    ("v-2", mid[0]),
                    (mid[0], "mix-1"),
                    ("mix-1", "hex-1"),
                    ("hex-1", "prod-1"),
                ],
            )

        a = plant(True)
        b = plant(False)
        assert str(encode(a)) == str(encode(b))

    def test_numbering_is_the_final_tiebreak(self):
        g = corpus.build(
            ["raw-1", "mix-1", "raw-2", "prod-1"],
            [("raw-1", "mix-1"), ("raw-2", "mix-1"), ("mix-1", "prod-1")],
        )
        r = rank_graph(g).rank
        assert r["raw-1"] < r["raw-2"]
        # Renaming the feeds swaps their ranks with it.
        g2 = corpus.build(
            ["raw-7", "mix-1", "raw-2", "prod-1"],
            [("raw-7", "mix-1"), ("raw-2", "mix-1"), ("mix-1", "prod-1")],
        )
        r2 = rank_graph(g2).rank
        assert r2["raw-2"] < r2["raw-7"]


class TestComponents:
    def test_larger_component_first(self):
        table = rank_graph(corpus.fixture("multistream_exchanger_plant").make())
        sizes = [len(c) for c in table.subgraph_order]
        assert sizes == sorted(sizes, reverse=True)
        assert "dist-1" in table.subgraph_order[0]

    def test_equal_components_ordered_by_string(self):
        g = corpus.build(
            ["raw-2", "prod-2", "raw-1", "prod-1"],
            [("raw-2", "prod-2"), ("raw-1", "prod-1")],
        )
        table = rank_graph(g)
        # Identical shapes fall through to the numbered string, which
        # puts the lower numbered train first.  Lists are in rank order
        # and products outrank feeds.
        assert table.subgraph_order[0] == ["prod-1", "raw-1"]
        assert table.subgraph_order[1] == ["prod-2", "raw-2"]

    def test_ranks_restart_per_component(self):
        table = rank_graph(corpus.fixture("refrigeration_cycle").make())
        for comp in table.subgraph_order:
            assert sorted(table.rank[n] for n in comp) == list(range(1, len(comp) + 1))

    def test_pure_cycle_component_is_ranked(self):
        g = corpus.build(
            ["hex-1", "comp-1", "v-1"],
            [("hex-1", "comp-1"), ("comp-1", "v-1"), ("v-1", "hex-1")],
        )
        table = rank_graph(g)
        assert sorted(table.rank.values()) == [1, 2, 3]


def _plants(count: int) -> list[FlowsheetGraph]:
    plants = [genflow.random_flowsheet(random.Random(seed)) for seed in range(count)]
    return plants + [genflow.renumber_randomly(g, random.Random(7)) for g in plants]


def _isolated_units() -> list[FlowsheetGraph]:
    """Graphs holding several units without a material edge: controllers
    tied to the plant by signals only, and unconnected units."""
    def signals(*pairs):
        return [(a, b, {"kind": "signal"}) for a, b in pairs]

    loop = corpus.build(
        ["raw-1", "v-1", "hex-1", "prod-1", ("C-1", "FC"), ("C-2", "TC"), ("C-3", "PC"), "tank-1"],
        [("raw-1", "v-1"), ("v-1", "hex-1"), ("hex-1", "prod-1")]
        + signals(("C-1", "v-1"), ("hex-1", "C-2"), ("C-2", "C-3")),
    )
    only_signals = corpus.build(
        [("C-1", "FC"), ("C-2", "FC"), ("C-3", "LC"), "tank-1", "tank-2"],
        signals(("C-1", "C-2"), ("C-2", "C-3"), ("C-3", "tank-1")),
    )
    graphs = [loop, only_signals]
    rng = random.Random(23)
    for seed in range(40):
        g = genflow.random_flowsheet(random.Random(seed))
        units = g.nodes()
        for k in range(1, rng.randint(2, 4) + 1):
            g.add_node(f"C-{90 + k}", ctrl=rng.choice(["FC", "TC", "LC"]))
            g.add_edge(f"C-{90 + k}", rng.choice(units), kind="signal")
        g.add_node("tank-99")
        graphs.append(g)
    return graphs


ORACLE_FAMILIES = {
    "corpus": lambda: [f.make() for f in corpus.FIXTURES],
    "genflow": lambda: _plants(150),
    "isolated_units": _isolated_units,
    "chains": lambda: [corpus.chain(n) for n in (0, 1, 2, 5, 50, 201)],
    "trains": lambda: [corpus.trains(k, u) for k in (2, 5, 40) for u in (1, 3)],
    "exchanger_loops": lambda: [corpus.exchanger_loop(n) for n in (4, 8, 16, 64)],
    "shapes": lambda: [
        corpus.controlled_trains(),
        corpus.half_controlled_trains(),
        corpus.lollipop(),
        corpus.shell_trains(),
    ],
}


def assert_snapshot_matches_the_reference(g: FlowsheetGraph) -> None:
    """Every slot of ``_Index`` equals the reference snapshot's, as built
    and after ranking every component fills in the lazy ones."""
    ix, ref = _Index(g), canon_oracle._Index(g)

    def slots(snapshot):
        return {slot: getattr(snapshot, slot) for slot in _Index.__slots__}

    assert slots(ix) == slots(ref)
    for comp in ref.components():
        assert rank_component(ix, comp) == rank_component(ref, comp)
    assert slots(ix) == slots(ref)


class TestAgainstReference:
    """The fast ranking stages return exactly what the first versions did."""

    def test_snapshot_has_the_reference_slots(self):
        assert _Index.__slots__ == canon_oracle._Index.__slots__

    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    def test_snapshot(self, family):
        graphs = ORACLE_FAMILIES[family]()
        rng = random.Random(31)
        for g in graphs + [genflow.renumber_randomly(g, rng) for g in graphs]:
            assert_snapshot_matches_the_reference(g)

    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    def test_refinement_colors(self, family):
        for g in ORACLE_FAMILIES[family]():
            ix = _Index(g)
            assert dict(zip(ix.names, _refine(ix))) == canon_oracle._refine_colors(g)

    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    def test_reach_counts(self, family):
        for g in ORACLE_FAMILIES[family]():
            want = {n: canon_oracle._successor_count(g, n) for n in g.nodes()}
            ix = _Index(g)
            assert dict(zip(ix.names, _reach_counts(ix))) == want

    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    def test_descriptors_sort_like_the_reference_keys(self, family):
        # Packed descriptors compare pairwise as the tuple keys do, so
        # sorting by either gives one order and the same equal runs.
        graphs = ORACLE_FAMILIES[family]()
        rng = random.Random(29)
        for g in graphs + [genflow.renumber_randomly(g, rng) for g in graphs]:
            ix = _Index(g)
            ix.cat_ranks = canon._category_ranks(ix)
            got = [canon._descriptor(ix, i) for i in range(len(ix.names))]
            want = [canon_oracle._step3_key(g, n) for n in ix.names]
            pairs = [(a < b, a == b) for a in got for b in got]
            assert pairs == [(a < b, a == b) for a in want for b in want]

    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    def test_morgan_values(self, family):
        graphs = ORACLE_FAMILIES[family]()
        rng = random.Random(13)
        for g in graphs + [genflow.renumber_randomly(g, rng) for g in graphs]:
            assert morgan_state(g) == canon_oracle.morgan_iterate(g)
            for comp in canon_oracle._components(g):
                assert morgan_state(g, comp) == canon_oracle.morgan_iterate(g, comp)

    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    def test_morgan_values_on_node_subsets(self, family):
        # Every other unit isolates each one, a prefix splits a chain, and
        # random subsets mix isolated units with connected ones.
        rng = random.Random(19)
        for g in ORACLE_FAMILIES[family]():
            names = g.nodes()
            picked = rng.sample(names, rng.randint(0, len(names)))
            for nodes in (names[::2], names[: len(names) // 2 or 1], picked):
                assert morgan_state(g, nodes) == canon_oracle.morgan_iterate(g, nodes)

    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    def test_rank_order(self, family):
        graphs = ORACLE_FAMILIES[family]()
        rng = random.Random(11)
        for g in graphs + [genflow.renumber_randomly(g, rng) for g in graphs]:
            ix = _Index(g)
            got = [[ix.names[i] for i in rank_component(ix, c)] for c in ix.components()]
            assert got == canon_oracle.rank_components(g)

    @pytest.mark.parametrize(
        "g",
        [
            # Equal neighbor counts in component order, other adjacencies.
            corpus.build(
                ["r-1", "hex-2", "v-3", "hex-4", "hex-5"]
                + ["r-11", "hex-12", "hex-13", "hex-14", "r-15"],
                [("r-1", "hex-2"), ("v-3", "r-1"), ("hex-4", "hex-2"), ("hex-5", "hex-2")]
                + [("hex-5", "r-1"), ("r-11", "hex-12"), ("hex-12", "hex-14")]
                + [("hex-12", "r-11"), ("hex-13", "r-11"), ("hex-13", "r-15")],
            ),
            # Equal neighbor sets, but one pair is joined both ways.
            corpus.build(
                ["raw-1", "v-1", "pp-1", "hex-1", "prod-1", "raw-2", "v-2", "pp-2", "hex-2"]
                + ["prod-2"],
                [("raw-1", "v-1"), ("v-1", "pp-1"), ("pp-1", "hex-1"), ("hex-1", "pp-1")]
                + [("hex-1", "prod-1"), ("raw-2", "v-2"), ("v-2", "pp-2"), ("pp-2", "hex-2")]
                + [("hex-2", "prod-2")],
            ),
        ],
        ids=["degrees", "multiplicity"],
    )
    def test_equal_sizes_keep_their_own_morgan_values(self, g):
        # Equally sized components that differ only in their material
        # adjacencies each get their own Morgan values.
        ix = _Index(g)
        got = [[ix.names[i] for i in rank_component(ix, c)] for c in ix.components()]
        assert got == canon_oracle.rank_components(g)


class TestSnapshot:
    """``_Index`` holds every edge once at each end, under its kind, with its tag."""

    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    def test_edges_split_by_kind(self, family):
        graphs = ORACLE_FAMILIES[family]()
        rng = random.Random(17)
        for g in graphs + [genflow.renumber_randomly(g, rng) for g in graphs]:
            ix = _Index(g)
            name = ix.names
            ends = Counter()
            for i, edges in enumerate(ix.mat_out):
                ends.update(("out", name[i], name[j], "material", tag) for j, tag in edges)
            for i, edges in enumerate(ix.mat_in):
                ends.update(("in", name[j], name[i], "material", tag) for j, tag in edges)
            for i, peers in enumerate(ix.sig_out):
                ends.update(("out", name[i], name[j], "signal", None) for j in peers)
            for i, peers in enumerate(ix.sig_in):
                ends.update(("in", name[j], name[i], "signal", None) for j in peers)
            edges = g.edges()
            assert ends == Counter(
                (end, src, dst, attr.kind, attr.tag) for src, dst, attr in edges for end in ("out", "in")
            )
            assert set(ends.values()) <= {1}
            # Out-lists keep the graph's edge order, which planning relies on.
            assert [(name[i], name[j]) for i, out in enumerate(ix.mat_out) for j, _tag in out] == [
                (src, dst) for src, dst, attr in edges if attr.kind == "material"
            ]
            # The neighbour table holds the far end of every material edge.
            assert [Counter(nbrs) for nbrs in ix.nbrs] == [
                Counter(j for j, _tag in out + inc) for out, inc in zip(ix.mat_out, ix.mat_in)
            ]
            assert ix.cats == [g.node_ref(n).category for n in name]


def _count_calls(monkeypatch, module, name) -> list[int]:
    calls = [0]
    original = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


# The only tied Morgan class holds the two products (the peak is round 4).
_TIED_PRODUCTS = corpus.build(
    ["raw-1", "v-1", "hex-1", "splt-1", "prod-1", "prod-2"],
    [("raw-1", "v-1"), ("v-1", "hex-1"), ("hex-1", "splt-1")]
    + [("splt-1", n) for n in ("prod-1", "prod-2")],
)
# The only tied Morgan class holds the product and both controllers.
_TIED_CONTROLLERS = corpus.build(
    ["raw-1", "v-1", "hex-1", "splt-1", ("C-1", "FC"), ("C-2", "FC"), "prod-1"],
    [("raw-1", "v-1"), ("v-1", "hex-1"), ("hex-1", "splt-1")]
    + [("splt-1", n) for n in ("C-1", "C-2", "prod-1")],
)
# Two feeds, and the product, tie.
_TIED_FEEDS = corpus.build(
    ["raw-1", "mix-1", "raw-2", "prod-1"],
    [("raw-1", "mix-1"), ("raw-2", "mix-1"), ("mix-1", "prod-1")],
)


# (graph, its ``morgan_iterate``, ``break_ties``, ``_reach_counts`` and ``_refine``
# calls in ``rank_graph``, and in encoding it in both modes).  Encoding
# ranks no forced component: one feed, no branch and no signal.  Every
# other component is ranked once per encoding, with one Morgan run.
_RANKING_CALLS = [
    (corpus.chain(50), (1, 1, 1, 0), (0, 0, 0, 0)),
    (corpus.trains(5, 3), (5, 5, 1, 0), (0, 0, 0, 0)),
    (corpus.build(["v-1"], []), (1, 1, 0, 0), (0, 0, 0, 0)),
    (corpus.lollipop(), (1, 1, 1, 0), (0, 0, 0, 0)),
    (corpus.shell_trains(), (4, 4, 1, 0), (0, 0, 0, 0)),
    (corpus.exchanger_loop(8), (1, 1, 1, 1), (2, 2, 2, 2)),
    (_TIED_PRODUCTS, (1, 1, 0, 1), (2, 2, 0, 2)),
    (corpus.controlled_trains(), (4, 4, 0, 0), (8, 8, 0, 0)),
    (corpus.half_controlled_trains(), (3, 3, 0, 0), (4, 4, 0, 0)),
]
_RANKING_CALLS_IDS = [
    "chain", "trains", "one_unit", "lollipop", "shell_trains", "exchanger_loop", "splitter",
    "controlled_trains", "half_controlled_trains",
]

# (graph, components inside runs of equal generalized strings)
_PLANNED = [
    (corpus.trains(5, 3), 5),
    (corpus.trains(2, 1), 2),
    (corpus.fixture("multistream_exchanger_plant").make(), 0),
]
_PLANNED_IDS = ["five_trains", "two_trains", "sizes_differ"]
# Three components of one size: two equal valve trains and a pump train.
_MIXED_TRAINS = corpus.build(
    ["raw-1", "v-1", "prod-1", "raw-2", "pp-1", "prod-2", "raw-3", "v-2", "prod-3"],
    [("raw-1", "v-1"), ("v-1", "prod-1"), ("raw-2", "pp-1"), ("pp-1", "prod-2")]
    + [("raw-3", "v-2"), ("v-2", "prod-3")],
)


class TestLazyStages:
    """Colors are refined only on a structural tie, reach counted only
    when a tie key reads it, and each once at most."""

    @pytest.mark.parametrize(
        "graph, refines",
        [
            (corpus.chain(50), 0),
            (corpus.trains(5, 3), 0),
            (corpus.exchanger_loop(8), 1),
            (corpus.exchanger_loop(64), 1),
        ],
        ids=["chain", "trains", "exchanger_loop_8", "exchanger_loop_64"],
    )
    def test_refinement_runs_only_on_a_tie(self, monkeypatch, graph, refines):
        calls = _count_calls(monkeypatch, canon, "_refine")
        rank_graph(graph)
        assert calls[0] == refines

    @pytest.mark.parametrize(
        "graph, reaches",
        [
            (_TIED_PRODUCTS, 0),
            (_TIED_CONTROLLERS, 0),
            (_TIED_FEEDS, 1),
            (corpus.trains(5, 3), 1),
            (corpus.exchanger_loop(8), 1),
            (corpus.trains(4, 1), 0),
        ],
        ids=[
            "tied_products", "tied_controllers", "tied_feeds", "trains", "exchanger_loop",
            "one_unit_trains",
        ],
    )
    def test_reach_is_counted_only_when_a_tie_reads_it(self, monkeypatch, graph, reaches):
        # Reach enters the tie key of raw units and of units outside C,
        # prod and raw only, once two of them tie on priority, and is
        # counted once per ranking.  In a raw -> v -> prod train the raw
        # and prod units share a Morgan class, and priority parts them.
        calls = _count_calls(monkeypatch, canon, "_reach_counts")
        rank_graph(graph)
        assert calls[0] == reaches

    @pytest.mark.parametrize(
        "graph, builds",
        [
            (corpus.chain(50), 0),
            (corpus.trains(5, 3), 0),
            (corpus.exchanger_loop(8), 1),
            (corpus.exchanger_loop(64), 1),
        ],
        ids=["chain", "trains", "exchanger_loop_8", "exchanger_loop_64"],
    )
    def test_category_ranks_only_for_descriptors(self, monkeypatch, graph, builds):
        # Descriptors read the category rank table, built on the first
        # tie that reaches them and kept for the rest of the ranking.
        # Priority parts the units of a raw -> v -> prod train first.
        calls = _count_calls(monkeypatch, canon, "_category_ranks")
        rank_graph(graph)
        assert calls[0] == builds

    @pytest.mark.parametrize("graph", [g for g, _tied in _PLANNED], ids=_PLANNED_IDS)
    def test_each_tied_component_is_planned_once(self, monkeypatch, graph):
        # Every component, tied or not, is planned once per encode, and
        # nothing plans the whole graph again: a forced component from its
        # walk by ``_forced_plan``, any other by ``traverse``.
        planned = []

        def record(route):
            original = getattr(encode_module, route)

            def recorded(ix, comp):
                plan = original(ix, comp)
                if plan:
                    planned.append((sorted(ix.names[i] for i in comp), route))
                return plan

            monkeypatch.setattr(encode_module, route, recorded)

        ix = _Index(graph)
        routes = {
            tuple(sorted(ix.names[i] for i in comp)):
                "_forced_plan" if encode_module._forced_plan(ix, comp) else "traverse"
            for comp in ix.components()
        }
        record("traverse")
        record("_forced_plan")
        for mode in ("generalized", "numbered"):
            planned.clear()
            encode(graph, mode)
            assert sorted(names for names, _route in planned) == sorted(
                canon_oracle._components(graph)
            )
            assert all(routes[tuple(names)] == route for names, route in planned)

    @pytest.mark.parametrize(
        "graph, ranked, forced, shapes",
        [(g, *counts) for (g, _tied), counts in zip(_PLANNED, ((0, 5, 1), (0, 2, 1), (1, 1, 0)))]
        + [(_MIXED_TRAINS, 0, 3, 2)],
        ids=_PLANNED_IDS + ["mixed_trains"],
    )
    def test_one_traverse_per_component_one_key_per_shape(
        self, monkeypatch, graph, ranked, forced, shapes
    ):
        # Ranking plans every component once, as encoding does: a ranked
        # one with one ``traverse``, a forced one from its walk and never
        # with ``traverse``.  Each component is checked for being forced
        # once, and ranking reads the answer off the plan, with no second
        # walk.  It calls ``component_string`` once per distinct shape
        # among equally sized components.
        traversed = _count_calls(monkeypatch, encode_module, "traverse")
        checked, walked = [0], [0]
        original = encode_module._forced_plan

        def counted(ix, comp):
            plan = original(ix, comp)
            checked[0] += 1
            walked[0] += plan is not None
            return plan

        monkeypatch.setattr(encode_module, "_forced_plan", counted)
        keyed = _count_calls(monkeypatch, encode_module, "component_string")
        rank_graph(graph)
        assert (traversed[0], walked[0], keyed[0]) == (ranked, forced, shapes)
        assert checked[0] == len(canon_oracle._components(graph))

    @pytest.mark.parametrize("graph, ranked, encoded", _RANKING_CALLS, ids=_RANKING_CALLS_IDS)
    def test_encoding_ranks_no_forced_component(self, monkeypatch, graph, ranked, encoded):
        # A forced component writes the same bytes in any rank order, so
        # encoding plans it in walk order; ``rank_graph`` ranks it.
        stages = ("morgan_iterate", "break_ties", "_reach_counts", "_refine")
        calls = [_count_calls(monkeypatch, canon, name) for name in stages]
        rank_graph(graph)
        assert tuple(c[0] for c in calls) == ranked
        for c in calls:
            c[0] = 0
        for mode in ("generalized", "numbered"):
            encode(graph, mode)
        assert tuple(c[0] for c in calls) == encoded

    @pytest.mark.parametrize(
        "graph, tied",
        _PLANNED + [(_MIXED_TRAINS, 2)],
        ids=_PLANNED_IDS + ["mixed_trains"],
    )
    def test_numbered_strings_only_inside_equal_runs(self, monkeypatch, graph, tied):
        # Two things, although the name speaks of numbered strings: no
        # numbered string is rendered at all, and ``_plans`` reads unit
        # names only for the members of runs of equal generalized strings,
        # each of their units once.
        renders = []
        original = encode_module._render

        def recorded(ix, parts, mode):
            renders.append(mode)
            return original(ix, parts, mode)

        monkeypatch.setattr(encode_module, "_render", recorded)
        rank_graph(graph)
        assert renders.count("numbered") == 0

        read = []

        class Names(list):
            def __getitem__(self, i):
                read.append(list.__getitem__(self, i))
                return list.__getitem__(self, i)

        ix = _Index(graph)
        ix.names = Names(ix.names)
        encode_module._plans(ix)
        keyed = [comp for comp in canon_oracle._components(graph) if set(comp) & set(read)]
        assert len(keyed) == tied
        assert sorted(read) == sorted(name for comp in keyed for name in comp)
