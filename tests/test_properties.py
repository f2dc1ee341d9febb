"""Property tests over arbitrary text and arbitrary graphs.

Whatever the input text in the SFILES alphabet, ``parse`` returns instead
of raising, every diagnostic points inside the input, the graph is
missing exactly when an error was reported, and the tokens tile the input
from its first character to its last.

Whatever graph the model accepts, its numbered string parses back to
the same graph without a diagnostic, the ranking stages return what the
reference copies in ``canon_oracle`` return, and every encoding is what
the reference copy in ``encode_oracle`` writes, and ``rank_graph``
returns the reference's table.  A graph of forced components, which
encoding never ranks, encodes to the same generalized string under any
renumbering.  A numbered string written from any rank order
(``genflow.random_string``) parses back to the same graph and
re-encodes to the canonical string, and so does a string whose
single-digit recycle marks are written in their two-digit ``%0k``
form.  With one unit's category made
unregistered, the numbered string parses leniently to the same graph with
that unit named X and its number kept.

Whatever bytes or graph document it is given, ``load_json`` returns a
graph or raises ``SchemaError`` or ``GraphInvariantError``, nothing else.
"""

import dataclasses
import itertools
import json
import random
import re
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import canon_oracle
import corpus
import encode_oracle
import genflow
import json_oracle
from canon_oracle import morgan_state
from test_canon import assert_snapshot_matches_the_reference
from sfiles2 import (
    GENERALIZED, NUMBERED, EncodeError, FlowsheetGraph, GraphInvariantError, NodeRef, SchemaError,
    encode, load_json, parse, rank_graph, save_json, tokenize,
)
from sfiles2.canon import (
    _category_ranks, _descriptor, _Index, _reach_counts, _refine, morgan_iterate, rank_component,
)
from sfiles2.cli import _json_line
from sfiles2.encode import (
    EmissionPlan, _forced_plan, _plans, _render, _walk, component_string, traverse,
)
from sfiles2.model import COLUMN_TAGS, CTRL_RE, EDGE_KINDS, MATERIAL
from sfiles2.validate import REGISTRY

# Single characters of the notation, plus whole tokens so that inputs
# reach the parse machine and the finalize step, not only the lexer.
# "²" and "١" are digits to str.isdigit but not ASCII digits.
_CHARS = "()[]{}<>&|%_n-/0123456789ahrwxCX ²١"
_FRAGMENTS = corpus.FRAGMENTS

texts = st.one_of(
    st.text(alphabet=_CHARS, max_size=40),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=20).map("".join),
)


@settings(max_examples=400, deadline=None)
@given(texts)
def test_tokens_tile_the_input(text):
    pos = 0
    for tok in tokenize(text):
        assert tok.start == pos < tok.end
        pos = tok.end
    assert pos == len(text)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
@settings(max_examples=400, deadline=None)
@given(text=texts)
def test_parse_reports_in_bounds_and_returns_a_graph_only_without_errors(strict, text):
    graph, diags = parse(text, strict=strict)
    for d in diags.entries:
        assert 0 <= d.start <= d.end <= len(text), d
    assert (graph is None) == bool(diags.errors()) == (not diags.ok())


@st.composite
def flowsheets(draw):
    """Any graph within the model invariants: units of every registry
    category (exchanger sub-units, C nodes with codes), material edges
    with or without column tags, and signals, drawn as attempts of which
    the model keeps those it accepts."""
    g = FlowsheetGraph()
    for _ in range(draw(st.integers(1, 16))):
        category = draw(st.sampled_from(sorted(REGISTRY)))
        sub = draw(st.none() | st.integers(1, 3)) if category == "hex" else None
        ctrl = draw(st.from_regex(CTRL_RE, fullmatch=True)) if category == "C" else None
        try:
            g.add_node(NodeRef(category, draw(st.integers(1, 4)), sub), ctrl)
        except GraphInvariantError:
            pass  # a duplicate, or plain and sub-unit forms of one exchanger
    names = g.nodes()
    for _ in range(draw(st.integers(0, 2 * len(names)))):
        src, dst = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        kind = draw(st.sampled_from(EDGE_KINDS))
        tag = draw(st.sampled_from((None, *COLUMN_TAGS))) if kind == MATERIAL else None
        try:
            g.add_edge(src, dst, kind, tag)
        except GraphInvariantError:
            pass  # a self loop, a duplicate, into raw or out of prod
    return g


@settings(max_examples=300, deadline=None)
@given(flowsheets())
def test_numbered_string_parses_back_to_the_graph(g):
    text = str(encode(g, NUMBERED))
    back, diags = parse(text)
    assert [(d.code, d.message) for d in diags.entries] == [], text
    assert back == g, text


@settings(max_examples=300, deadline=None)
@given(flowsheets(), st.data())
def test_lenient_parse_reads_an_unknown_category_as_x_with_its_number(g, data):
    # One unit of the numbered string gets an unregistered category; a C
    # unit needs its code brace and only an exchanger has sub-units, so
    # neither can become X, and X-n must not name another unit already.
    def renamable(name):
        ref = g.node_ref(name)
        x = f"X-{ref.number}"
        return ref.category != "C" and ref.sub is None and (x == name or not g.has_node(x))

    names = [n for n in g.nodes() if renamable(n)]
    assume(names)
    name = data.draw(st.sampled_from(names))
    number = g.node_ref(name).number
    text = str(encode(g, NUMBERED)).replace(f"({name})", f"(frob-{number})")
    back, diags = parse(text, strict=False)
    assert [(d.level, d.code) for d in diags.entries] == [("warning", "unknown-category")], text
    renamed = {n: f"X-{number}" if n == name else n for n in g.nodes()}
    want = FlowsheetGraph()
    for n in g.nodes():
        want.add_node(renamed[n], g.ctrl(n))
    for src, dst, attr in g.edges():
        want.add_edge(renamed[src], renamed[dst], attr.kind, attr.tag)
    assert back == want, text


@settings(max_examples=300, deadline=None)
@given(flowsheets())
# The one corpus graph whose colors a shared exchanger shell decides.
@example(corpus.fixture("refrigeration_cycle").make())
def test_ranking_stages_match_the_reference(g):
    ix = _Index(g)
    names = ix.names
    ranked = [[names[i] for i in rank_component(ix, c)] for c in ix.components()]
    assert ranked == canon_oracle.rank_components(g)
    assert _reach_counts(ix) == [canon_oracle._successor_count(g, n) for n in names]
    # Signals, column tags and shared shells: every kind of incidence entry.
    assert dict(zip(names, _refine(ix))) == canon_oracle._refine_colors(g)
    # Packed descriptors compare pairwise as the tuple keys do.
    ix.cat_ranks = _category_ranks(ix)
    got = [_descriptor(ix, i) for i in range(len(names))]
    want = [canon_oracle._step3_key(g, n) for n in names]
    pairs = [(a < b, a == b) for a in got for b in got]
    assert pairs == [(a < b, a == b) for a in want for b in want]
    assert morgan_state(g) == canon_oracle.morgan_iterate(g)


@settings(max_examples=300, deadline=None)
@given(flowsheets())
def test_snapshot_matches_the_reference(g):
    assert_snapshot_matches_the_reference(g)


@settings(max_examples=300, deadline=None)
@given(flowsheets(), st.data())
def test_morgan_on_a_node_subset_matches_the_reference(g, data):
    nodes = data.draw(st.lists(st.sampled_from(g.nodes()), unique=True))
    assert morgan_state(g, nodes) == canon_oracle.morgan_iterate(g, nodes)


def _legacy(encoder, g) -> str:
    try:
        return str(encoder(g, NUMBERED, legacy_converging=True))
    except EncodeError as exc:
        return f"EncodeError: {exc}"


@settings(max_examples=300, deadline=None)
@given(flowsheets())
# Forced components, planned unranked, and components that are ranked.
@example(corpus.chain(50))
@example(corpus.trains(5, 3))
@example(corpus.build(["v-1"], []))
@example(corpus.lollipop())
@example(corpus.shell_trains())
@example(corpus.exchanger_loop(8))
@example(corpus.fixture("reactor_recycle_plant").make())
@example(corpus.controlled_trains())
@example(corpus.half_controlled_trains())
def test_encodings_match_the_reference(g):
    # Components of one size that carry signals or share a shell reach
    # the ordering by strings here, beyond what the golden file holds.
    for mode in (GENERALIZED, NUMBERED):
        assert str(encode(g, mode)) == encode_oracle.encode(g, mode)
    assert _legacy(encode, g) == _legacy(encode_oracle.encode, g)
    assert (save_json(g), _json_line(g)) == (json_oracle.save_json(g), json_oracle.json_line(g))


@st.composite
def forced_flowsheets(draw):
    """1-4 forced components: pipes from one feed with no branch and no
    signal, each perhaps ending in a recycle back into itself.  Units of
    every registry category (C units with codes), column tags, and
    exchanger sub-units that share a shell only within their pipe."""
    g = FlowsheetGraph()
    numbers: Counter = Counter()  # the last number given, per category
    inner = sorted(set(REGISTRY) - {"raw", "prod"}) + ["hex"] * 8  # so that shells are shared
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 6))
        cats = [draw(st.sampled_from(inner + ["raw"]))]
        cats += [draw(st.sampled_from(inner)) for _ in range(size - 2)]
        cats += [draw(st.sampled_from(inner + ["prod"]))] if size > 1 else []
        pipe, shell, subs = [], None, 0  # this pipe's shared exchanger shell
        for category in cats:
            if category == "hex" and draw(st.booleans()):
                if shell is None:
                    numbers["hex"] += 1
                    shell = numbers["hex"]
                subs += 1
                ref = NodeRef("hex", shell, subs)
            else:
                numbers[category] += 1
                ref = NodeRef(category, numbers[category])
            ctrl = draw(st.from_regex(CTRL_RE, fullmatch=True)) if category == "C" else None
            g.add_node(ref, ctrl)
            pipe.append(ref.name)
        for src, dst in zip(pipe, pipe[1:]):
            g.add_edge(src, dst, MATERIAL, draw(st.sampled_from((None, *COLUMN_TAGS))))
        if len(pipe) > 2 and cats[-1] != "prod" and draw(st.booleans()):
            tag = draw(st.sampled_from((None, *COLUMN_TAGS)))
            g.add_edge(pipe[-1], draw(st.sampled_from(pipe[1:-1])), MATERIAL, tag)
    return g


@settings(max_examples=300, deadline=None)
@given(forced_flowsheets(), st.randoms(use_true_random=False))
def test_forced_encodings_survive_renumbering(g, rng):
    # A forced component is planned in walk order, never ranked, and
    # writes the same bytes as the ranked reference in either mode.
    ix = _Index(g)
    assert all(_walk(ix, comp) for comp in ix.components())
    for mode in (GENERALIZED, NUMBERED):
        assert str(encode(g, mode)) == encode_oracle.encode(g, mode)
    text = str(encode(g))
    for _ in range(5):
        assert str(encode(genflow.renumber_randomly(g, rng))) == text


@settings(max_examples=300, deadline=None)
@given(st.one_of(flowsheets(), forced_flowsheets()), st.randoms(use_true_random=False))
def test_rank_order_ignores_the_order_of_the_component(g, rng):
    # ``rank_graph`` ranks a forced component from its walk order, the
    # reference from ``components()`` order; the tables must agree.  The
    # Morgan kernel keeps ``comp``'s order, so its values by unit must not
    # depend on that order either.
    ix = _Index(g)
    for comp in ix.components():
        ranked = rank_component(ix, comp)
        peak, *rest = morgan_iterate(ix, comp)
        by_unit = dict(zip(comp, peak))
        rng.shuffle(comp)
        assert rank_component(ix, comp) == ranked
        peak, *shuffled_rest = morgan_iterate(ix, comp)
        assert (dict(zip(comp, peak)), shuffled_rest) == (by_unit, rest)


@st.composite
def repeated_components(draw):
    """2-5 renumbered copies of one component of a ``flowsheets()`` graph,
    inserted in shuffled order, perhaps joined by signals between copies
    and sharing exchanger shells across copies."""
    g = draw(flowsheets())
    comp = draw(st.sampled_from(canon_oracle._components(g)))
    return genflow.repeat_component(
        g, comp, draw(st.integers(2, 5)), draw(st.randoms(use_true_random=False)),
        signals=draw(st.integers(0, 4)), shells=draw(st.booleans()),
        interleave=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(repeated_components())
@example(corpus.controlled_trains())
@example(corpus.shell_trains())
def test_repeated_components_match_the_reference(g):
    # Copies share one keyed shape wherever their structure allows;
    # every ranking and string stays the reference's.
    ix = _Index(g)
    ranked = [[ix.names[i] for i in rank_component(ix, c)] for c in ix.components()]
    assert ranked == canon_oracle.rank_components(g)
    for mode in (GENERALIZED, NUMBERED):
        assert str(encode(g, mode)) == encode_oracle.encode(g, mode)
    assert _legacy(encode, g) == _legacy(encode_oracle.encode, g)


@settings(max_examples=300, deadline=None)
@given(st.one_of(flowsheets(), repeated_components(), forced_flowsheets()))
# Forced copies, ranked only here, and copies tied up to their strings.
@example(corpus.controlled_trains())
@example(corpus.half_controlled_trains())
@example(corpus.shell_trains())
@example(corpus.trains(5, 3))
@example(corpus.lollipop())
def test_rank_graph_matches_the_reference(g):
    # The public table holds the reference's component order, and each
    # unit's 1-based position in its component's rank order.
    ix = _Index(g)
    order = [[ix.names[i] for i in comp] for comp in encode_oracle._ranked(ix)]
    table = rank_graph(g)
    assert table.subgraph_order == order
    assert table.rank == {name: r for comp in order for r, name in enumerate(comp, 1)}


@settings(max_examples=300, deadline=None)
@given(st.one_of(flowsheets(), forced_flowsheets()))
# Chains and identical trains as the benchmark scales them, and paths that
# end in a recycle, plain or tagged.
@example(corpus.chain(300, "hex"))
@example(corpus.trains(200, 1))
@example(corpus.lollipop())
@example(
    corpus.build(
        ["raw-1", "dist-1", "hex-1"],
        [("raw-1", "dist-1"), ("dist-1", "hex-1", {"tag": "tout"}), ("hex-1", "dist-1", {"tag": "tin"})],
    )
)
def test_forced_plans_are_their_traversal(g):
    # A forced component's plan, read off its walk, is the plan that the
    # depth-first search gives the walk, field by field.
    ix = _Index(g)
    for comp in ix.components():
        walk = _walk(ix, comp)
        if walk:
            plan, searched = _forced_plan(ix, walk), traverse(ix, walk)
            for f in dataclasses.fields(EmissionPlan):
                assert getattr(plan, f.name) == getattr(searched, f.name), f.name


# Numbers of one to five digits, so that names such as raw-9, raw-10 and
# raw-100 sort apart from their numbers.
_DIGIT_LENGTHS = [*range(1, 21), *range(90, 121), *range(990, 1021), *range(9990, 10011)]


def _rendered_numbered_key(ix, plan) -> tuple[str, str]:
    """The former key of equally sized components: the generalized string,
    then the rendered numbered string of the component's own plan."""
    text, parts = component_string(ix, plan)
    return text, _render(ix, parts, NUMBERED)


@settings(max_examples=200, deadline=None)
@given(repeated_components(), st.randoms(use_true_random=False))
@example(
    corpus.build(
        [f"{c}-{k}" for k in (100, 9, 10, 1) for c in ("raw", "v", "prod")],
        [(f"{a}-{k}", f"{b}-{k}") for k in (100, 9, 10, 1) for a, b in (("raw", "v"), ("v", "prod"))],
    ),
    random.Random(0),
)
def test_unit_names_order_equal_components_as_numbered_strings(g, rng):
    # Inside a run of equal generalized strings, unit names in text order
    # give the order that the rendered numbered strings gave, whatever
    # the digit lengths of the numbers.
    for graph in (g, genflow.renumber_randomly(g, rng, _DIGIT_LENGTHS)):
        ix = _Index(graph)
        for _size, run in itertools.groupby(_plans(ix), key=lambda plan: len(plan.nodes)):
            run = list(run)
            assert run == sorted(run, key=lambda plan: _rendered_numbered_key(ix, plan))


def _random_strings_parse_back(g, rng) -> None:
    canonical = str(encode(g, NUMBERED))
    for _ in range(5):
        text = genflow.random_string(g, rng, NUMBERED)
        back, diags = parse(text)
        assert [(d.code, d.message) for d in diags.entries] == [], text
        assert back == g, text
        assert str(encode(back, NUMBERED)) == canonical, text


@settings(max_examples=300, deadline=None)
@given(st.one_of(flowsheets(), repeated_components()), st.randoms(use_true_random=False))
def test_random_numbered_strings_parse_back_to_the_graph(g, rng):
    # Any rank order writes a valid numbered string of the same graph,
    # and that string re-encodes to the canonical one.
    _random_strings_parse_back(g, rng)


@pytest.mark.parametrize(
    "graphs",
    [
        lambda: [genflow.random_flowsheet(random.Random(seed)) for seed in range(200)],
        lambda: [f.make() for f in corpus.FIXTURES],
    ],
    ids=["plants", "fixtures"],
)
def test_random_numbered_strings_parse_back(graphs):
    rng = random.Random(3)
    for g in graphs():
        _random_strings_parse_back(g, rng)


# Labels, braces, signal ids and two-digit recycle ids; what lies between
# them holds only single-digit recycle marks ``k`` and ``<k``.
_NOT_A_RECYCLE_DIGIT = re.compile(r"(\([^)]*\)|\{[^}]*\}|_[0-9]+|%[0-9]{2})")


def _zero_padded_recycles(text: str) -> str:
    """``text`` with each single-digit recycle mark ``k`` written ``%0k``,
    and so each ``<k`` written ``<%0k``."""
    parts = _NOT_A_RECYCLE_DIGIT.split(text)
    return "".join(p if k % 2 else re.sub("[1-9]", r"%0\g<0>", p) for k, p in enumerate(parts))


@settings(max_examples=300, deadline=None)
@given(flowsheets())
@example(corpus.fixture("reactor_recycle_plant").make())
@example(corpus.exchanger_loop(8))
def test_zero_padded_recycle_ids_read_as_single_digits(g):
    # ``%05`` is the two-digit form of recycle 5, which the encoder never
    # writes, so a string in that form parses to the graph it came from.
    for mode in (GENERALIZED, NUMBERED):
        text = str(encode(g, mode))
        padded = _zero_padded_recycles(text)
        back, diags = parse(padded)
        assert [(d.code, d.message) for d in diags.entries] == [], padded
        assert str(encode(back, mode)) == text, padded
        if mode == NUMBERED:
            assert back == g, padded


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
@settings(max_examples=200, deadline=None)
@given(st.one_of(flowsheets(), repeated_components()), st.data())
def test_a_repeated_label_is_renumbered_where_it_repeats(strict, g, data):
    # Writing an earlier label of its category in place of the k-th label
    # of a numbered string keeps the labels before it consistent, so the
    # one diagnostic points at the k-th label, and the graph still builds:
    # the fresh numbering of the generalized string, not the labels.
    text = str(encode(g, NUMBERED))
    labels = [tok for tok in tokenize(text) if tok.kind == "node"]
    category = [tok.text.split("-")[0] for tok in labels]
    pairs = [(j, k) for k in range(len(labels)) for j in range(k) if category[j] == category[k]]
    assume(pairs)
    j, k = data.draw(st.sampled_from(pairs))
    at, label = labels[k], labels[j].text
    back, diags = parse(text[: at.start + 1] + label + text[at.end - 1 :], strict=strict)
    assert back is not None
    assert [(d.code, d.start, d.end) for d in diags.entries] == [
        ("renumbered", at.start, at.start + len(label) + 2)
    ]
    assert back == parse(str(encode(g)), strict=strict)[0]


# Parts of graph documents, valid and not, for the loader property.
_NOT_OBJECTS = st.sampled_from([None, 0, 1.5, True, "", "v-1", [], ["v-1"]])
_NAMES = st.sampled_from(["raw-1", "prod-1", "v-1", "v-2", "hex-1/1", "hex-1", "C-1", "v-0", 5])


def _objects(required: dict, optional: dict | None = None):
    """JSON objects with the required fields, any of the optional ones and
    perhaps an unknown key."""
    return st.builds(
        lambda known, extra: {**known, **extra},
        st.fixed_dictionaries(required, optional=optional),
        st.dictionaries(st.sampled_from(["colour", "meta"]), _NOT_OBJECTS, max_size=1),
    )


_nodes = _objects({"name": _NAMES}, {"ctrl": st.sampled_from(["FC", "fc", "", "F}C", 5, None])})
_edges = _objects({
    "src": _NAMES,
    "dst": _NAMES,
    "kind": st.sampled_from(["signal", "signal", "material", "energy", None]),
    "tag": st.sampled_from(["bin", "tout", None, "side", 3]),
})
_documents = _objects(
    {"nodes": st.lists(_nodes | _NOT_OBJECTS, max_size=4), "edges": st.lists(_edges, max_size=3)}
)


@settings(max_examples=200, deadline=None)
@given(
    data=st.one_of(_documents, _documents.map(json.dumps), st.binary(max_size=40)),
    strict=st.booleans(),
)
@example(
    data={
        "nodes": [{"name": "C-1", "ctrl": "FC"}, {"name": "v-1"}],
        "edges": [{"src": "C-1", "dst": "v-1", "kind": "signal", "tag": "bin"}],
    },
    strict=True,
)
@example(data=b"\xff", strict=True)
@example(data=b"[" * 100000, strict=True)
@example(data='{"nodes": [], "edges": [], "x": ' + "1" * 5000 + "}", strict=False)
def test_load_json_raises_only_schema_or_invariant_errors(data, strict):
    try:
        load_json(data, strict=strict, warnings=[])
    except (SchemaError, GraphInvariantError):
        pass
