"""Property tests over arbitrary text and arbitrary graphs.

Whatever the input text in the SFILES alphabet, ``parse`` returns instead
of raising, every diagnostic points inside the input, the graph is
missing exactly when an error was reported, and the tokens tile the input
from its first character to its last.

Whatever graph the model accepts, its numbered string parses back to
the same graph without a diagnostic, the ranking stages return what the
reference copies in ``canon_oracle`` return, and every encoding is what
the reference copy in ``encode_oracle`` writes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canon_oracle
import corpus
import encode_oracle
from sfiles2 import (
    GENERALIZED, NUMBERED, EncodeError, FlowsheetGraph, GraphInvariantError, NodeRef, encode,
    morgan_iterate, parse, tokenize,
)
from sfiles2.canon import _Index, _reach_counts, rank_components
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
    assert (graph is None) == bool(diags.errors())


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
def test_ranking_stages_match_the_reference(g, data):
    ix = _Index(g)
    names = ix.names
    ranked = [[names[i] for i in comp] for comp in rank_components(ix)]
    assert ranked == canon_oracle.rank_components(g)
    assert _reach_counts(ix) == [canon_oracle._successor_count(g, n) for n in names]
    assert morgan_iterate(g) == canon_oracle.morgan_iterate(g)
    nodes = data.draw(st.lists(st.sampled_from(names), min_size=0, unique=True))
    assert morgan_iterate(g, nodes) == canon_oracle.morgan_iterate(g, nodes)


def _legacy(encoder, g) -> str:
    try:
        return str(encoder(g, NUMBERED, legacy_converging=True))
    except EncodeError as exc:
        return f"EncodeError: {exc}"


@settings(max_examples=300, deadline=None)
@given(flowsheets())
def test_encodings_match_the_reference(g):
    # Components of one size that carry signals or share a shell reach
    # the ordering by strings here, beyond what the golden file holds.
    for mode in (GENERALIZED, NUMBERED):
        assert str(encode(g, mode)) == encode_oracle.encode(g, mode)
    assert _legacy(encode, g) == _legacy(encode_oracle.encode, g)
