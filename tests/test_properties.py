"""Property tests over arbitrary text in the SFILES alphabet.

Whatever the input, ``parse`` returns instead of raising, every
diagnostic points inside the input, the graph is missing exactly when an
error was reported, and the tokens tile the input from its first
character to its last.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfiles2 import parse, tokenize

# Single characters of the notation, plus whole tokens so that inputs
# reach the parse machine and the finalize step, not only the lexer.
# "²" and "١" are digits to str.isdigit but not ASCII digits.
_CHARS = "()[]{}<>&|%_n-/0123456789ahrwxCX ²١"
_FRAGMENTS = [
    "(raw)", "(prod)", "(hex)", "(v)", "(mix)", "(r)", "(C)", "(frob)", "(hex-1/2)",
    "(raw-1)", "(v-2)", "()", "{tin}", "{bout}", "{1}", "{2}", "{PC}", "{x}", "<&|",
    "&", "|", "&|", "[", "]", "[<", "<(", "1", "<1", "%12", "<%12", "_1", "<_1",
    "n|", "(", "{", "<", "²", "١",
]

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
