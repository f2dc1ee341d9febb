"""The lexer against its first, if-chain form in ``lex_oracle``.

Both must cut every input into the same tokens: the same kind, text and
span, error tokens included.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

import corpus
import lex_oracle
from test_golden import GOLDEN
from test_properties import _CHARS, _FRAGMENTS, texts
from sfiles2 import Token, tokenize


def _tuples(tokens):
    return [(t.kind, t.text, t.start, t.end) for t in tokens]


def _check(text):
    tokens = tokenize(text)
    # A tuple subclass with other fields would still compare equal below.
    assert all(type(t) is Token for t in tokens), text
    assert _tuples(tokens) == _tuples(lex_oracle.tokenize(text)), text


@settings(max_examples=1000, deadline=None)
@given(texts)
def test_tokens_match_the_oracle_on_arbitrary_text(text):
    _check(text)


def test_tokens_match_the_oracle_across_line_breaks():
    # Names, braces and digit runs may hold or be cut by "\n" and "\r".
    rng = random.Random(7)
    pieces = list(_CHARS + "\n\r") + _FRAGMENTS + ["\n", "\r\n"]
    for _ in range(5000):
        _check("".join(rng.choice(pieces) for _ in range(rng.randrange(30))))


def test_tokens_match_the_oracle_on_the_golden_strings():
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert lines
    for line in lines:
        for text in line.split("\t"):
            _check(text)


@pytest.mark.parametrize("text", [m[1] for m in corpus.MALFORMED])
def test_tokens_match_the_oracle_on_malformed_strings(text):
    _check(text)
