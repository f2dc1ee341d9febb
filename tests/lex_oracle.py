"""The lexer as first written: an if-chain over the next character.

A verbatim reference copy.  The tests require the production
``tokenize`` to return exactly the same (kind, text, start, end) tokens
as this one on every input they try.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_DIGITS_RE = re.compile(r"[0-9]+")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    start: int
    end: int


def tokenize(text: str) -> list[Token]:
    """Lex the input; malformed stretches come back as kind="error" tokens
    whose text is the diagnostic code."""
    out: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "(":
            j = text.find(")", i)
            if j < 0:
                out.append(Token("error", "unterminated-node", i, n))
                break
            out.append(Token("node", text[i + 1 : j], i, j + 1))
            i = j + 1
        elif c == "{":
            j = text.find("}", i)
            if j < 0:
                out.append(Token("error", "unterminated-brace", i, n))
                break
            out.append(Token("brace", text[i + 1 : j], i, j + 1))
            i = j + 1
        elif c == "[":
            out.append(Token("branch_open", c, i, i + 1))
            i += 1
        elif c == "]":
            out.append(Token("branch_close", c, i, i + 1))
            i += 1
        elif text.startswith("<&|", i):
            out.append(Token("conv_open", "<&|", i, i + 3))
            i += 3
        elif text.startswith("<%", i):
            m = _DIGITS_RE.match(text, i + 2)
            if m is None or len(m.group()) < 2:
                j = m.end() if m else i + 2
                out.append(Token("error", "bad-recycle-digits", i, j))
                i = j
            else:
                out.append(Token("recycle_in", text[i + 2 : i + 4], i, i + 4))
                i += 4
        elif text.startswith("<_", i):
            m = _DIGITS_RE.match(text, i + 2)
            if m is None:
                out.append(Token("error", "bad-signal-digits", i, i + 2))
                i += 2
            else:
                out.append(Token("signal_in", m.group(), i, m.end()))
                i = m.end()
        elif c == "<":
            nxt = text[i + 1] if i + 1 < n else ""
            if nxt == "(":
                out.append(Token("legacy_back", "<", i, i + 1))
                i += 1
            elif "1" <= nxt <= "9":
                out.append(Token("recycle_in", nxt, i, i + 2))
                i += 2
            else:
                out.append(Token("error", "illegal-character", i, i + 1))
                i += 1
        elif c == "%":
            m = _DIGITS_RE.match(text, i + 1)
            if m is None or len(m.group()) < 2:
                j = m.end() if m else i + 1
                out.append(Token("error", "bad-recycle-digits", i, j))
                i = j
            else:
                out.append(Token("recycle_out", text[i + 1 : i + 3], i, i + 3))
                i += 3
        elif "1" <= c <= "9":
            out.append(Token("recycle_out", c, i, i + 1))
            i += 1
        elif c == "_":
            m = _DIGITS_RE.match(text, i + 1)
            if m is None:
                out.append(Token("error", "bad-signal-digits", i, i + 1))
                i += 1
            else:
                out.append(Token("signal_out", m.group(), i, m.end()))
                i = m.end()
        elif text.startswith("n|", i):
            out.append(Token("train_sep", "n|", i, i + 2))
            i += 2
        elif c == "&":
            out.append(Token("conv_connector", c, i, i + 1))
            i += 1
        elif c == "|":
            out.append(Token("conv_close", c, i, i + 1))
            i += 1
        else:
            out.append(Token("error", "illegal-character", i, i + 1))
            i += 1
    return out
