"""SFILES 2.0 parsing: tokens, graph reconstruction, round-trip checking.

The tokenizer is one table of token rules, tried in order at each
position; every token owns a contiguous span of the input so diagnostics
can point at the offending characters.  The parser is a single pass with
a frame stack for branch brackets and converging groups, symmetric
matching for recycle and signal mark pairs, and a finalize step that
assigns equipment numbers and builds the graph through the model API.

Recovery is one error per train: a handler that meets a hard error
records it and raises to end the train, the token loop skips to the next
``n|`` separator and keeps collecting diagnostics, but no graph is
returned.
"""

from __future__ import annotations

import re
from contextlib import suppress
from dataclasses import dataclass, field
from typing import NamedTuple

from .encode import GENERALIZED, NUMBERED, _encode_both, encode
from .errors import GraphInvariantError, ParseError
from .model import (
    COLUMN_TAGS, CTRL_RE, MATERIAL, SIGNAL, FlowsheetGraph, _LABEL_RE,
)
from .validate import REGISTRY

_DIGITS_RE = re.compile(r"[0-9]+")


class Token(NamedTuple):
    kind: str
    text: str
    start: int
    end: int


@dataclass(frozen=True)
class Diagnostic:
    level: str  # "error" or "warning"
    code: str
    message: str
    start: int
    end: int


@dataclass
class ParseDiagnostics:
    entries: list[Diagnostic] = field(default_factory=list)

    def add(self, level, code, message, at):
        """Record a diagnostic over ``at``: a token, an open frame or a unit."""
        self.entries.append(Diagnostic(level, code, message, at.start, at.end))

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.entries if d.level == "error"]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.entries if d.level == "warning"]

    def ok(self) -> bool:
        for d in self.entries:
            if d.level == "error":
                return False
        return True


# The lexical grammar, one row per token rule in priority order:
# (kind, error code or None, pattern).  Every pattern has exactly one
# group, the token's text; an error token's text is its code instead.
# No row matches the empty string and the last one takes any character,
# so the tokens tile the input.  Digits are ASCII only.
_TOKEN_RULES = (
    ("node", None, r"\(([^)]*)\)"),
    ("error", "unterminated-node", r"(\().*"),
    ("brace", None, r"\{([^}]*)\}"),
    ("error", "unterminated-brace", r"(\{).*"),
    ("branch_open", None, r"(\[)"),
    ("branch_close", None, r"(\])"),
    ("conv_open", None, r"(<&\|)"),
    ("recycle_in", None, r"<%([0-9]{2})"),
    ("error", "bad-recycle-digits", r"(<%)[0-9]?"),
    ("signal_in", None, r"<_([0-9]+)"),
    ("error", "bad-signal-digits", r"(<_)"),
    ("legacy_back", None, r"(<)(?=\()"),
    ("recycle_in", None, r"<([1-9])"),
    ("recycle_out", None, r"%([0-9]{2})"),
    ("error", "bad-recycle-digits", r"(%)[0-9]?"),
    ("recycle_out", None, r"([1-9])"),
    ("signal_out", None, r"_([0-9]+)"),
    ("error", "bad-signal-digits", r"(_)"),
    ("train_sep", None, r"(n\|)"),
    ("conv_connector", None, r"(&)"),
    ("conv_close", None, r"(\|)"),
    ("error", "illegal-character", r"(.)"),
)
_TOKEN_RE = re.compile("|".join(p for _k, _c, p in _TOKEN_RULES), re.DOTALL)
_TOKEN_KINDS = [None] + [(k, c) for k, c, _p in _TOKEN_RULES]  # by group number


def tokenize(text: str) -> list[Token]:
    """Lex the input; malformed stretches come back as kind="error" tokens
    whose text is the diagnostic code."""
    out: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        i = m.lastindex
        kind, code = _TOKEN_KINDS[i]
        # tuple.__new__ builds the Token in C, past the NamedTuple's Python __new__.
        out.append(tuple.__new__(Token, (kind, m[i] if code is None else code, m.start(), m.end())))
    return out


_ERROR_MESSAGES = {
    "unterminated-node": "node is missing its closing parenthesis",
    "unterminated-brace": "brace is missing its closing bracket",
    "bad-recycle-digits": "a recycle mark with % needs exactly two digits",
    "bad-signal-digits": "a signal mark needs at least one digit",
    "illegal-character": "character has no meaning here",
}


@dataclass(slots=True)
class _Occ:
    category: str
    suffix: str  # the label after its category as written: "", "-3" or "-1/2"
    start: int
    end: int
    ctrl: str | None = None
    group: str | None = None


@dataclass
class _Frame:
    kind: str  # "branch", "conv", "legacy"
    owner: int | None  # occurrence index the frame returns to
    start: int
    seen_connector: bool = False
    chain_target: int | None = None  # legacy frames: node the next <(x) feeds
    await_node: bool = False

    @property
    def end(self) -> int:
        """An open frame is reported at its first character."""
        return self.start + 1


# Mark token kind -> (mark kind, side, the edge a matched pair makes, what
# a mark says when its id is already open on the same side).
_MARKS = {
    "recycle_in": ("recycle", "in", MATERIAL, "already has a target"),
    "recycle_out": ("recycle", "out", MATERIAL, "already has a source"),
    "signal_in": ("signal", "in", SIGNAL, "already has its in side"),
    "signal_out": ("signal", "out", SIGNAL, "already has its out side"),
}


class _TrainEnd(Exception):
    """Raised by a handler, after its error is recorded, to end the train."""


class _Machine:
    def __init__(self, strict: bool, diags: ParseDiagnostics):
        self.strict = strict
        self.diags = diags
        self.occs: list[_Occ] = []  # an occurrence's id is its index here
        # each edge as (src, dst, kind, tag, token), ends by occurrence id
        self.edges: list[tuple[int, int, str, str | None, Token]] = []
        self.frames: list[_Frame] = []
        self.current: int | None = None
        self.pending: Token | None = None  # the brace of a column tag waiting for its edge
        self.attach: int | None = None  # occurrence open for node braces
        # open marks, across trains: (kind, id) -> (side, occurrence, tag, token);
        # only an out side carries a tag
        self.marks: dict[tuple[str, int], tuple[str, int, str | None, Token]] = {}

    def error(self, code, message, at: Token | _Frame) -> _TrainEnd:
        """Record an error over ``at``; a handler raises what this returns."""
        self.diags.add("error", code, message, at)
        return _TrainEnd()

    def reset_train(self):
        self.frames.clear()
        self.current = None
        self.pending = None
        self.attach = None

    def no_tag(self, why="has no stream to mark", code="dangling-tag") -> None:
        """End the train if a column tag is waiting."""
        if self.pending is not None:
            raise self.error(code, f"tag {self.pending.text!r} {why}", self.pending)

    def take_tag(self) -> str | None:
        """The waiting column tag, if any, now given to an edge."""
        tag = self.pending.text if self.pending is not None else None
        self.pending = None
        return tag

    # -- token handlers; each raises the error that ends its train

    def on_error(self, tok: Token) -> None:
        raise self.error(tok.text, _ERROR_MESSAGES[tok.text], tok)

    def on_node(self, tok: Token) -> None:
        _kind, text, start, end = tok
        if not text:
            raise self.error("empty-node", "node has no name", tok)
        m = _LABEL_RE.fullmatch(text)
        if m is None:
            raise self.error("bad-node-name", f"not a unit name: {text!r}", tok)
        category = m[1]
        idx = len(self.occs)
        self.occs.append(_Occ(category, text[len(category):], start, end))
        frames = self.frames
        if frames and frames[-1].kind == "legacy":
            frame = frames[-1]
            if not frame.await_node:
                message = "nodes in a legacy converging branch must follow a < mark"
                raise self.error("malformed-legacy", message, tok)
            self.no_tag("cannot mark a legacy branch")
            frame.await_node = False
            self.edges.append((idx, frame.chain_target, MATERIAL, None, tok))
            frame.chain_target = idx
        elif self.current is not None:
            pending = self.pending  # the waiting column tag goes to this edge
            self.pending = None
            self.edges.append((self.current, idx, MATERIAL, pending and pending.text, tok))
        else:
            self.no_tag()
        self.current = self.attach = idx

    def on_brace(self, tok: Token) -> None:
        text = tok.text
        target = self.occs[self.attach] if self.attach is not None else None
        if text in COLUMN_TAGS:
            self.no_tag()
            self.pending = tok
        elif target is not None and _DIGITS_RE.fullmatch(text) and target.category == "hex":
            if target.group is not None:
                message = f"exchanger already belongs to group {{{target.group}}}"
                raise self.error("unknown-brace", message, tok)
            target.group = text
        elif target is not None and CTRL_RE.fullmatch(text) and target.category == "C":
            if target.ctrl is not None:
                message = f"control node already carries code {target.ctrl!r}"
                raise self.error("unknown-brace", message, tok)
            target.ctrl = text
        elif self.strict:
            raise self.error("unknown-brace", f"brace {text!r} is not recognized", tok)
        else:
            self.diags.add("warning", "unknown-brace", f"ignoring brace {text!r}", tok)

    def on_branch_open(self, tok: Token, legacy_next: bool) -> None:
        self.no_tag("must follow the opening bracket")
        if self.current is None:
            raise self.error("branch-without-node", "branch has no node to fork from", tok)
        kind = "legacy" if legacy_next else "branch"
        self.frames.append(
            _Frame(kind, owner=self.current, start=tok.start, chain_target=self.current)
        )

    def on_branch_close(self, tok: Token) -> None:
        self.no_tag()
        if not self.frames or self.frames[-1].kind not in ("branch", "legacy"):
            raise self.error("unmatched-bracket-close", "no open branch to close", tok)
        # the lexer emits legacy_back only in front of "(", so a node or a
        # lexer error always follows it: no legacy frame closes awaiting a node
        self.current = self.frames.pop().owner

    def on_conv_open(self, tok: Token) -> None:
        self.no_tag()
        if self.current is None:
            message = "converging branch has no node to merge into"
            raise self.error("branch-without-node", message, tok)
        self.frames.append(_Frame("conv", owner=self.current, start=tok.start))
        self.current = None

    def on_connector(self, tok: Token) -> None:
        # a legacy frame hides any converging frame around it
        conv = next((f for f in reversed(self.frames) if f.kind != "branch"), None)
        if conv is None or conv.kind != "conv":
            raise self.error("stray-connector", "& is only valid inside <&|...|", tok)
        if conv.seen_connector:
            message = "converging branch already has its & connection"
            raise self.error("multiple-connector", message, tok)
        if self.current is None:
            raise self.error("mark-without-node", "& has no node to connect", tok)
        conv.seen_connector = True
        self.edges.append((self.current, conv.owner, MATERIAL, self.take_tag(), tok))

    def on_conv_close(self, tok: Token) -> None:
        self.no_tag()
        if not self.frames:
            raise self.error("unmatched-conv-close", "no open converging branch to close", tok)
        frame = self.frames[-1]
        if frame.kind != "conv":
            message = "branch bracket is still open inside the converging branch"
            raise self.error("unclosed-branch", message, frame)
        self.frames.pop()
        if not frame.seen_connector:
            message = "converging branch closed without its & connection"
            raise self.error("missing-connector", message, tok)
        self.current = frame.owner

    def on_mark(self, tok: Token) -> None:
        """One recycle or signal mark; the second mark of an id makes the edge."""
        kind, side, edge_kind, clash = _MARKS[tok.kind]
        tag = None
        if kind == "signal":
            self.no_tag("cannot mark a signal", code="tag-on-signal")
        elif side == "in":
            self.no_tag("cannot mark a recycle target")
        else:
            tag = self.take_tag()  # the out side owns the column tag
        if self.current is None:
            raise self.error("mark-without-node", f"{kind} mark has no node", tok)
        key = (kind, int(tok.text))
        open_ = self.marks.get(key)
        if open_ is None:
            self.marks[key] = (side, self.current, tag, tok)
            return
        other, occ, open_tag, _tok = open_
        if other == side:
            raise self.error(f"dangling-{kind}", f"{kind} {key[1]} {clash}", tok)
        del self.marks[key]
        if side == "out":
            src, dst = self.current, occ
        else:
            src, dst, tag = occ, self.current, open_tag
        self.edges.append((src, dst, edge_kind, tag, tok))

    def on_legacy_back(self, tok: Token) -> None:
        if not self.frames or self.frames[-1].kind != "legacy":
            message = "backward connection is only valid inside [<(...) branches"
            raise self.error("malformed-legacy", message, tok)
        self.frames[-1].await_node = True

    def on_train_sep(self, tok: Token) -> None:
        self.no_tag()
        if self.frames:
            frame = self.frames[-1]
            code = "unclosed-converging" if frame.kind == "conv" else "unclosed-branch"
            raise self.error(code, "still open at the train separator", frame)
        self.current = None

    def finish(self) -> None:
        """Report every piece still open at the end of the input."""
        with suppress(_TrainEnd):
            self.no_tag()
        for frame in self.frames:
            code = "unclosed-converging" if frame.kind == "conv" else "unclosed-branch"
            self.error(code, "still open at the end of the input", frame)
        # recycles before signals, each in id order
        for (kind, mid), (_side, _occ, _tag, tok) in sorted(self.marks.items()):
            self.error(f"dangling-{kind}", f"{kind} {mid} is never matched", tok)


# Token kind -> its handler; branch_open looks one token ahead instead.
_HANDLERS = {
    "error": _Machine.on_error,
    "node": _Machine.on_node,
    "brace": _Machine.on_brace,
    "branch_close": _Machine.on_branch_close,
    "conv_open": _Machine.on_conv_open,
    "conv_connector": _Machine.on_connector,
    "conv_close": _Machine.on_conv_close,
    **dict.fromkeys(_MARKS, _Machine.on_mark),
    "legacy_back": _Machine.on_legacy_back,
    "train_sep": _Machine.on_train_sep,
}


def _run_machine(tokens: list[Token], strict: bool, diags: ParseDiagnostics) -> _Machine:
    m = _Machine(strict, diags)
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        kind = tok.kind
        if kind != "node" and kind != "brace":
            m.attach = None  # braces after anything else do not annotate a node
        try:
            if kind == "branch_open":
                m.on_branch_open(tok, i + 1 < n and tokens[i + 1].kind == "legacy_back")
            else:
                _HANDLERS[kind](m, tok)
        except _TrainEnd:
            # first error per train: skip ahead to the next separator,
            # unless the failing token was itself the separator
            if kind != "train_sep":
                while i + 1 < n and tokens[i + 1].kind != "train_sep":
                    i += 1
                i += 1
            m.reset_train()
        i += 1
    if diags.ok():
        m.finish()
    return m


def _finalize(m: _Machine, strict: bool, diags: ParseDiagnostics) -> FlowsheetGraph | None:
    occs = m.occs
    odd = None  # the first unit unlike the first unit in carrying a number
    groups: dict[str, int] = {}  # group label -> number of members
    for occ in occs:
        if occ.category not in REGISTRY:
            if strict:
                message = f"category {occ.category!r} is not in the registry"
                diags.add("error", "unknown-category", message, occ)
            else:
                message = f"treating unknown category {occ.category!r} as X"
                diags.add("warning", "unknown-category", message, occ)
                occ.category = "X"
        if occ.category == "C" and occ.ctrl is None:
            diags.add("error", "missing-ctrl-code", "control node is missing its letter code", occ)
        if odd is None and (not occ.suffix) != (not occs[0].suffix):
            odd = occ
        if occ.group is not None:
            groups[occ.group] = groups.get(occ.group, 0) + 1
    if not diags.ok():
        return None

    graph = None
    if odd is not None:
        message = "only some nodes carry numbers, assigning fresh numbers"
        diags.add("warning", "mixed-numbering", message, odd)
    elif occs and occs[0].suffix:
        names = [occ.category + occ.suffix for occ in occs]
        graph, bad = _graph(occs, names)
        if bad is not None:
            message = "explicit numbering is inconsistent, assigning fresh numbers"
            diags.add("warning", "renumbered", message, bad)

    if graph is None:
        # By first occurrence per category; a group counts as one exchanger.
        # No name here breaks a rule of _graph: each is new, a group's
        # members share a number of their own, and a group of one is ungrouped.
        names = []
        counters: dict[str, int] = {}
        group_eq: dict[str, list[int]] = {}
        for occ in occs:
            if occ.group is not None and groups[occ.group] == 1:
                message = f"group {{{occ.group}}} has a single member, treating it as ungrouped"
                diags.add("warning", "singleton-group", message, occ)
                occ.group = None
            if occ.group is not None:
                ge = group_eq.get(occ.group)
                if ge is None:
                    counters["hex"] = counters.get("hex", 0) + 1
                    ge = group_eq[occ.group] = [counters["hex"], 0]
                ge[1] += 1
                names.append(f"hex-{ge[0]}/{ge[1]}")
            else:
                number = counters[occ.category] = counters.get(occ.category, 0) + 1
                names.append(f"{occ.category}-{number}")
        graph, _bad = _graph(occs, names)

    add_edge = graph.add_edge
    for src, dst, kind, tag, at in m.edges:
        try:
            add_edge(names[src], names[dst], kind, tag)
        except GraphInvariantError as exc:
            diags.add("error", "graph-invariant", str(exc), at)
    return graph if diags.ok() else None


def _graph(occs: list[_Occ], names: list[str]) -> tuple[FlowsheetGraph | None, _Occ | None]:
    """The graph of the units ``occs`` named ``names`` and None, or None
    and the first unit whose name the model refuses for the graph so far
    or whose group brace breaks the parser's rules: groups hold
    sub-units, one number per group and one group per number."""
    graph = FlowsheetGraph()
    group_number: dict[str, int] = {}
    number_group: dict[int, str] = {}
    for occ, name in zip(occs, names):
        try:
            # ValueError for a name such as r-1/2, raw-0 or raw-01;
            # GraphInvariantError for a repeated name or a plain/sub-unit mix
            ref = graph.add_node(name, occ.ctrl)
        except (ValueError, GraphInvariantError):
            return None, occ
        if occ.group is not None and (
            ref.sub is None
            or group_number.setdefault(occ.group, ref.number) != ref.number
            or number_group.setdefault(ref.number, occ.group) != occ.group
        ):
            return None, occ
    return graph, None


def parse(text: str, strict: bool = True) -> tuple[FlowsheetGraph | None, ParseDiagnostics]:
    """Parse one SFILES string.

    Returns the reconstructed graph and the diagnostics.  The parse has
    failed exactly when an error was recorded, that is when ``diags.ok()``
    is false, and then the graph is None.
    """
    diags = ParseDiagnostics()
    m = _run_machine(tokenize(text), strict, diags)
    return (_finalize(m, strict, diags) if diags.ok() else None), diags


def parse_sfiles(text: str, strict: bool = True) -> FlowsheetGraph:
    """Parse one SFILES string, raising ParseError on any error."""
    graph, diags = parse(text, strict=strict)
    if graph is None:
        first = diags.errors()[0]
        raise ParseError(f"{first.code}: {first.message}", diags)
    return graph


@dataclass
class RoundtripReport:
    ok: bool
    problems: list[str]
    canonical: str

    def __bool__(self) -> bool:
        return self.ok


def _shape(graph: FlowsheetGraph):
    cats: dict[str, int] = {}
    for name in graph.nodes():
        ref = graph.node_ref(name)
        cats[ref.category] = cats.get(ref.category, 0) + 1
    kinds: dict[str, int] = {}
    tags: dict[str, int] = {}
    for _src, _dst, attr in graph.edges():
        kinds[attr.kind] = kinds.get(attr.kind, 0) + 1
        if attr.tag:
            tags[attr.tag] = tags.get(attr.tag, 0) + 1
    return cats, kinds, tags


def roundtrip_check(graph: FlowsheetGraph) -> RoundtripReport:
    """Encode, reparse and re-encode; report anything that does not survive."""
    problems: list[str] = []
    canonical, numbered = _encode_both(graph)
    reparsed, diags = parse(canonical)
    if reparsed is None:
        for d in diags.errors():
            problems.append(f"reparse failed: {d.code}: {d.message}")
        return RoundtripReport(False, problems, str(canonical))
    again = encode(reparsed, GENERALIZED)
    if again != canonical:
        problems.append(f"not idempotent: {canonical!r} reparsed to {again!r}")
    if _shape(reparsed) != _shape(graph):
        problems.append("node or edge populations changed across the round trip")

    renum, diags = parse(numbered)
    if renum is None:
        problems.append("numbered form did not reparse")
    else:
        if encode(renum, NUMBERED) != numbered:
            problems.append("numbered form is not idempotent")
        if renum != graph:
            problems.append("numbered round trip changed the graph")
    return RoundtripReport(not problems, problems, str(canonical))
