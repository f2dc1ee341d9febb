"""Every diagnostic the lexer, the parse machine and the finalize step can
report, pinned byte for byte: level, code, message, start and end, in
strict and in lenient mode.

The parse machine stops a train at its first error, so each input
exercises one message, or for the end-of-input report an ordered run
of them."""

import pytest

from sfiles2 import parse

SAME = object()  # the lenient diagnostics equal the strict ones

# (input, strict diagnostics, lenient diagnostics)
CASES = [
    ("", [], SAME),
    ("()", [("error", "empty-node", "node has no name", 0, 2)], SAME),
    ("(1)", [("error", "bad-node-name", "not a unit name: '1'", 0, 3)], SAME),
    (
        "(r)[<(a)(b)]",
        [
            ("error", "malformed-legacy",
             "nodes in a legacy converging branch must follow a < mark", 8, 11),
        ],
        SAME,
    ),
    (
        "(r)[<(p){tin}<(a)]",
        [("error", "dangling-tag", "tag 'tin' cannot mark a legacy branch", 8, 13)],
        SAME,
    ),
    ("{tin}(a)", [("error", "dangling-tag", "tag 'tin' has no stream to mark", 0, 5)], SAME),
    (
        "(a){tin}{bin}(b)",
        [("error", "dangling-tag", "tag 'tin' has no stream to mark", 3, 8)],
        SAME,
    ),
    (
        "(raw)(C){PC}{TC}(prod)",
        [("error", "unknown-brace", "control node already carries code 'PC'", 12, 16)],
        SAME,
    ),
    # a second group brace, as a second control code, is an error in both modes
    (
        "(raw)(hex){1}{2}(prod)n|(raw)(hex){2}(prod)",
        [("error", "unknown-brace", "exchanger already belongs to group {1}", 13, 16)],
        SAME,
    ),
    (
        "(raw)(hex){1}{1}(prod)",
        [("error", "unknown-brace", "exchanger already belongs to group {1}", 13, 16)],
        SAME,
    ),
    (
        "(raw){blue}(prod)",
        [("error", "unknown-brace", "brace 'blue' is not recognized", 5, 11)],
        [("warning", "unknown-brace", "ignoring brace 'blue'", 5, 11)],
    ),
    (
        "(raw)(v){PC}(prod)",
        [("error", "unknown-brace", "brace 'PC' is not recognized", 8, 12)],
        [("warning", "unknown-brace", "ignoring brace 'PC'", 8, 12)],
    ),
    (
        "(raw)(hex)1{1}(hex)<1(prod)",
        [("error", "unknown-brace", "brace '1' is not recognized", 11, 14)],
        [
            ("warning", "unknown-brace", "ignoring brace '1'", 11, 14),
            ("error", "graph-invariant", "duplicate material edge hex-1 -> hex-2", 19, 21),
        ],
    ),
    (
        "(a){tin}[(b)](c)",
        [("error", "dangling-tag", "tag 'tin' must follow the opening bracket", 3, 8)],
        SAME,
    ),
    ("[(a)]", [("error", "branch-without-node", "branch has no node to fork from", 0, 1)], SAME),
    ("(a)](b)", [("error", "unmatched-bracket-close", "no open branch to close", 3, 4)], SAME),
    (
        "<&|(a)&|(b)",
        [("error", "branch-without-node", "converging branch has no node to merge into", 0, 3)],
        SAME,
    ),
    ("(a)&(b)", [("error", "stray-connector", "& is only valid inside <&|...|", 3, 4)], SAME),
    # the search for the connector's frame stops at a legacy frame
    (
        "(raw)(mix)<&|(raw)(v)[<(pp)&]|(prod)",
        [("error", "stray-connector", "& is only valid inside <&|...|", 27, 28)],
        SAME,
    ),
    (
        "(a)<&|(b)&(c)&|(d)",
        [
            ("error", "multiple-connector",
             "converging branch already has its & connection", 13, 14),
        ],
        SAME,
    ),
    ("(a)<&|&|(b)", [("error", "mark-without-node", "& has no node to connect", 6, 7)], SAME),
    ("(a)|", [("error", "unmatched-conv-close", "no open converging branch to close", 3, 4)], SAME),
    (
        "(a)<&|(b)[(c)|",
        [
            ("error", "unclosed-branch",
             "branch bracket is still open inside the converging branch", 9, 10),
        ],
        SAME,
    ),
    (
        "(a)<&|(b)|(c)",
        [
            ("error", "missing-connector",
             "converging branch closed without its & connection", 9, 10),
        ],
        SAME,
    ),
    (
        "(a){tin}<1(b)1",
        [("error", "dangling-tag", "tag 'tin' cannot mark a recycle target", 3, 8)],
        SAME,
    ),
    ("<1(a)1", [("error", "mark-without-node", "recycle mark has no node", 0, 2)], SAME),
    ("1(a)<1", [("error", "mark-without-node", "recycle mark has no node", 0, 1)], SAME),
    ("(a)<1(b)<1", [("error", "dangling-recycle", "recycle 1 already has a target", 8, 10)], SAME),
    ("(a)1(b)1", [("error", "dangling-recycle", "recycle 1 already has a source", 7, 8)], SAME),
    (
        "(a){tin}_1(b)<_1",
        [("error", "tag-on-signal", "tag 'tin' cannot mark a signal", 3, 8)],
        SAME,
    ),
    ("_1(a)", [("error", "mark-without-node", "signal mark has no node", 0, 2)], SAME),
    ("<_1(a)", [("error", "mark-without-node", "signal mark has no node", 0, 3)], SAME),
    (
        "(a)_1(b)_1",
        [("error", "dangling-signal", "signal 1 already has its out side", 8, 10)],
        SAME,
    ),
    (
        "(a)<_1(b)<_1",
        [("error", "dangling-signal", "signal 1 already has its in side", 9, 12)],
        SAME,
    ),
    (
        "(a)<(b)",
        [
            ("error", "malformed-legacy",
             "backward connection is only valid inside [<(...) branches", 3, 4),
        ],
        SAME,
    ),
    (
        "(a)[(b)n|(c)",
        [("error", "unclosed-branch", "still open at the train separator", 3, 4)],
        SAME,
    ),
    (
        "(a)<&|(b)n|(c)",
        [("error", "unclosed-converging", "still open at the train separator", 3, 4)],
        SAME,
    ),
    ("(a){tin}n|(b)", [("error", "dangling-tag", "tag 'tin' has no stream to mark", 3, 8)], SAME),
    ("(a){tin}", [("error", "dangling-tag", "tag 'tin' has no stream to mark", 3, 8)], SAME),
    ("(a){tin}]", [("error", "dangling-tag", "tag 'tin' has no stream to mark", 3, 8)], SAME),
    (
        "(a){tin}<&|(b)&|",
        [("error", "dangling-tag", "tag 'tin' has no stream to mark", 3, 8)],
        SAME,
    ),
    (
        "(a)<&|(b){tin}|",
        [("error", "dangling-tag", "tag 'tin' has no stream to mark", 9, 14)],
        SAME,
    ),
    ("(a)[(b)", [("error", "unclosed-branch", "still open at the end of the input", 3, 4)], SAME),
    (
        "(a)<&|(b)",
        [("error", "unclosed-converging", "still open at the end of the input", 3, 4)],
        SAME,
    ),
    (
        "(a)<2(b)_3(c)<1(d)<_1",
        [
            ("error", "dangling-recycle", "recycle 1 is never matched", 13, 15),
            ("error", "dangling-recycle", "recycle 2 is never matched", 3, 5),
            ("error", "dangling-signal", "signal 1 is never matched", 18, 21),
            ("error", "dangling-signal", "signal 3 is never matched", 8, 10),
        ],
        SAME,
    ),
    (
        "(a)<%12(b)<_7",
        [
            ("error", "dangling-recycle", "recycle 12 is never matched", 3, 7),
            ("error", "dangling-signal", "signal 7 is never matched", 10, 13),
        ],
        SAME,
    ),
    (
        "(raw",
        [("error", "unterminated-node", "node is missing its closing parenthesis", 0, 4)],
        SAME,
    ),
    (
        "(a){bin",
        [("error", "unterminated-brace", "brace is missing its closing bracket", 3, 7)],
        SAME,
    ),
    (
        "(a)<%1",
        [("error", "bad-recycle-digits", "a recycle mark with % needs exactly two digits", 3, 6)],
        SAME,
    ),
    # a bad recycle mark's span ends where lexing resumes, before the "x"
    (
        "(a)%1x",
        [("error", "bad-recycle-digits", "a recycle mark with % needs exactly two digits", 3, 5)],
        SAME,
    ),
    (
        "(a)<%1x",
        [("error", "bad-recycle-digits", "a recycle mark with % needs exactly two digits", 3, 6)],
        SAME,
    ),
    (
        "(a)<_x",
        [("error", "bad-signal-digits", "a signal mark needs at least one digit", 3, 5)],
        SAME,
    ),
    (
        "(a)_x",
        [("error", "bad-signal-digits", "a signal mark needs at least one digit", 3, 4)],
        SAME,
    ),
    ("(a)<x", [("error", "illegal-character", "character has no meaning here", 3, 4)], SAME),
    ("(a)!", [("error", "illegal-character", "character has no meaning here", 3, 4)], SAME),
    ("(a)<", [("error", "illegal-character", "character has no meaning here", 3, 4)], SAME),
    # marks take ASCII digits only; "²" passes str.isdigit, but int() rejects it
    ("(a)²", [("error", "illegal-character", "character has no meaning here", 3, 4)], SAME),
    ("(a)<١", [("error", "illegal-character", "character has no meaning here", 3, 4)], SAME),
    (
        "(a)_١",
        [("error", "bad-signal-digits", "a signal mark needs at least one digit", 3, 4)],
        SAME,
    ),
    (
        "(a)%",
        [("error", "bad-recycle-digits", "a recycle mark with % needs exactly two digits", 3, 4)],
        SAME,
    ),
    # names and exchanger group braces take ASCII digits only, like marks
    (
        "(raw-١)(v-١)(prod-١)",
        [("error", "bad-node-name", "not a unit name: 'raw-١'", 0, 7)],
        SAME,
    ),
    (
        "(raw)(hex){١}(v)(hex){١}(prod)",
        [("error", "unknown-brace", "brace '١' is not recognized", 10, 13)],
        [
            ("warning", "unknown-brace", "ignoring brace '١'", 10, 13),
            ("warning", "unknown-brace", "ignoring brace '١'", 21, 24),
        ],
    ),
    # a name or a control code must match whole: "$" also matches before a final "\n"
    ("(raw\n)(v)(prod)", [("error", "bad-node-name", "not a unit name: 'raw\\n'", 0, 6)], SAME),
    (
        "(raw-1\n)(v)(prod)",
        [("error", "bad-node-name", "not a unit name: 'raw-1\\n'", 0, 8)],
        SAME,
    ),
    (
        "(C){FC\n}",
        [("error", "unknown-brace", "brace 'FC\\n' is not recognized", 3, 8)],
        [
            ("warning", "unknown-brace", "ignoring brace 'FC\\n'", 3, 8),
            ("error", "missing-ctrl-code", "control node is missing its letter code", 0, 3),
        ],
    ),
    (
        "(raw)(frob)(prod)",
        [("error", "unknown-category", "category 'frob' is not in the registry", 5, 11)],
        [("warning", "unknown-category", "treating unknown category 'frob' as X", 5, 11)],
    ),
    (
        "(raw)(C)(prod)",
        [("error", "missing-ctrl-code", "control node is missing its letter code", 5, 8)],
        SAME,
    ),
    (
        "(raw)(hex){1}(prod)",
        [
            ("warning", "singleton-group",
             "group {1} has a single member, treating it as ungrouped", 5, 10),
        ],
        SAME,
    ),
    (
        "(raw-1)(v-1)(mix-1)(prod-1)n|(raw-1)(mix-1)",
        [
            ("warning", "renumbered",
             "explicit numbering is inconsistent, assigning fresh numbers", 29, 36),
        ],
        SAME,
    ),
    # two groups share one exchanger number, or two exchanger numbers one group
    (
        "(raw-1)(hex-1/1){1}(hex-2/2){1}(prod-1)",
        [
            ("warning", "renumbered",
             "explicit numbering is inconsistent, assigning fresh numbers", 19, 28),
        ],
        SAME,
    ),
    (
        "(raw-1)(hex-1/1){1}(hex-1/2){1}(prod-1)n|(raw-2)(hex-1/3){2}(hex-1/4){2}(prod-2)",
        [
            ("warning", "renumbered",
             "explicit numbering is inconsistent, assigning fresh numbers", 48, 57),
        ],
        SAME,
    ),
    # a label with a leading zero is not its unit's name, as in the loader
    (
        "(raw-01)(prod-1)",
        [
            ("warning", "renumbered",
             "explicit numbering is inconsistent, assigning fresh numbers", 0, 8),
        ],
        SAME,
    ),
    (
        "(raw-1)(v-007)(prod-1)",
        [
            ("warning", "renumbered",
             "explicit numbering is inconsistent, assigning fresh numbers", 7, 14),
        ],
        SAME,
    ),
    (
        "(raw-1)(hex-1/01)(prod-1)",
        [
            ("warning", "renumbered",
             "explicit numbering is inconsistent, assigning fresh numbers", 7, 17),
        ],
        SAME,
    ),
    # an exchanger written plain and as sub-units, in either order
    (
        "(raw-1)(hex-1/1)(hex-1)(prod-1)",
        [
            ("warning", "renumbered",
             "explicit numbering is inconsistent, assigning fresh numbers", 16, 23),
        ],
        SAME,
    ),
    (
        "(raw-1)(hex-1)(hex-1/1)(prod-1)",
        [
            ("warning", "renumbered",
             "explicit numbering is inconsistent, assigning fresh numbers", 14, 23),
        ],
        SAME,
    ),
    # a group on a plain exchanger
    (
        "(raw-1)(hex-1){1}(hex-2/1){1}(prod-1)",
        [
            ("warning", "renumbered",
             "explicit numbering is inconsistent, assigning fresh numbers", 7, 14),
        ],
        SAME,
    ),
    # a sub-unit on a unit that is not an exchanger, and the number 0
    (
        "(raw-1)(r-1/2)(prod-1)",
        [
            ("warning", "renumbered",
             "explicit numbering is inconsistent, assigning fresh numbers", 7, 14),
        ],
        SAME,
    ),
    (
        "(raw-1)(v-0)(prod-1)",
        [
            ("warning", "renumbered",
             "explicit numbering is inconsistent, assigning fresh numbers", 7, 12),
        ],
        SAME,
    ),
    (
        "(raw-7)(v)(prod-2)",
        [
            ("warning", "mixed-numbering",
             "only some nodes carry numbers, assigning fresh numbers", 7, 10),
        ],
        SAME,
    ),
    (
        "(raw)(v-1)(prod)",
        [
            ("warning", "mixed-numbering",
             "only some nodes carry numbers, assigning fresh numbers", 5, 10),
        ],
        SAME,
    ),
    ("(mix)<11", [("error", "graph-invariant", "self loop on mix-1", 7, 8)], SAME),
    (
        "(v)1(mix)<1",
        [("error", "graph-invariant", "duplicate material edge v-1 -> mix-1", 9, 11)],
        SAME,
    ),
    (
        "(raw)<1(v)1",
        [("error", "graph-invariant", "material edge into raw node raw-1", 10, 11)],
        SAME,
    ),
    (
        "(prod)(v)",
        [("error", "graph-invariant", "material edge out of prod node prod-1", 6, 9)],
        SAME,
    ),
    (
        "(v)_1_2(mix)<_1<_2",
        [("error", "graph-invariant", "duplicate signal edge v-1 -> mix-1", 15, 18)],
        SAME,
    ),
    (
        "(raw)[n|(v)]",
        [
            ("error", "unclosed-branch", "still open at the train separator", 5, 6),
            ("error", "unmatched-bracket-close", "no open branch to close", 11, 12),
        ],
        SAME,
    ),
    (
        "(raw)<1(v)n|(mix)]",
        [("error", "unmatched-bracket-close", "no open branch to close", 17, 18)],
        SAME,
    ),
    (
        "(raw)<%123(v)",
        [
            ("error", "dangling-recycle", "recycle 3 is never matched", 9, 10),
            ("error", "dangling-recycle", "recycle 12 is never matched", 5, 9),
        ],
        SAME,
    ),
    ("(raw)(r)[<(pp)<(raw)](prod)", [], SAME),
    ("(raw){bin}(abs){tout}(prod)", [], SAME),
    (
        "(raw)(frob){x}(prod)n|(C)",
        [("error", "unknown-brace", "brace 'x' is not recognized", 11, 14)],
        [
            ("warning", "unknown-brace", "ignoring brace 'x'", 11, 14),
            ("warning", "unknown-category", "treating unknown category 'frob' as X", 5, 11),
            ("error", "missing-ctrl-code", "control node is missing its letter code", 22, 25),
        ],
    ),
]


def _entries(text, strict):
    _graph, diags = parse(text, strict=strict)
    return [(d.level, d.code, d.message, d.start, d.end) for d in diags.entries]


@pytest.mark.parametrize("text, strict, lenient", CASES, ids=[repr(c[0]) for c in CASES])
def test_diagnostics_are_pinned(text, strict, lenient):
    assert _entries(text, True) == strict
    assert _entries(text, False) == (strict if lenient is SAME else lenient)


@pytest.mark.parametrize(
    "text, nodes",
    [
        ("(raw-01)(prod-1)", ["prod-1", "raw-1"]),
        ("(raw-1)(v-007)(prod-1)", ["prod-1", "raw-1", "v-1"]),
        ("(raw-1)(hex-1/01)(prod-1)", ["hex-1", "prod-1", "raw-1"]),
    ],
    ids=["feed", "valve", "sub-unit"],
)
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_leading_zero_labels_take_fresh_numbers(text, nodes, strict):
    # The parser reads a label only as the model spells the name, so a
    # leading zero renumbers the string instead of renaming the unit.
    g, diags = parse(text, strict=strict)
    assert [d.code for d in diags.entries] == ["renumbered"]
    assert sorted(g.nodes()) == nodes


_UNKNOWN = "treating unknown category 'frob' as X"
_RENUMBERED = "explicit numbering is inconsistent, assigning fresh numbers"


@pytest.mark.parametrize(
    "text, nodes, diagnostics",
    [
        (
            "(raw-3)(frob-1)(v-5)(prod-2)",
            ["raw-3", "X-1", "v-5", "prod-2"],
            [("warning", "unknown-category", _UNKNOWN, 7, 15)],
        ),
        # the unknown unit takes the name X-1 that a later label repeats
        (
            "(raw-1)(frob-1)(X-1)(prod-1)",
            ["raw-1", "X-1", "X-2", "prod-1"],
            [
                ("warning", "unknown-category", _UNKNOWN, 7, 15),
                ("warning", "renumbered", _RENUMBERED, 15, 20),
            ],
        ),
        # only an exchanger has sub-units
        (
            "(raw-1)(frob-1/2)(prod-1)",
            ["raw-1", "X-1", "prod-1"],
            [
                ("warning", "unknown-category", _UNKNOWN, 7, 17),
                ("warning", "renumbered", _RENUMBERED, 7, 17),
            ],
        ),
    ],
    ids=["numbered", "repeated-name", "sub-unit"],
)
def test_lenient_unknown_category_keeps_its_label(text, nodes, diagnostics):
    # Lenient parsing reads an unknown category as X and keeps the unit's
    # number, so the model decides whether X-n names the unit.
    g, diags = parse(text, strict=False)
    assert [(d.level, d.code, d.message, d.start, d.end) for d in diags.entries] == diagnostics
    assert g.nodes() == nodes


_SINGLETON = "group {%s} has a single member, treating it as ungrouped"


@pytest.mark.parametrize(
    "text, nodes, diagnostics",
    [
        ("(raw-1)(hex-1/1){1}(hex-1/2)(prod-1)", ["raw-1", "hex-1/1", "hex-1/2", "prod-1"], []),
        ("(raw-1)(hex-1/1){1}(prod-1)", ["raw-1", "hex-1/1", "prod-1"], []),
        # one group per number: the second brace renumbers, then each
        # brace is a singleton of the fresh numbering
        (
            "(raw-1)(hex-1/1){1}(hex-1/2){2}(prod-1)",
            ["raw-1", "hex-1", "hex-2", "prod-1"],
            [
                ("warning", "renumbered", _RENUMBERED, 19, 28),
                ("warning", "singleton-group", _SINGLETON % 1, 7, 16),
                ("warning", "singleton-group", _SINGLETON % 2, 19, 28),
            ],
        ),
        (
            "(raw)(hex){1}(hex)(prod)",
            ["raw-1", "hex-1", "hex-2", "prod-1"],
            [("warning", "singleton-group", _SINGLETON % 1, 5, 10)],
        ),
    ],
    ids=["labelled-shell", "labelled-lone-sub-unit", "two-groups-one-number", "fresh-numbers"],
)
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_a_group_brace_is_a_singleton_only_under_fresh_numbers(text, nodes, diagnostics, strict):
    # A numbered string's braces reach the model as written, so a brace
    # on a labelled sub-unit is no reason to ungroup it.
    g, diags = parse(text, strict=strict)
    assert [(d.level, d.code, d.message, d.start, d.end) for d in diags.entries] == diagnostics
    assert g.nodes() == nodes
