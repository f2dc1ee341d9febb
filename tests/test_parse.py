"""Parsing: tokens, reconstruction, numbering policy, diagnostics."""

import pytest

import corpus
from sfiles2 import NUMBERED, ParseError, encode, parse, parse_sfiles, tokenize


class TestTokenizer:
    def test_spans_cover_input(self):
        for f in corpus.FIXTURES:
            text = f.generalized
            toks = tokenize(text)
            pos = 0
            for t in toks:
                assert t.start == pos, (f.key, t)
                pos = t.end
            assert pos == len(text)

    def test_token_kinds(self):
        toks = tokenize("(raw){bin}(abs)<&|(raw){tin}&|[{tout}(prod)]{bout}(prod)")
        kinds = [t.kind for t in toks]
        assert kinds == [
            "node", "brace", "node", "conv_open", "node", "brace",
            "conv_connector", "conv_close", "branch_open", "brace", "node",
            "branch_close", "brace", "node",
        ]

    def test_recycle_and_signal_tokens(self):
        toks = tokenize("(mix)<1(v)1_2<_2n|")
        kinds = [t.kind for t in toks]
        assert kinds == [
            "node", "recycle_in", "node", "recycle_out",
            "signal_out", "signal_in", "train_sep",
        ]

    def test_percent_recycle_ids(self):
        text = "(a)<%12(b)%12"
        toks = tokenize(text)
        assert [t.kind for t in toks] == ["node", "recycle_in", "node", "recycle_out"]
        assert toks[1].text == "12"
        assert text[toks[1].start : toks[1].end] == "<%12"
        assert text[toks[3].start : toks[3].end] == "%12"

    def test_legacy_back_token(self):
        toks = tokenize("(r)[<(pp)<(raw)]")
        kinds = [t.kind for t in toks]
        assert kinds == [
            "node", "branch_open", "legacy_back", "node",
            "legacy_back", "node", "branch_close",
        ]

    def test_error_tokens_carry_codes(self):
        toks = tokenize("(raw")
        assert toks[-1].kind == "error"
        assert toks[-1].text == "unterminated-node"
        toks = tokenize("(v)!")
        assert toks[-1].text == "illegal-character"
        toks = tokenize("(v)%1x")
        assert any(t.text == "bad-recycle-digits" for t in toks if t.kind == "error")

    def test_tokens_are_named_tuples(self):
        (tok,) = tokenize("(raw-1)")
        assert tok == ("node", "raw-1", 0, 7)
        assert (tok.kind, tok.text, tok.start, tok.end) == tuple(tok)


class TestReconstruction:
    @pytest.mark.parametrize("key", [f.key for f in corpus.FIXTURES if f.numbered])
    def test_numbered_strings_rebuild_original_graph(self, key):
        f = corpus.fixture(key)
        g, diags = parse(f.numbered)
        assert diags.ok(), [str(d) for d in diags.entries]
        assert g == f.make(), key

    @pytest.mark.parametrize("key", [f.key for f in corpus.FIXTURES])
    def test_generalized_strings_parse_clean(self, key):
        f = corpus.fixture(key)
        g, diags = parse(f.generalized)
        assert diags.ok(), [str(d) for d in diags.entries]
        assert g is not None
        assert len(g.nodes()) == len(f.make().nodes())

    def test_occurrence_numbering_matches_labels(self):
        # Generalized input gets category counters in reading order, so
        # re-parsing the bare refrigeration string must label the first
        # seen lone exchanger hex-2 only after the grouped one took
        # equipment number 1 at its own first appearance.
        f = corpus.fixture("refrigeration_cycle")
        g, diags = parse(f.generalized)
        assert diags.ok()
        assert g == f.make()

    def test_legacy_strings_rebuild_original_graph(self):
        f = corpus.fixture("reactor_recycle_plant")
        g, diags = parse(f.legacy_numbered)
        assert diags.ok()
        assert g == f.make()
        g2, diags2 = parse(f.legacy_generalized)
        assert diags2.ok()
        assert g2 == f.make()

    def test_explicit_numbering_is_honored(self):
        g, diags = parse("(raw-7)(v-3)(prod-2)")
        assert diags.ok()
        assert sorted(g.nodes()) == ["prod-2", "raw-7", "v-3"]

    def test_partial_numbering_renumbers_with_warning(self):
        g, diags = parse("(raw-7)(v)(prod-2)", strict=False)
        assert g is not None
        assert any(d.code in ("renumbered", "mixed-numbering") for d in diags.warnings())
        assert sorted(g.nodes()) == ["prod-1", "raw-1", "v-1"]

    def test_duplicate_labels_renumber(self):
        g, diags = parse("(raw-1)(v-1)(mix-1)(prod-1)n|(raw-1)(mix-1)", strict=False)
        assert g is not None
        assert any(d.code == "renumbered" for d in diags.warnings())
        assert g.nodes().count("raw-1") == 1
        assert "raw-2" in g.nodes()

    @pytest.mark.parametrize(
        "text, unit",
        [
            ("(raw-1)(r-1/2)(prod-1)", "r-1"),
            ("(raw-0)(r-1)(prod-1)", "r-1"),
            ("(raw-1)(hex-1/0)(prod-1)", "hex-1"),
        ],
        ids=["sub-unit-off-exchanger", "number-zero", "sub-unit-zero"],
    )
    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
    def test_invalid_explicit_label_renumbers(self, text, unit, strict):
        g, diags = parse(text, strict=strict)
        assert [(d.level, d.code) for d in diags.entries] == [("warning", "renumbered")]
        assert sorted(g.nodes()) == sorted(["raw-1", unit, "prod-1"])

    def test_mixed_plain_and_sub_unit_exchanger_renumbers(self):
        g, diags = parse("(raw-1)(hex-1/1){1}(hex-1)(hex-1/2){1}(prod-1)")
        assert [d.code for d in diags.entries] == ["renumbered"]
        assert sorted(g.nodes()) == ["hex-1/1", "hex-1/2", "hex-2", "prod-1", "raw-1"]

    def test_grouped_exchangers_share_equipment_number(self):
        g, diags = parse("(raw)(hex){1}(dist)[(prod)](hex){1}(prod)")
        assert diags.ok()
        multi = [v for v in g.equipment_groups().values() if len(v) > 1]
        assert multi == [["hex-1/1", "hex-1/2"]]

    def test_numbered_sub_units_share_a_shell_without_group_braces(self):
        # In a numbered string the labels alone name a shared shell.
        g, diags = parse("(raw-1)(hex-1/1)(hex-1/2)(prod-1)")
        assert diags.entries == []
        assert g == parse_sfiles("(raw-1)(hex-1/1){1}(hex-1/2){1}(prod-1)")

    def test_generalized_exchangers_without_group_braces_are_plain(self):
        g, diags = parse("(raw)(hex)(hex)(prod)")
        assert diags.entries == []
        assert g.nodes() == ["raw-1", "hex-1", "hex-2", "prod-1"]

    def test_singleton_group_brace_is_dropped(self):
        g, diags = parse("(raw)(hex){1}(prod)", strict=False)
        assert g is not None
        assert any(d.code == "singleton-group" for d in diags.warnings())
        assert sorted(g.nodes()) == ["hex-1", "prod-1", "raw-1"]

    def test_unknown_category_lenient_becomes_placeholder(self):
        g, diags = parse("(raw)(frob)(prod)", strict=False)
        assert g is not None
        assert any(d.code == "unknown-category" for d in diags.warnings())
        assert "X-1" in g.nodes()

    def test_unknown_category_strict_fails(self):
        g, diags = parse("(raw)(frob)(prod)")
        assert g is None
        assert any(d.code == "unknown-category" for d in diags.errors())

    def test_controller_requires_code(self):
        g, diags = parse("(raw)(C)_1(v)<_1(prod)")
        assert g is None
        assert any(d.code == "missing-ctrl-code" for d in diags.errors())

    def test_unknown_brace_lenient_warns_and_skips(self):
        g, diags = parse("(raw){blue}(prod)", strict=False)
        assert g is not None
        assert any(d.code == "unknown-brace" for d in diags.warnings())
        assert g == corpus.build(["raw-1", "prod-1"], [("raw-1", "prod-1")])

    def test_whitespace_is_rejected(self):
        g, diags = parse("(raw) (prod)")
        assert g is None
        assert any(d.code == "illegal-character" for d in diags.errors())


@pytest.mark.parametrize(
    "text, edges, canonical",
    [
        ("n|", [], ("", "")),
        ("(raw)(prod)n|", [("raw-1", "prod-1")], ("(raw)(prod)", "(raw-1)(prod-1)")),
        ("n|(raw)(prod)", [("raw-1", "prod-1")], ("(raw)(prod)", "(raw-1)(prod-1)")),
        (
            "(raw)(prod)n|n|(raw)(prod)",
            [("raw-1", "prod-1"), ("raw-2", "prod-2")],
            ("(raw)(prod)n|(raw)(prod)", "(raw-1)(prod-1)n|(raw-2)(prod-2)"),
        ),
    ],
    ids=["alone", "trailing", "leading", "doubled"],
)
def test_empty_trains_are_dropped(text, edges, canonical):
    # Pinned as it stands: both modes accept an empty train without a
    # diagnostic and build nothing for it.
    for strict in (True, False):
        g, diags = parse(text, strict=strict)
        assert diags.entries == []
        assert g.nodes() == [name for edge in edges for name in edge]
        assert [(src, dst, attr.kind, attr.tag) for src, dst, attr in g.edges()] == [
            (src, dst, "material", None) for src, dst in edges
        ]
        assert (str(encode(g)), str(encode(g, NUMBERED))) == canonical


class TestErrorSuite:
    @pytest.mark.parametrize("case,text,code", corpus.MALFORMED)
    def test_malformed_inputs_report_designated_code(self, case, text, code):
        g, diags = parse(text)
        assert g is None, case
        codes = [d.code for d in diags.errors()]
        assert code in codes, (case, codes)

    @pytest.mark.parametrize("case,text,code", corpus.MALFORMED)
    def test_error_spans_stay_inside_input(self, case, text, code):
        _, diags = parse(text)
        for d in diags.errors():
            assert 0 <= d.start <= d.end <= len(text), case

    def test_parse_sfiles_raises(self):
        with pytest.raises(ParseError) as exc:
            parse_sfiles("(raw)[")
        assert exc.value.diagnostics is not None

    def test_parse_sfiles_returns_graph(self):
        f = corpus.fixture("absorber")
        assert parse_sfiles(f.numbered) == f.make()


class TestRecovery:
    def test_bad_train_does_not_poison_the_next(self):
        g, diags = parse("(raw)[(v)n|(raw)(prod)", strict=False)
        # First train is broken; the second still parses.
        assert any(d.code == "unclosed-branch" for d in diags.errors())
        assert g is None  # errors keep the result unusable in any mode

    def test_each_train_reports_its_own_error(self):
        _, diags = parse("(raw)[n|(v)]", strict=False)
        codes = sorted(d.code for d in diags.errors())
        assert codes == ["unclosed-branch", "unmatched-bracket-close"]

    def test_recycle_registry_spans_trains(self):
        f = corpus.fixture("refrigeration_cycle")
        g, diags = parse(f.numbered)
        assert diags.ok()
        assert g == f.make()

    def test_recycle_id_mismatch_across_trains(self):
        _, diags = parse("(mix)<1(prod)n|(raw)2(v)")
        assert any(d.code == "dangling-recycle" for d in diags.errors())
