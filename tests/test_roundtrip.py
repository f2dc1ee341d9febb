"""Round trips: encode, parse back, compare; randomized stress included."""

import importlib
import random
import re

import pytest

import corpus
import genflow
import iso
from sfiles2 import encode, parse, parse_sfiles, roundtrip_check

_SUFFIX = re.compile(r"-\d+(?:/\d+)?\)")


def strip_numbers(numbered: str) -> str:
    """Independent projection from numbered to generalized notation."""
    return _SUFFIX.sub(")", numbered)


@pytest.mark.parametrize("key", [f.key for f in corpus.FIXTURES])
def test_roundtrip_check_passes_on_corpus(key):
    report = roundtrip_check(corpus.fixture(key).make())
    assert report.ok, report.problems
    assert bool(report)
    assert report.canonical == corpus.fixture(key).generalized


# Strings an encoder is made to write for the graph raw-1 -> prod-1, whose
# true strings are (raw)(prod) and (raw-1)(prod-1), and the one problem
# each makes roundtrip_check report.
_BROKEN_WRITES = {
    "reparse-failed": (
        "(raw)[",
        "(raw-1)(prod-1)",
        "reparse failed: unclosed-branch: still open at the end of the input",
    ),
    "not-idempotent": (
        "(raw-1)(prod-1)",
        "(raw-1)(prod-1)",
        "not idempotent: '(raw-1)(prod-1)' reparsed to '(raw)(prod)'",
    ),
    "populations": (
        "(raw)(v)(prod)",
        "(raw-1)(prod-1)",
        "node or edge populations changed across the round trip",
    ),
    "numbered-reparse": ("(raw)(prod)", "(raw-1)[", "numbered form did not reparse"),
    "numbered-idempotent": ("(raw)(prod)", "(raw-1)(prod)", "numbered form is not idempotent"),
    "numbered-graph": ("(raw)(prod)", "(raw-2)(prod-1)", "numbered round trip changed the graph"),
}


@pytest.mark.parametrize(
    "generalized, numbered, problem", _BROKEN_WRITES.values(), ids=list(_BROKEN_WRITES)
)
def test_roundtrip_check_reports_each_problem(monkeypatch, generalized, numbered, problem):
    parse_module = importlib.import_module("sfiles2.parse")
    monkeypatch.setattr(parse_module, "_encode_both", lambda graph: (generalized, numbered))
    report = roundtrip_check(corpus.build(["raw-1", "prod-1"], [("raw-1", "prod-1")]))
    assert (report.ok, report.problems, report.canonical) == (False, [problem], generalized)
    assert not report


def test_out_mark_right_after_a_two_digit_in_mark():
    # An id after % has exactly two digits: "<%111" is in-mark 11
    # followed by out-mark 1 on the same unit.
    names = ["raw-1"] + [f"v-{i}" for i in range(1, 13)] + ["prod-1"]
    edges = list(zip(names, names[1:])) + [(f"v-{13 - k}", f"v-{k}") for k in range(1, 7)]
    edges += [("v-12", f"v-{k}") for k in range(2, 6)] + [("v-6", "v-1")]
    g = corpus.build(names, edges)
    numbered = encode(g, mode="numbered")
    assert "(v-6)<%111(v-7)" in numbered
    assert parse_sfiles(numbered) == g
    assert roundtrip_check(g).ok


@pytest.mark.parametrize("key", [f.key for f in corpus.FIXTURES if f.numbered])
def test_numbered_projects_onto_generalized(key):
    f = corpus.fixture(key)
    assert strip_numbers(f.numbered) == f.generalized


@pytest.mark.parametrize("key", [f.key for f in corpus.FIXTURES if f.numbered])
def test_numbered_roundtrip_restores_exact_graph(key):
    f = corpus.fixture(key)
    g = f.make()
    assert parse_sfiles(str(encode(g, mode="numbered"))) == g


@pytest.mark.parametrize("key", [f.key for f in corpus.FIXTURES])
def test_canonical_string_is_idempotent(key):
    s = corpus.fixture(key).generalized
    g, diags = parse(s)
    assert diags.ok()
    assert str(encode(g)) == s


def test_random_flowsheets_roundtrip():
    rng = random.Random(20240817)
    for trial in range(300):
        g = genflow.random_flowsheet(rng)
        report = roundtrip_check(g)
        assert report.ok, (trial, report.problems)
        again = parse_sfiles(str(encode(g, mode="numbered")))
        assert again == g, trial


def test_random_small_flowsheets_match_up_to_isomorphism():
    rng = random.Random(99)
    checked = 0
    for _ in range(400):
        g = genflow.random_flowsheet(rng)
        if len(g.nodes()) > 8:
            continue
        back = parse_sfiles(str(encode(g)))
        assert iso.isomorphic(g, back)
        checked += 1
    assert checked >= 50


def test_renumbering_does_not_change_generalized_string():
    rng = random.Random(7)
    for trial in range(60):
        g = genflow.random_flowsheet(rng)
        base = str(encode(g))
        for _ in range(3):
            h = genflow.renumber_randomly(g, rng)
            assert str(encode(h)) == base, trial


def test_signal_across_trains_roundtrips():
    # A transmitter in one train driving a valve in another: the signal
    # pair must match up across the separator.
    g = corpus.build(
        ["raw-1", "tank-1", ("C-1", "LC"), "raw-2", "v-1", "prod-1"],
        [
            ("raw-1", "tank-1"),
            ("tank-1", "C-1"),
            ("raw-2", "v-1"),
            ("v-1", "prod-1"),
            ("C-1", "v-1", {"kind": "signal"}),
        ],
    )
    s = str(encode(g))
    assert "n|" in s
    assert "_1" in s and "<_1" in s
    assert parse_sfiles(str(encode(g, mode="numbered"))) == g
    report = roundtrip_check(g)
    assert report.ok, report.problems


def test_generalized_equals_stripped_numbered_everywhere():
    rng = random.Random(4242)
    for trial in range(150):
        g = genflow.random_flowsheet(rng)
        assert strip_numbers(str(encode(g, mode="numbered"))) == str(encode(g)), trial
