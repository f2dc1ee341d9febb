"""Command line interface: commands, exit codes, output formats."""

import hashlib
import importlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
from sfiles2 import save_json
from sfiles2.cli import main

FIXDIR = Path(__file__).parent / "fixtures"


def fixture_path(key: str) -> str:
    return str(FIXDIR / f"{key}.json")


# Malformed graph files that the JSON parser or the edge table refuse, not
# the schema checks: bytes that are not UTF-8, nesting past the recursion
# limit, an integer past the digit limit, a column tag on a signal edge.
_CRASH_INPUTS = {
    "not-utf8": b"\xff",
    "deep-nesting": b"[" * 100000,
    "big-integer": b'{"nodes": [], "edges": [], "x": ' + b"1" * 5000 + b"}",
    "tagged-signal": json.dumps({
        "nodes": [{"name": "C-1", "ctrl": "FC"}, {"name": "v-1"}],
        "edges": [{"src": "C-1", "dst": "v-1", "kind": "signal", "tag": "bin"}],
    }).encode(),
}


class TestEncode:
    def test_encode_file(self, capsys):
        rc = main(["encode", fixture_path("absorber")])
        assert rc == 0
        assert capsys.readouterr().out == corpus.fixture("absorber").generalized + "\n"

    def test_encode_numbered(self, capsys):
        rc = main(["encode", "--numbered", fixture_path("absorber")])
        assert rc == 0
        assert capsys.readouterr().out == corpus.fixture("absorber").numbered + "\n"

    def test_encode_legacy(self, capsys):
        rc = main(["encode", "--legacy-converging", fixture_path("reactor_recycle_plant")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == corpus.fixture("reactor_recycle_plant").legacy_generalized + "\n"

    def test_encode_many_files_one_line_each(self, capsys):
        rc = main(["encode", fixture_path("absorber"), fixture_path("bypass_split")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            corpus.fixture("absorber").generalized,
            corpus.fixture("bypass_split").generalized,
        ]

    def test_encode_stdin(self, capsys, monkeypatch):
        blob = save_json(corpus.fixture("flow_control_loop").make()).decode()
        monkeypatch.setattr("sys.stdin", io.StringIO(blob))
        rc = main(["encode", "-"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == corpus.fixture("flow_control_loop").generalized

    def test_encode_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.txt"
        rc = main(["encode", "-o", str(target), fixture_path("absorber")])
        assert rc == 0
        assert target.read_text() == corpus.fixture("absorber").generalized + "\n"

    def test_missing_file_is_schema_exit(self, capsys):
        path = "/nonexistent/file.json"
        rc = main(["encode", path])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: [Errno 2] No such file or directory: '{path}'\n"

    def test_bad_schema_exit(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"nodes": "nope"}')
        assert main(["encode", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {p}: nodes must be a list\n"

    def test_leading_zero_name_is_schema_exit(self, tmp_path, capsys):
        # The name is refused where it is declared, not renamed to raw-1.
        p = tmp_path / "bad.json"
        doc = {
            "nodes": [{"name": "raw-01"}, {"name": "prod-1"}],
            "edges": [{"src": "raw-01", "dst": "prod-1"}],
        }
        p.write_text(json.dumps(doc))
        assert main(["encode", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {p}: nodes[0].name: not a node name: 'raw-01'\n"

    def test_invariant_exit(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        doc = {
            "nodes": [{"name": "prod-1"}, {"name": "v-1"}],
            "edges": [{"src": "prod-1", "dst": "v-1"}],
        }
        p.write_text(json.dumps(doc))
        assert main(["encode", str(p)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {p}: material edge out of prod node prod-1\n"

    @pytest.mark.parametrize("ctrl", ["", "fc", "F}C"])
    def test_unwritable_ctrl_code_is_invariant_exit(self, tmp_path, ctrl):
        p = tmp_path / "bad.json"
        doc = {
            "nodes": [{"name": "raw-1"}, {"name": "C-1", "ctrl": ctrl}, {"name": "prod-1"}],
            "edges": [{"src": "raw-1", "dst": "prod-1"}],
        }
        p.write_text(json.dumps(doc))
        assert main(["encode", str(p)]) == 3

    def test_legacy_unencodable_is_invariant_exit(self):
        assert main(["encode", "--legacy-converging", fixture_path("absorber")]) == 3

    @pytest.mark.parametrize("blob", _CRASH_INPUTS.values(), ids=list(_CRASH_INPUTS))
    def test_malformed_document_is_schema_exit(self, tmp_path, capsys, blob):
        p = tmp_path / "bad.json"
        p.write_bytes(blob)
        assert main(["encode", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {p}: ")
        assert captured.err.count("\n") == 1

    def test_lenient_prints_a_warning_per_unknown_key(self, tmp_path, capsys):
        p = tmp_path / "extra.json"
        p.write_text(json.dumps({"nodes": [{"name": "v-1", "colour": "red"}], "edges": []}))
        assert main(["encode", "--lenient", str(p)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "(v)\n"
        assert captured.err == f"warning: {p}: nodes[0]: ignoring unknown keys ['colour']\n"


class TestDecode:
    def test_single_decode_prints_canonical_json(self, capsys):
        f = corpus.fixture("absorber")
        rc = main(["decode", f.numbered])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.encode() == save_json(f.make())

    def test_multi_decode_prints_ndjson(self, capsys):
        f = corpus.fixture("absorber")
        rc = main(["decode", f.numbered, f.generalized])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        for line in lines:
            doc = json.loads(line)
            assert set(doc) == {"nodes", "edges"}

    def test_multi_decode_lines_are_compact_save_json(self, capsys, tmp_path):
        fixtures = [f for f in corpus.FIXTURES if f.numbered]
        texts = [f.numbered for f in fixtures]
        want = "".join(
            json.dumps(json.loads(save_json(f.make())), separators=(",", ":")) + "\n"
            for f in fixtures
        )
        assert main(["decode", *texts]) == 0
        assert capsys.readouterr().out == want
        target = tmp_path / "out.jsonl"
        assert main(["decode", *texts, "-o", str(target)]) == 0
        assert target.read_bytes() == want.encode("utf-8")

    def test_single_decode_output_file_is_save_json(self, tmp_path):
        f = corpus.fixture("reactor_recycle_plant")
        target = tmp_path / "out.json"
        assert main(["decode", f.numbered, "-o", str(target)]) == 0
        assert target.read_bytes() == save_json(f.make())

    def test_decode_stdin_crlf(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(" (raw)(hex)(prod)\r\n(raw)(r)(prod) \r\n"))
        assert main(["decode", "-"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        for line in lines:
            assert set(json.loads(line)) == {"nodes", "edges"}

    def test_decode_parse_error_exit_and_caret(self, capsys):
        rc = main(["decode", "(raw)["])
        assert rc == 4
        err = capsys.readouterr().err
        assert "unclosed-branch" in err
        assert "^" in err

    def test_decode_lenient_accepts_unknown_category(self, capsys):
        rc = main(["decode", "--lenient", "(raw)(frob)(prod)"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(n["name"] == "X-1" for n in doc["nodes"])

    def test_decode_strict_rejects_unknown_category(self):
        assert main(["decode", "(raw)(frob)(prod)"]) == 4


class TestCanon:
    def test_scrambled_input_normalizes(self, capsys):
        scrambled = "(raw){bin}(abs)<&|(raw){tin}&|[{bout}(prod)]{tout}(prod)"
        rc = main(["canon", scrambled])
        assert rc == 0
        assert capsys.readouterr().out.strip() == corpus.fixture("absorber").generalized

    def test_canon_is_identity_on_canonical_input(self, capsys):
        for f in corpus.FIXTURES:
            rc = main(["canon", f.generalized])
            assert rc == 0
            assert capsys.readouterr().out.strip() == f.generalized, f.key

    def test_canon_stdin_crlf(self, capsys, monkeypatch):
        f = corpus.fixture("absorber")
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{f.numbered}\r\n\r\n {f.generalized}\r\n"))
        assert main(["canon", "-"]) == 0
        assert capsys.readouterr().out.splitlines() == [f.generalized, f.generalized]

    def test_canon_can_renumber(self, capsys):
        f = corpus.fixture("reactor_recycle_plant")
        rc = main(["canon", "--numbered", f.generalized])
        assert rc == 0
        assert capsys.readouterr().out.strip() == f.numbered

    def test_parse_error_exit_and_caret(self, capsys):
        assert main(["canon", "(raw)["]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error[unclosed-branch]: still open at the end of the input\n"
            "  (raw)[\n"
            "       ^\n"
        )

    def test_lenient_warning_still_succeeds(self, capsys):
        assert main(["canon", "--lenient", "(raw)(frob)(prod)"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "(raw)(X)(prod)\n"
        assert captured.err.startswith(
            "warning[unknown-category]: treating unknown category 'frob' as X\n"
        )
        assert captured.err.endswith("       ^^^^^^\n")

    def test_unencodable_graph_is_invariant_exit(self, capsys):
        text = "(raw)(mix)<&|(raw)&(v)(prod)|(prod)"
        assert main(["canon", "--legacy-converging", text]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: legacy converging notation requires the feed at the end of the branch\n"
        )


class TestCheck:
    def test_ok_report(self, capsys):
        rc = main(["check", fixture_path("reactor_recycle_plant")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith(fixture_path("reactor_recycle_plant"))
        assert ": ok" in out

    def test_degree_notes_do_not_fail(self, tmp_path, capsys):
        doc = {
            "nodes": [{"name": "raw-1"}, {"name": "dist-1"}, {"name": "prod-1"}],
            "edges": [
                {"src": "raw-1", "dst": "dist-1"},
                {"src": "dist-1", "dst": "prod-1"},
            ],
        }
        p = tmp_path / "thin_column.json"
        p.write_text(json.dumps(doc))
        rc = main(["check", str(p)])
        assert rc == 0
        out = capsys.readouterr().out
        assert ": ok (1 notes)" in out
        assert "warning[degree]" in out

    def test_unreadable_file_fails_check(self, capsys):
        rc = main(["check", "/nonexistent/file.json"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_mixed_paths_report_individually(self, capsys):
        rc = main(["check", fixture_path("absorber"), "/nonexistent/x.json"])
        assert rc == 1
        out = capsys.readouterr().out.splitlines()
        assert any(": ok" in line for line in out)
        assert any("FAIL" in line for line in out)

    def test_unencodable_graph_fails_and_the_batch_goes_on(self, tmp_path, capsys):
        # 100 two-way pipe pairs need 100 recycle ids; the notation has 99
        names = [f"pp-{i}" for i in range(1, 102)]
        edges = [{"src": a, "dst": b} for a, b in zip(names, names[1:])]
        edges += [{"src": e["dst"], "dst": e["src"]} for e in edges]
        p = tmp_path / "overflow.json"
        p.write_text(json.dumps({"nodes": [{"name": n} for n in names], "edges": edges}))
        rc = main(["check", str(p), fixture_path("absorber")])
        assert rc == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{p}: FAIL (more than 99 recycle connections in one string)",
            f"{fixture_path('absorber')}: ok",
        ]

    @pytest.mark.parametrize("blob", _CRASH_INPUTS.values(), ids=list(_CRASH_INPUTS))
    def test_malformed_document_fails_and_the_batch_goes_on(self, tmp_path, capsys, blob):
        p = tmp_path / "bad.json"
        p.write_bytes(blob)
        rc = main(["check", fixture_path("bypass_split"), str(p), fixture_path("absorber")])
        assert rc == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"{fixture_path('bypass_split')}: ok"
        assert out[1].startswith(f"{p}: FAIL (")
        assert out[2:] == [f"{fixture_path('absorber')}: ok"]

    def test_roundtrip_failure_fails_check(self, tmp_path, capsys, monkeypatch):
        # An encoder that writes a string its parser refuses.
        parse_module = importlib.import_module("sfiles2.parse")
        monkeypatch.setattr(parse_module, "_encode_both", lambda graph: ("(raw)[", "(raw-1)["))
        p = tmp_path / "pair.json"
        p.write_bytes(save_json(corpus.build(["raw-1", "prod-1"], [("raw-1", "prod-1")])))
        rc = main(["check", str(p)])
        assert rc == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{p}: FAIL (1 notes)",
            "  error[roundtrip] reparse failed: unclosed-branch:"
            " still open at the end of the input",
        ]

    def test_no_paths_is_a_usage_error(self, capsys):
        # An empty file list must not pass silently, as with encode and decode.
        with pytest.raises(SystemExit) as exc:
            main(["check"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the following arguments are required: paths" in captured.err


class TestRegistry:
    def test_json_has_all_rows(self, capsys):
        rc = main(["registry"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 32
        cats = {r["category"] for r in rows}
        assert {"raw", "prod", "hex", "dist", "C", "X"} <= cats
        raw = next(r for r in rows if r["category"] == "raw")
        assert raw["inlets"] == {"min": 0, "max": 0}

    def test_table_format(self, capsys):
        rc = main(["registry", "--format", "table"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "category" in out.splitlines()[0]
        assert any(line.startswith("dist") for line in out.splitlines())

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("json", "1719dca7f49ea34bc7f49ae87c59fd6bb1b953b7fe58891c68456e6788e675c8"),
            ("table", "1b17faa25dde3d603993abb5964e6becff5681af69b8dafbf5f7d20d721f3e97"),
        ],
    )
    def test_output_bytes(self, capsys, fmt, digest):
        # The sha256 of each format's whole output: any changed byte shows.
        assert main(["registry", "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


_GOOD = corpus.fixture("absorber")
# A command whose second item fails, and the exit code it must return.
_FAILING_BATCHES = {
    "encode-missing-file": (
        ["encode", fixture_path("absorber"), "/nonexistent/x.json", fixture_path("bypass_split")],
        2,
    ),
    "encode-unencodable": (
        ["encode", "--legacy-converging", fixture_path("bypass_split"), fixture_path("absorber")],
        3,
    ),
    "decode-parse-error": (["decode", _GOOD.numbered, "(raw)[", _GOOD.generalized], 4),
    "canon-parse-error": (["canon", _GOOD.numbered, "(raw)[", _GOOD.generalized], 4),
    "canon-unencodable": (
        ["canon", "--legacy-converging", "(raw)(hex)(prod)", "(raw)(mix)<&|(raw)&(v)(prod)|(prod)"],
        3,
    ),
}


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output-file"])
@pytest.mark.parametrize("argv, code", _FAILING_BATCHES.values(), ids=list(_FAILING_BATCHES))
def test_a_failure_after_a_good_item_writes_nothing(argv, code, to_file, tmp_path, capsys):
    target = tmp_path / "out"
    assert main([*argv, "-o", str(target)] if to_file else argv) == code
    assert capsys.readouterr().out == ""
    assert not target.exists()


_ONE_GOOD_ITEM = {
    "encode": ["encode", fixture_path("absorber")],
    "decode": ["decode", _GOOD.numbered],
    "canon": ["canon", _GOOD.numbered],
}


@pytest.mark.parametrize("argv", _ONE_GOOD_ITEM.values(), ids=list(_ONE_GOOD_ITEM))
def test_an_unwritable_output_file_is_schema_exit(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "out"
    assert main([*argv, "-o", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{target}'\n"


def test_module_entrypoint_runs_as_subprocess():
    f = corpus.fixture("absorber")
    proc = subprocess.run(
        [sys.executable, "-m", "sfiles2.cli", "canon", f.numbered],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == f.generalized


def test_unknown_command_errors():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
