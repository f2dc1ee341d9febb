"""One sha256 over everything the encoder, the ranking and the parser write.

    PYTHONPATH=src python3 tools/output_digest.py

prints one hex digest and a record count.  For every input graph it
hashes the generalized and the numbered string, both again in legacy
converging form, the ``rank_graph`` table and the ``roundtrip_check``
report, each one or the text of the ``EncodeError`` it raised; then the
strict and the lenient ``parse`` of each string it wrote.  The graphs are
the corpus fixtures, 400 seeded genflow plants with a renumbered copy
each, every graph of the benchmark's ``plants``, ``scaled`` and
``decode_long`` inputs at seed 1, 2-5 renumbered copies of each
component of the first 200 of those plants, some joined by signals
between copies or sharing exchanger shells across copies
(``genflow.repeat_component``), ``corpus.controlled_trains``,
``corpus.shell_trains``, ``corpus.half_controlled_trains`` and
``corpus.lollipop``, and a renumbered copy of the first two
(``genflow.renumber_randomly``).  It also parses every ``decode_long``
text at seed 1 (truncations and ``corpus.MALFORMED`` included), 20,000
seeded joins of ``corpus.FRAGMENTS`` and the ``SPELLINGS``, numbered
strings with labels that are not the one spelling of a name.  A parse is
hashed as the graph's ``save_json`` (or None) and each diagnostic's
level, code, message, start and end.  Last come in-process runs of the
``encode``, ``decode``, ``canon``, ``check`` and ``registry`` commands,
each hashed as its exit code (or the exception it raised), stdout,
stderr and ``-o`` bytes: over the fixture files, their strings,
``corpus.MALFORMED``, malformed graph files, stdin, batches with a bad
item in the middle, and both registry formats.  Two checkouts that print
the same digest write the same bytes, decode every one of these strings
alike and give the same command line results.  The program is imported
from ``PYTHONPATH``; the inputs come from this file's own checkout.

Compare digests only under one Python minor version.  Under 3.10.13 and
3.11.7 the digest differs in 8 command line records, because
``load_json`` passes Python's own digit-limit message through: "Exceeds
the limit (4300) ..." under 3.10 and "(4300 digits)" under 3.11.  Every
encoding and parse record is the same under both.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

import canon_oracle  # noqa: E402
import corpus  # noqa: E402
import gen  # noqa: E402
import genflow  # noqa: E402
from sfiles2 import (  # noqa: E402
    EncodeError, FlowsheetGraph, encode, parse, rank_graph, roundtrip_check, save_json,
)
from sfiles2.cli import main as cli_main  # noqa: E402


def _build(spec: gen.Spec) -> FlowsheetGraph:
    g = FlowsheetGraph()
    for name, ctrl in spec.nodes:
        g.add_node(name, ctrl=ctrl)
    for src, dst, kind, tag in spec.edges:
        g.add_edge(src, dst, kind=kind, tag=tag)
    return g


def graphs():
    plants = [genflow.random_flowsheet(random.Random(seed)) for seed in range(400)]
    rng = random.Random(5)
    yield from (f.make() for f in corpus.FIXTURES)
    for g in plants:
        yield g
        yield genflow.renumber_randomly(g, rng)
    for item in gen.plants(1) + gen.scaled(1):
        yield _build(item.spec)
    for text in gen.decode_long(1, corpus.MALFORMED):
        if text.spec is not None:
            yield _build(text.spec)
    rng = random.Random(7)
    for g in plants[:200]:
        for comp in canon_oracle._components(g):
            yield genflow.repeat_component(
                g, comp, rng.randint(2, 5), rng, signals=rng.randint(0, 3),
                shells=rng.random() < 0.5, interleave=rng.random() < 0.5,
            )
    yield corpus.controlled_trains()
    yield corpus.shell_trains()
    yield corpus.half_controlled_trains()
    yield corpus.lollipop()
    rng = random.Random(13)
    yield genflow.renumber_randomly(corpus.controlled_trains(), rng)
    yield genflow.renumber_randomly(corpus.shell_trains(), rng)


# Labels with leading zeros: the parser renumbers such a string with a warning.
SPELLINGS = ["(raw-01)(prod-1)", "(raw-1)(v-007)(prod-1)", "(raw-1)(hex-1/01)(prod-1)"]


def texts():
    yield from (text.text for text in gen.decode_long(1, corpus.MALFORMED))
    rng = random.Random(11)
    for _ in range(20000):
        yield "".join(rng.choice(corpus.FRAGMENTS) for _ in range(rng.randrange(21)))
    yield from SPELLINGS


def _field(make) -> str:
    try:
        return make()
    except EncodeError as exc:
        return f"EncodeError: {exc}"


def _table(g: FlowsheetGraph) -> str:
    table = rank_graph(g)
    return repr((sorted(table.rank.items()), table.subgraph_order))


def _report(g: FlowsheetGraph) -> str:
    report = roundtrip_check(g)
    return repr((report.ok, report.problems, report.canonical))


def decoded(text: str) -> str:
    """One line per mode: the graph's JSON or None, then every diagnostic."""
    lines = []
    for strict in (True, False):
        graph, diags = parse(text, strict=strict)
        doc = None if graph is None else save_json(graph)
        entries = [(d.level, d.code, d.message, d.start, d.end) for d in diags.entries]
        lines.append(repr((doc, entries)) + "\n")
    return "".join(lines)


def record(g: FlowsheetGraph) -> str:
    """Six tab-separated fields, a field that raises ``EncodeError`` holding
    its text, followed by the decoding of each string written."""
    fields = []
    written = []
    for mode in ("generalized", "numbered"):
        for legacy in (False, True):
            try:
                text = str(encode(g, mode, legacy_converging=legacy))
            except EncodeError as exc:
                fields.append(f"EncodeError: {exc}")
            else:
                fields.append(text)
                written.append(text)
    fields.append(_field(lambda: _table(g)))
    fields.append(_field(lambda: _report(g)))
    return "\t".join(fields) + "\n" + "".join(map(decoded, written))


# Graph files the loader or the encoder must refuse, by name.
_OVERFLOW = [f"pp-{i}" for i in range(1, 102)]  # 100 two-way pairs; the notation has 99 ids
BAD_FILES = {
    "invalid.json": b"[",
    "schema.json": b'{"nodes": "nope"}',
    "invariant.json": json.dumps(
        {"nodes": [{"name": "prod-1"}, {"name": "v-1"}], "edges": [{"src": "prod-1", "dst": "v-1"}]}
    ).encode(),
    "extra-key.json": b'{"nodes": [{"name": "v-1", "colour": "red"}], "edges": []}',
    "overflow.json": json.dumps({
        "nodes": [{"name": n} for n in _OVERFLOW],
        "edges": [
            {"src": a, "dst": b}
            for x, y in zip(_OVERFLOW, _OVERFLOW[1:]) for a, b in ((x, y), (y, x))
        ],
    }).encode(),
    "not-utf8.json": b"\xff",
    "deep.json": b"[" * 100000,
    "big-int.json": b'{"nodes": [], "edges": [], "x": ' + b"1" * 5000 + b"}",
    "signal-tag.json": json.dumps({
        "nodes": [{"name": "C-1", "ctrl": "FC"}, {"name": "v-1"}],
        "edges": [{"src": "C-1", "dst": "v-1", "kind": "signal", "tag": "bin"}],
    }).encode(),
}


def run_cli(argv: list[str], stdin: str = "") -> str:
    """One command in the working directory: its argv, exit code (or the
    exception it raised), stdout, stderr and the bytes of ``out`` (or None)."""
    with contextlib.suppress(FileNotFoundError):
        os.remove("out")
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except Exception as exc:  # noqa: BLE001 - a crash is a result to hash
        code = f"raised {type(exc).__name__}: {exc}"
    finally:
        sys.stdin = sys.__stdin__
    written = Path("out").read_bytes() if os.path.exists("out") else None
    return repr((argv, code, out.getvalue(), err.getvalue(), written)) + "\n"


def cli_runs():
    """Every command run, in a scratch directory holding the fixture files
    and ``BAD_FILES`` (plus ``missing.json``, which does not exist)."""
    fixtures = sorted(p.name for p in (ROOT / "tests" / "fixtures").glob("*.json"))
    bad = [*BAD_FILES, "missing.json"]
    strings = [
        s
        for f in corpus.FIXTURES
        for s in (f.generalized, f.numbered, f.legacy_generalized, f.legacy_numbered)
        if s is not None
    ]
    malformed = [text for _name, text, _code in corpus.MALFORMED]
    legacy = "--legacy-converging"
    for path in fixtures:
        for flags in ([], ["--numbered"], [legacy], ["--numbered", legacy]):
            yield run_cli(["encode", *flags, path])
        yield run_cli(["encode", path, "-o", "out"])
        yield run_cli(["encode", "-"], (ROOT / "tests" / "fixtures" / path).read_text("utf-8"))
        yield run_cli(["check", path])
    for path in bad:
        for flags in ([], ["--lenient"]):
            yield run_cli(["encode", *flags, path])
            yield run_cli(["encode", *flags, fixtures[0], path, fixtures[1], "-o", "out"])
            yield run_cli(["encode", *flags, fixtures[0], path, fixtures[1]])
        yield run_cli(["check", fixtures[0], path, fixtures[1]])
    yield run_cli(["encode", *fixtures])
    yield run_cli(["encode", *fixtures, "-o", "out"])
    yield run_cli(["check", *fixtures, *bad])
    for text in strings + malformed:
        for cmd in ("decode", "canon"):
            for flags in ([], ["--lenient"], ["-o", "out"]):
                yield run_cli([cmd, *flags, text])
        for flags in (["--numbered"], [legacy]):
            yield run_cli(["canon", *flags, text])
    for cmd in ("decode", "canon"):
        yield run_cli([cmd, *strings])
        yield run_cli([cmd, *strings, "-o", "out"])
        yield run_cli([cmd, "-"], "".join(f" {s}\r\n\r\n" for s in strings))
        for text in malformed:
            for flags in ([], ["--lenient"]):
                yield run_cli([cmd, *flags, strings[0], text, strings[1]])
                yield run_cli([cmd, *flags, strings[0], text, strings[1], "-o", "out"])
    for fmt in ("json", "table"):
        yield run_cli(["registry", "--format", fmt])


def main() -> int:
    h = hashlib.sha256()
    count = 0
    for g in graphs():
        h.update(record(g).encode("utf-8"))
        count += 1
    for text in texts():
        h.update(decoded(text).encode("utf-8"))
        count += 1
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        for path in (ROOT / "tests" / "fixtures").glob("*.json"):
            shutil.copy(path, scratch)
        for name, blob in BAD_FILES.items():
            Path(scratch, name).write_bytes(blob)
        os.chdir(scratch)
        try:
            for run in cli_runs():
                h.update(run.encode("utf-8"))
                count += 1
        finally:
            os.chdir(here)
    print(f"{h.hexdigest()} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
