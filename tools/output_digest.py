"""One sha256 over everything the encoder, the ranking and the parser write.

    PYTHONPATH=src python3 tools/output_digest.py

prints one hex digest and a record count.  For every input graph it
hashes the generalized and the numbered string, both again in legacy
converging form, the ``rank_graph`` table and the ``roundtrip_check``
report, each one or the text of the ``EncodeError`` it raised; then the
strict and the lenient ``parse`` of each string it wrote.  The graphs are
the corpus fixtures, 400 seeded genflow plants with a renumbered copy
each, and every graph of the benchmark's ``plants``, ``scaled`` and
``decode_long`` inputs at seed 1.  It also parses every ``decode_long``
text at seed 1 (truncations and ``corpus.MALFORMED`` included) and 20,000
seeded joins of ``corpus.FRAGMENTS``.  A parse is hashed as the graph's
``save_json`` (or None) and each diagnostic's level, code, message, start
and end.  Two checkouts that print the same digest write the same bytes
and decode every one of these strings alike.  The program is imported
from ``PYTHONPATH``; the inputs come from this file's own checkout.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

import corpus  # noqa: E402
import gen  # noqa: E402
import genflow  # noqa: E402
from sfiles2 import (  # noqa: E402
    EncodeError, FlowsheetGraph, encode, parse, rank_graph, roundtrip_check, save_json,
)


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


def texts():
    yield from (text.text for text in gen.decode_long(1, corpus.MALFORMED))
    rng = random.Random(11)
    for _ in range(20000):
        yield "".join(rng.choice(corpus.FRAGMENTS) for _ in range(rng.randrange(21)))


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


def main() -> int:
    h = hashlib.sha256()
    count = 0
    for g in graphs():
        h.update(record(g).encode("utf-8"))
        count += 1
    for text in texts():
        h.update(decoded(text).encode("utf-8"))
        count += 1
    print(f"{h.hexdigest()} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
