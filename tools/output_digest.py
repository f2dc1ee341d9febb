"""One sha256 over everything the encoder and the ranking write.

    PYTHONPATH=src python3 tools/output_digest.py

prints one hex digest over, for every input graph: the generalized and
the numbered string, both again in legacy converging form, the
``rank_graph`` table and the ``roundtrip_check`` report, each one or the
text of the ``EncodeError`` it raised.  The inputs are the corpus fixtures, 400
seeded genflow plants with a renumbered copy each, and every graph of
the benchmark's ``plants``, ``scaled`` and ``decode_long`` inputs at
seed 1.  Two checkouts that print the same digest write the same bytes.
The program is imported from ``PYTHONPATH``; the inputs come from this
file's own checkout.
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
from sfiles2 import EncodeError, FlowsheetGraph, encode, rank_graph, roundtrip_check  # noqa: E402


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


def record(g: FlowsheetGraph) -> str:
    """Six tab-separated fields; a field that raises ``EncodeError`` holds its text."""
    fields = []
    for mode in ("generalized", "numbered"):
        fields.append(_field(lambda: str(encode(g, mode))))
        fields.append(_field(lambda: str(encode(g, mode, legacy_converging=True))))
    fields.append(_field(lambda: _table(g)))
    fields.append(_field(lambda: _report(g)))
    return "\t".join(fields) + "\n"


def main() -> int:
    h = hashlib.sha256()
    count = 0
    for g in graphs():
        h.update(record(g).encode("utf-8"))
        count += 1
    print(f"{h.hexdigest()} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
