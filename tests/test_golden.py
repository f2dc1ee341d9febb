"""Golden encodings: every string the encoder writes, pinned byte for byte.

``golden_encodings.txt`` holds one line per input graph: the generalized
string, the numbered string and the legacy numbered string (or the
``EncodeError`` text), separated by tabs.  The inputs are the corpus and
400 seeded genflow plants, each followed by a renumbered copy.  A line
may change only with a demonstration that the old string was not
canonical.

``golden_decodes.txt`` pins what ``parse`` makes of every string in
``golden_encodings.txt`` and of every ``corpus.MALFORMED`` string: one
line per input, holding the strict and the lenient digest.  A digest
covers the graph's compact ``save_json`` document (or its absence), its
node and edge order, and each diagnostic's level, code, message and span.

To rewrite both files after a demonstrated change, run
``PYTHONPATH=src python tests/test_golden.py``.

``SCALED_DIGEST`` pins the large shapes the ranking is tuned for, which
neither file holds: one sha256 over the generalized and the numbered
string of long chains, many identical trains and symmetric exchanger
loops, each followed by a seeded renumbered copy.  The same rule holds
for it; ``PYTHONPATH=src python tests/test_golden.py`` prints it.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import corpus
import genflow
from sfiles2 import EncodeError, encode, parse, save_json

GOLDEN = Path(__file__).with_name("golden_encodings.txt")
DECODES = Path(__file__).with_name("golden_decodes.txt")
SCALED_DIGEST = "a43dcd4f37669afa1ace2d5cc5b356d5c9f2dedc2d88a1ebb1d211b10838a1f2"


def _graphs():
    graphs = [f.make() for f in corpus.FIXTURES]
    graphs += [genflow.random_flowsheet(random.Random(seed)) for seed in range(400)]
    rng = random.Random(5)
    for g in graphs:
        yield g
        yield genflow.renumber_randomly(g, rng)


def _line(g) -> str:
    try:
        legacy = str(encode(g, "numbered", legacy_converging=True))
    except EncodeError as exc:
        legacy = f"EncodeError: {exc}"
    return "\t".join((str(encode(g)), str(encode(g, "numbered")), legacy))


def test_encodings_match_the_golden_file():
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = [_line(g) for g in _graphs()]
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"first difference at input {i}"
    assert len(got) == len(want)


def _decode_inputs():
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        yield from (t for t in line.split("\t") if not t.startswith("EncodeError: "))
    yield from (text for _key, text, _code in corpus.MALFORMED)


def _digest(text: str, strict: bool) -> str:
    graph, diags = parse(text, strict=strict)
    h = hashlib.sha256()
    if graph is None:
        h.update(b"no graph")
    else:
        doc = json.loads(save_json(graph))
        h.update(json.dumps(doc, separators=(",", ":")).encode("utf-8"))
        order = (graph.nodes(), [(s, d, a.kind, a.tag) for s, d, a in graph.edges()])
        h.update(repr(order).encode("utf-8"))
    for d in diags.entries:
        h.update(repr((d.level, d.code, d.message, d.start, d.end)).encode("utf-8"))
    return h.hexdigest()[:16]


def _decode_line(text: str) -> str:
    return f"{_digest(text, True)} {_digest(text, False)}"


def test_decodes_match_the_golden_file():
    want = DECODES.read_text(encoding="utf-8").splitlines()
    got = [_decode_line(text) for text in _decode_inputs()]
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"first difference at input {i}"
    assert len(got) == len(want)


def _scaled_graphs():
    graphs = [corpus.chain(n) for n in (0, 1, 2, 3, 50, 75, 100, 150, 200, 300)]
    graphs += [corpus.trains(k, u) for k in (1, 2, 25, 50, 100, 150, 200) for u in (1, 3)]
    graphs += [corpus.exchanger_loop(n) for n in (4, 6, 8, 16, 32, 64, 128)]
    rng = random.Random(29)
    for g in graphs:
        yield g
        yield genflow.renumber_randomly(g, rng)


def _scaled_digest() -> str:
    h = hashlib.sha256()
    for g in _scaled_graphs():
        h.update(f"{encode(g)}\t{encode(g, 'numbered')}\n".encode("utf-8"))
    return h.hexdigest()


def test_scaled_shapes_match_their_digest():
    assert _scaled_digest() == SCALED_DIGEST


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    GOLDEN.write_text("".join(_line(g) + "\n" for g in _graphs()), encoding="utf-8")
    DECODES.write_text(
        "".join(_decode_line(text) + "\n" for text in _decode_inputs()), encoding="utf-8"
    )
    print(f"SCALED_DIGEST = {_scaled_digest()!r}")
