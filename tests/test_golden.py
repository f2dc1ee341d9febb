"""Golden encodings: every string the encoder writes, pinned byte for byte.

``golden_encodings.txt`` holds one line per input graph: the generalized
string, the numbered string and the legacy numbered string (or the
``EncodeError`` text), separated by tabs.  The inputs are the corpus and
400 seeded genflow plants, each followed by a renumbered copy.  A line
may change only with a demonstration that the old string was not
canonical.  To rewrite the file after such a change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import corpus
import genflow
from sfiles2 import EncodeError, encode

GOLDEN = Path(__file__).with_name("golden_encodings.txt")


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


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    GOLDEN.write_text("".join(_line(g) + "\n" for g in _graphs()), encoding="utf-8")
