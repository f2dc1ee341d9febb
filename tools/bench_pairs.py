"""Alternating benchmark pairs of two commits, and their output digests.

    python3 tools/bench_pairs.py PARENT [CHANGE] --seeds 3 23 --pairs 10 \\
        --workdir /tmp/pairs -o BENCH_<topic>.json

unpacks ``git archive`` copies of PARENT and CHANGE (default ``HEAD``)
into ``--workdir``, prints ``tools/output_digest.py`` for each (the
digest is the same only if both write the same bytes) and then runs
``perfbench/run.py --workload all`` on each, one run at a time, for
``--pairs`` pairs per seed: the parent first in odd-numbered pairs, the
change first in even ones.  The JSON written to ``-o`` holds every run,
and per seed, workload and metric the medians and quartiles of both
sides and the number of pairs the change won.  Quartiles are
``statistics.quantiles(n=4, method="inclusive")``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
REPO = TOOLS.parent
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
LOWER_IS_BETTER = {m["name"] for m in BENCHMARK["end_to_end"] if m["better"] == "lower"}


def unpack(rev: str, dest: Path) -> str:
    """Write the committed files of ``rev`` to ``dest``; return the full hash."""
    full = subprocess.run(
        ["git", "rev-parse", rev], cwd=REPO, check=True, capture_output=True, text=True
    ).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", full], cwd=REPO, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return full


def digest(checkout: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run(
        [sys.executable, str(TOOLS / "output_digest.py")],
        env=env, check=True, capture_output=True, text=True,
    )
    return out.stdout.strip()


def run(checkout: Path, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed)]
    out = subprocess.run(argv, cwd=checkout, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result.pop("metrics").items()}
    return {**result, "metrics": metrics}


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def summarize(pairs: list[dict]) -> dict:
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = -1 if name.rsplit(".", 1)[-1] in LOWER_IS_BETTER else 1
        p_q, c_q = quartiles(parent), quartiles(change)
        out[name] = {
            "parent_median": p_q[1],
            "change_median": c_q[1],
            "parent_iqr": p_q[2] - p_q[0],
            "change_iqr": c_q[2] - c_q[0],
            "ratio": c_q[1] / p_q[1] if p_q[1] else None,
            "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change", nargs="?", default="HEAD")
    ap.add_argument("--seeds", type=int, nargs="+", default=[3])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("-o", "--output", type=Path, required=True)
    ap.add_argument("--topic", default="", help="what the change does, stored in the output")
    args = ap.parse_args(argv)

    sides = {"parent": args.workdir / "parent", "change": args.workdir / "change"}
    revs = {side: unpack(rev, sides[side]) for side, rev in zip(sides, (args.parent, args.change))}
    digests = {side: digest(path) for side, path in sides.items()}
    print(json.dumps({"digests": digests}), flush=True)

    runs: dict[str, list[dict]] = {}
    for seed in args.seeds:
        runs[str(seed)] = []
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run(sides[side], seed)
            runs[str(seed)].append(pair)
            print(json.dumps({"seed": seed, "pair": k + 1, **pair}), flush=True)

    doc = {
        "topic": args.topic,
        "parent": revs["parent"],
        "change": revs["change"],
        "host": f"{platform.system()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "command": "python3 tools/bench_pairs.py " + " ".join(map(shlex.quote, argv or sys.argv[1:])),
        "digests": digests,
        "identical_output": digests["parent"] == digests["change"],
        "correct_in_every_run": all(
            p[side]["correct"] for pairs in runs.values() for p in pairs for side in sides
        ),
        "summary": {seed: summarize(pairs) for seed, pairs in runs.items()},
        "pairs": runs,
    }
    args.output.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if doc["identical_output"] else 1


if __name__ == "__main__":
    sys.exit(main())
