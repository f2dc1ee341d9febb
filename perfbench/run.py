"""Codec benchmark: seeded workloads, checked outputs, one row per workload.

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

runs ``plants``, ``scaled`` and ``decode_long`` one after another in this
process (closed loop, one client, no threads) and prints every end-to-end
metric by name and unit, one row per workload.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
gated ``metrics`` of BENCHMARK.json, prefixed ``<workload>.`` when several
workloads ran.

A run sets its workload up five times and reports the median, then
repeats whole passes over the inputs for about ``--seconds``, taking turns
on the CPUs it may use.  Every call into ``sfiles2`` is one checked,
timed operation.  Timings are scaled by a reference probe measured around
them (``workloads.Speed``), because a shared host slows a CPU by up to
twice for seconds at a time.  An input's latency is its median over the
passes; p50 and tail are taken over inputs, the tail being the highest
percentile with at least ten inputs beyond it.

``--trace 1`` instead runs one untraced and one traced pass of the same
inputs (fewer plants), prints the per-layer metrics and the tracing
overhead, and writes the spans to ``.perfbench/spans-<workload>.tsv.gz``.

The program is imported from ``src/`` beside this directory and nowhere
else; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("plants", "scaled", "decode_long")
SETUPS = 5  # set-up is repeated and its median reported
TRACE_PLANTS = 250  # generated plants in the traced run, to bound the span count

# Gated end-to-end metrics, reported on every workload (see BENCHMARK.json).
GATED = (
    ("setup_s", "s"),
    ("graph_p50_ms", "ms"),
    ("graph_tail_ms", "ms"),
    ("graphs_per_s", "graphs/s"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Import sfiles2 and the test corpus afresh from this checkout."""
    for name in [n for n in sys.modules if n == "sfiles2" or n.startswith("sfiles2.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = workloads.Modules()
    if Path(mods.model.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"sfiles2 was imported from {mods.model.__file__}, not {SRC}")
    spec = importlib.util.spec_from_file_location("perfbench_corpus", ROOT / "tests" / "corpus.py")
    corpus = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return mods, corpus


def make_workload(name: str, seed: int, tally, workdir: Path, trace: bool):
    mods, corpus = import_program()
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "plants":
        count = TRACE_PLANTS if trace else gen.PLANTS
        return workloads.Plants(mods, tally, workdir, seed, corpus, count)
    if name == "scaled":
        return workloads.Scaled(mods, tally, workdir, seed)
    return workloads.DecodeLong(mods, tally, workdir, seed, corpus)


def timed_pass(w) -> float:
    """One pass with the collector off, as timeit does; returns seconds."""
    gc.collect()
    gc.disable()
    try:
        t0 = perf_counter()
        w.run_pass()
        return perf_counter() - t0
    finally:
        gc.enable()


# -- statistics


def tail(values: list[float]):
    """(value, percentile, n) at the highest percentile with at least 10
    samples beyond it, or None with 10 samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    rank = n - 10
    return sorted(values)[rank - 1], 100.0 * rank / n, n


def input_ms(tally, samples: dict[str, list[tuple[int, int]]]) -> list[float]:
    """Each input's median over the passes, in ms scaled to the reference
    host (see workloads.Speed)."""
    return [statistics.median(tally.speed.scaled(v)) / 1e6 for v in samples.values()]


def latency(rows: dict, tally, name: str, samples) -> None:
    values = input_ms(tally, samples)
    if not values:
        return
    rows[f"{name}_p50_ms"] = (statistics.median(values), "ms", "")
    t = tail(values)
    if t is not None:
        rows[f"{name}_tail_ms"] = (t[0], "ms", f"p{t[1]:.1f} of {t[2]}")


def end_to_end(w, tally, setups: list[float], passes: int) -> dict[str, tuple[float, str, str]]:
    """Every end-to-end metric this workload has: name -> (value, unit, note)."""
    rows: dict[str, tuple[float, str, str]] = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)}")
    }
    latency(rows, tally, "graph", tally.pipeline)
    busy_ms = sum(sum(input_ms(tally, by_input)) for by_input in tally.samples.values())
    if busy_ms:
        rows["graphs_per_s"] = (len(tally.pipeline) / busy_ms * 1e3, "graphs/s", f"{passes} passes")
    for op in w.ops:
        latency(rows, tally, op, tally.samples.get(op, {}))
    for op in sorted(o for o in tally.samples if o.startswith("cli_")):
        batches = tally.samples[op]
        graphs = sum(tally.batch_graphs[key] for key in batches)
        rows[f"{op}_graphs_per_s"] = (graphs / sum(input_ms(tally, batches)) * 1e3, "graphs/s", "")
    rows["failed_ratio"] = (tally.failed / max(tally.attempted, 1), "ratio", f"{tally.failed}/{tally.attempted}")
    if tally.copies:
        rows["renumber_mismatch_ratio"] = (
            tally.mismatches / tally.copies,
            "ratio",
            f"{tally.mismatches}/{tally.copies}",
        )
    rows["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "")
    return rows


def print_row(workload: str, rows: dict) -> None:
    cells = []
    for name, (value, unit, note) in rows.items():
        if value is None:
            cells.append(f"{name}=absent")
        else:
            cells.append(f"{name}={value:.6g} {unit}" + (f" ({note})" if note else ""))
    print(f"{workload}: " + "  ".join(cells), flush=True)


# -- runs


def run_untraced(name: str, seed: int, seconds: float, workdir: Path):
    # Set-ups and passes take turns on the CPUs this process may use: on a
    # shared host one CPU can run half as fast as another for minutes, and
    # the scheduler would otherwise keep the process on whichever it
    # started on.
    cpus = sorted(os.sched_getaffinity(0))
    try:
        setups = []
        speed = workloads.Speed()
        for i in range(SETUPS):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            tally = workloads.Tally()
            before = speed.probe()
            t0 = perf_counter()
            w = make_workload(name, seed, tally, workdir, trace=False)
            seconds_taken = perf_counter() - t0
            setups.append(seconds_taken * 2 * speed.REFERENCE_NS / (before + speed.probe()))
        # Whole passes only, so every input is measured equally often;
        # stop before a pass that would likely run past the time given.
        elapsed = last = 0.0
        passes = 0
        while passes < min(2, len(cpus)) or elapsed + last <= seconds:
            os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
            last = timed_pass(w)
            elapsed += last
            passes += 1
    finally:
        os.sched_setaffinity(0, cpus)
    rows = end_to_end(w, tally, setups, passes)
    return tally, rows, {m: {"value": rows[m][0], "unit": unit} for m, unit in GATED}


def run_traced(name: str, seed: int, workdir: Path):
    tally = workloads.Tally()
    w = make_workload(name, seed, tally, workdir, trace=True)
    untraced = timed_pass(w)
    tracer = spans.Tracer()
    w.tracer = tracer
    with spans.wrapped(tracer) as installed:
        traced = timed_pass(w)
    layer = spans.layer_metrics(tracer, installed)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}.tsv.gz")
    rows = {m: (layer[m], unit, "") for m, unit, _span, _kind in spans.LAYER_METRICS}
    rows["trace.overhead_ms"] = ((traced - untraced) * 1e3, "ms", f"traced {traced:.3f} s - untraced {untraced:.3f} s")
    rows["trace.spans"] = (len(tracer), "count", "")
    metrics = {m: {"value": v, "unit": u} for m, (v, u, _n) in rows.items() if v is not None}
    return tally, rows, metrics


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Codec benchmark for sfiles2.")
    p.add_argument("--workload", default="all", help="plants, scaled, decode_long, or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else tuple(args.workload.split(","))
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        p.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all")
    if not (SRC / "sfiles2").is_dir() or not (ROOT / "tests" / "corpus.py").is_file():
        print(f"error: no program to measure: need {SRC / 'sfiles2'} and tests/corpus.py", file=sys.stderr)
        return 2

    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        workdir = OUT / f"{name}-{os.getpid()}"
        try:
            if args.trace:
                tally, rows, m = run_traced(name, args.seed, workdir)
            else:
                tally, rows, m = run_untraced(name, args.seed, args.seconds, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print_row(name, rows)
        for problem in tally.problems:
            print(f"  FAILED {name}: {problem}", file=sys.stderr)
        attempted += tally.attempted
        failed += tally.failed
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in m.items()})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
