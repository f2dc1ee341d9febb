"""The three closed-loop workloads: one client, one process, no threads.

A workload is set up once per run and then replays the same pass over
its inputs.  Every call into ``sfiles2`` during a pass is one timed
operation; its output is checked against a reference the code under
test did not produce, and a failed check or an unexpected exception is
counted, never raised.  Calls are looked up through the module at call
time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import gen

RAISED = object()
CLI_GRAPHS = 200  # plants written to files for the CLI batches
CLI_BATCH = 50


def _reference() -> None:
    """Fixed work in the codec's style (dicts, tuples, sorting): colour
    refinement of a 100-node circulant graph.  About 1 ms on a 2 GHz core."""
    n = 100
    nbrs = {i: ((i + 1) % n, (i - 1) % n, (i * 7) % n) for i in range(n)}
    colors = {i: i % 3 for i in range(n)}
    for _ in range(8):
        keys = {i: (colors[i], tuple(sorted(colors[j] for j in nbrs[i]))) for i in range(n)}
        ranks = {k: r for r, k in enumerate(sorted(set(keys.values())))}
        colors = {i: ranks[keys[i]] for i in range(n)}


class Speed:
    """How fast the host runs the reference work, probed every PROBE_EVERY s.

    A shared host slows a CPU by up to 1.7 times for seconds at a time.
    Every sample therefore remembers the last probe before it, and is
    reported scaled by the probes on both sides of it to a host where the
    reference takes REFERENCE_NS (about what it takes on a quiet 2 GHz
    core, so scaled times read as such a core's milliseconds)."""

    REFERENCE_NS = 1_000_000
    PROBE_EVERY = 0.1
    STEADY = 1.1  # bracketing probes within this ratio: the host held its speed

    def __init__(self) -> None:
        self.probes: list[int] = []
        self._due = 0.0

    def probe(self) -> int:
        runs = []
        for _ in range(2):
            t0 = perf_counter_ns()
            _reference()
            runs.append(perf_counter_ns() - t0)
        self.probes.append(min(runs))
        self._due = perf_counter() + self.PROBE_EVERY
        return self.probes[-1]

    def now(self) -> None:
        """Probe if one is due (outside any timed region)."""
        if perf_counter() >= self._due:
            self.probe()

    @property
    def index(self) -> int:
        return len(self.probes) - 1

    def scaled(self, samples: list[tuple[int, int]]) -> list[float]:
        """Samples (ns, probe index) scaled to the reference host; only the
        ones taken while the host held its speed, if any were."""
        steady, other = [], []
        for ns, i in samples:
            pair = self.probes[i : i + 2]
            value = ns * self.REFERENCE_NS * len(pair) / sum(pair)
            (steady if max(pair) <= self.STEADY * min(pair) else other).append(value)
        return steady or other


@dataclass
class Tally:
    """What one run measured, failures and counts.

    Samples are (ns, probe index) per pass, for each (operation, input)
    and for each input's reported operations together."""

    samples: dict[str, dict[str, list[tuple[int, int]]]] = field(default_factory=dict)
    pipeline: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    speed: Speed = field(default_factory=Speed)
    batch_graphs: dict[str, int] = field(default_factory=dict)  # CLI batch key -> graphs
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    copies: int = 0
    mismatches: int = 0

    def record(self, bucket: dict, key: str, ns: int) -> None:
        bucket.setdefault(key, []).append((ns, self.speed.index))

    def fail(self, where: str, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{where}: {problem}")


class Modules:
    """The program's modules, imported from the checkout's source tree."""

    def __init__(self) -> None:
        self.model = importlib.import_module("sfiles2.model")
        self.encode = importlib.import_module("sfiles2.encode")
        self.parse = importlib.import_module("sfiles2.parse")
        self.cli = importlib.import_module("sfiles2.cli")

    def build(self, spec: gen.Spec):
        g = self.model.FlowsheetGraph()
        for name, ctrl in spec.nodes:
            g.add_node(name, ctrl=ctrl)
        for src, dst, kind, tag in spec.edges:
            g.add_edge(src, dst, kind=kind, tag=tag)
        return g


def graph_key(graph):
    return (
        {n: graph.ctrl(n) for n in graph.nodes()},
        sorted(((s, d, a.kind, a.tag) for s, d, a in graph.edges()), key=repr),
    )


def doc_key(doc: dict):
    return (
        {n["name"]: n["ctrl"] for n in doc["nodes"]},
        sorted(((e["src"], e["dst"], e["kind"], e["tag"]) for e in doc["edges"]), key=repr),
    )


def write_graph(path: Path, spec: gen.Spec) -> None:
    doc = {
        "nodes": [{"name": n, "ctrl": c} for n, c in spec.nodes],
        "edges": [{"src": s, "dst": d, "kind": k, "tag": t} for s, d, k, t in spec.edges],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def ring_problem(graph, exchangers: int) -> str | None:
    """None if the graph is the loop ``1<->2, 2->3, 3<->4, ..., n->1`` up to numbering."""
    names = graph.nodes()
    if len(names) != exchangers or any(not n.startswith("hex-") for n in names):
        return f"expected {exchangers} exchangers, got {sorted(names)[:4]}..."
    edges = {(s, d) for s, d, a in graph.edges() if a.kind == "material" and a.tag is None}
    if len(edges) != len(graph.edges()) or len(edges) != exchangers * 3 // 2:
        return f"expected {exchangers * 3 // 2} plain edges, got {len(graph.edges())}"
    partner = {s: d for s, d in edges if (d, s) in edges}
    single_out = {s: d for s, d in edges if (d, s) not in edges}
    single_in = {d: s for s, d in single_out.items()}
    if len(partner) != exchangers or len(single_out) + len(single_in) != exchangers:
        return "doubled and single edges do not alternate"
    start = next(iter(single_in))
    seen, node = set(), start
    for _ in range(exchangers // 2):
        if node not in single_in or partner[node] not in single_out:
            return "doubled and single edges do not alternate"
        seen.update((node, partner[node]))
        node = single_out[partner[node]]
    if node != start or len(seen) != exchangers:
        return "the exchangers do not form one ring"
    return None


class Workload:
    """Base: inputs from the seed, a pass over them, and the checks."""

    ops: tuple[str, ...] = ()  # operations whose latency is reported

    def __init__(self, mods: Modules, tally: Tally, workdir: Path):
        self.m = mods
        self.tally = tally
        self.workdir = workdir
        self.tracer = None  # a spans.Tracer during the traced pass

    def call(self, op: str, key: str, fn, *args):
        """Time one operation.  Returns (result or RAISED, ns)."""
        self.tally.attempted += 1
        self.tally.speed.now()
        t0 = perf_counter_ns()
        try:
            if self.tracer is None:
                out = fn(*args)
            else:
                with self.tracer.operation(op):
                    out = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a crash is a counted failure
            self.tally.fail(f"{key} {op}", f"raised {type(exc).__name__}: {exc}")
            return RAISED, perf_counter_ns() - t0
        ns = perf_counter_ns() - t0
        self.tally.record(self.tally.samples.setdefault(op, {}), key, ns)
        return out, ns

    def check(self, key: str, op: str, problem: str | None) -> None:
        if problem is not None:
            self.tally.fail(f"{key} {op}", problem)

    def cli(self, op: str, key: str, argv: list[str], graphs: int):
        """One in-process CLI batch of ``graphs`` inputs.

        Returns (exit code, or the exception text if it raised, captured stdout)."""
        out = io.StringIO()
        self.tally.speed.now()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = perf_counter_ns()
            try:
                if self.tracer is None:
                    code = self.m.cli.main(argv)
                else:
                    with self.tracer.operation(op):
                        code = self.m.cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - a crash is a counted failure
                code = f"raised {type(exc).__name__}: {exc}"
            ns = perf_counter_ns() - t0
        self.tally.attempted += graphs
        self.tally.record(self.tally.samples.setdefault(op, {}), key, ns)
        self.tally.batch_graphs[key] = graphs
        return code, out.getvalue()

    def decoded_problems(self, path: Path, specs: list[gen.Spec]) -> list[str | None]:
        """Per graph: None if the decode output file holds exactly it."""
        text = path.read_text(encoding="utf-8")
        docs = [json.loads(text)] if len(specs) == 1 else [
            json.loads(line) for line in text.splitlines() if line
        ]
        out: list[str | None] = []
        for i, spec in enumerate(specs):
            if i >= len(docs):
                out.append("missing from the decode output")
            elif doc_key(docs[i]) != spec.key():
                out.append("decoded graph differs from the generated one")
            else:
                out.append(None)
        return out

    def run_pass(self) -> None:
        raise NotImplementedError


class Plants(Workload):
    """The corpus fixtures, seeded small plants and renumbered copies;
    every operation runs on them."""

    ops = ("encode", "parse", "roundtrip")

    def __init__(self, mods, tally, workdir, seed: int, corpus, count: int = gen.PLANTS):
        super().__init__(mods, tally, workdir)
        fixtures = []
        copy_rng = random.Random(seed + 2)
        for f in corpus.FIXTURES:
            g = f.make()
            spec = gen.Spec(
                [(n, g.ctrl(n)) for n in g.nodes()],
                [(s, d, a.kind, a.tag) for s, d, a in g.edges()],
            )
            fixtures.append(gen.Item(f.key, "fixture", spec, ref=f.generalized, numbered=f.numbered))
        copies = [
            gen.Item(f"{f.key}~1", "fixture", gen.renumber(f.spec, copy_rng), ref=f.ref, original=f.key)
            for f in fixtures
        ]
        self.items = fixtures + gen.plants(seed, count, min(gen.PLANT_COPIES, count)) + copies
        self.graphs = {item.key: mods.build(item.spec) for item in self.items}
        self.cli_items = self.items[:CLI_GRAPHS]
        self.paths = {}
        for item in self.cli_items:
            path = workdir / f"{item.key}.json"
            write_graph(path, item.spec)
            self.paths[item.key] = str(path)

    def run_pass(self) -> None:
        E, P = self.m.encode, self.m.parse
        strings: dict[str, str] = {}
        numbered: dict[str, str] = {}
        for item in self.items:
            key, g = item.key, self.graphs[item.key]
            s, t_enc = self.call("encode", key, E.encode, g)
            if s is RAISED:
                continue
            s = strings[key] = str(s)
            if item.ref is not None and s != item.ref:
                self.check(key, "encode", f"{s!r} is not the pinned {item.ref!r}")
            parsed, t_parse = self.call("parse", key, P.parse, s)
            if parsed is not RAISED:
                graph = parsed[0]
                if graph is None:
                    self.check(key, "parse", "canonical string did not parse")
                else:
                    again, _ = self.call("reencode", key, E.encode, graph)
                    if again is not RAISED and again != s:
                        self.check(key, "reencode", f"not a fixed point: {s!r} -> {again!r}")
            ns_text, _ = self.call("encode_numbered", key, E.encode, g, "numbered")
            t_parse_n = 0
            if ns_text is not RAISED:
                ns_text = numbered[key] = str(ns_text)
                if item.numbered is not None and ns_text != item.numbered:
                    self.check(key, "encode_numbered", f"{ns_text!r} is not the pinned string")
                parsed, t_parse_n = self.call("parse", key + "#numbered", P.parse, ns_text)
                if parsed is not RAISED and (
                    parsed[0] is None or graph_key(parsed[0]) != item.spec.key()
                ):
                    self.check(key, "parse", "numbered round trip changed the graph")
            report, t_rt = self.call("roundtrip", key, P.roundtrip_check, g)
            if report is not RAISED and not (report.ok and report.canonical == s):
                self.check(key, "roundtrip", f"{report.problems or report.canonical!r}")
            self.tally.record(self.tally.pipeline, key, t_enc + t_parse + t_parse_n + t_rt)
        count_mismatches(self.tally, self.items, strings)
        self._cli_batches(strings, numbered)

    def _cli_batches(self, strings: dict[str, str], numbered: dict[str, str]) -> None:
        out = self.workdir / "out.txt"
        for b in range(0, len(self.cli_items), CLI_BATCH):
            batch = self.cli_items[b : b + CLI_BATCH]
            paths = [self.paths[i.key] for i in batch]
            bkey = f"batch-{b // CLI_BATCH}"

            code, _ = self.cli("cli_encode", bkey, ["encode", *paths, "-o", str(out)], len(batch))
            lines = out.read_text(encoding="utf-8").splitlines() if code == 0 else []
            for i, item in enumerate(batch):
                want = item.ref or strings.get(item.key)
                if i >= len(lines) or lines[i] != want:
                    self.check(item.key, "cli_encode", f"exit {code}, line differs from {want!r}")

            texts = [numbered.get(i.key, "") for i in batch]
            code, _ = self.cli("cli_decode", bkey, ["decode", *texts, "-o", str(out)], len(batch))
            problems = (
                self.decoded_problems(out, [i.spec for i in batch])
                if code == 0
                else [f"exit {code}"] * len(batch)
            )
            for item, problem in zip(batch, problems):
                self.check(item.key, "cli_decode", problem)

            code, report = self.cli("cli_check", bkey, ["check", *paths], len(batch))
            status = {}
            for line in report.splitlines():
                head, _, rest = line.partition(": ")
                if head in paths:
                    status[head] = rest.split(" ")[0]
            for item, path in zip(batch, paths):
                if code != 0 or status.get(path) != "ok":
                    self.check(item.key, "cli_check", f"exit {code}, status {status.get(path)}")


def count_mismatches(tally: Tally, items: list[gen.Item], strings: dict[str, str]) -> None:
    """Renumbered copies whose generalized string differs from the original's."""
    for item in items:
        if item.original is not None:
            tally.copies += 1
            if strings.get(item.key) != strings.get(item.original):
                tally.mismatches += 1


class Scaled(Workload):
    """Large chains, identical trains and symmetric exchanger loops, with
    renumbered copies; ranking does almost all the work."""

    ops = ("encode",)

    def __init__(self, mods, tally, workdir, seed: int):
        super().__init__(mods, tally, workdir)
        self.items = gen.scaled(seed)
        self.graphs = {item.key: mods.build(item.spec) for item in self.items}

    def run_pass(self) -> None:
        E, P = self.m.encode, self.m.parse
        strings: dict[str, str] = {}
        for item in self.items:
            key = item.key
            s, t_enc = self.call("encode", key, E.encode, self.graphs[key])
            if s is RAISED:
                continue
            s = strings[key] = str(s)
            self.tally.record(self.tally.pipeline, key, t_enc)
            if item.ref is not None and s != item.ref:
                self.check(key, "encode", f"not the closed-form string ({len(s)} chars)")
            if item.ring is not None:
                parsed, _ = self.call("reparse", key, P.parse, s)
                if parsed is not RAISED:
                    graph = parsed[0]
                    problem = "did not reparse" if graph is None else ring_problem(graph, item.ring)
                    self.check(key, "reparse", problem)
        count_mismatches(self.tally, self.items, strings)


class DecodeLong(Workload):
    """Long generated strings, strict and lenient, their truncations and
    the corpus malformed strings, and one CLI decode batch."""

    ops = ("parse", "parse_lenient")

    def __init__(self, mods, tally, workdir, seed: int, corpus):
        super().__init__(mods, tally, workdir)
        texts = gen.decode_long(seed, corpus.MALFORMED)
        self.valid = [t for t in texts if t.spec is not None]
        self.malformed = [t for t in texts if t.spec is None]

    def run_pass(self) -> None:
        P = self.m.parse
        for t in self.valid:
            total = 0
            for op, strict in (("parse", True), ("parse_lenient", False)):
                parsed, ns = self.call(op, t.key, P.parse, t.text, strict)
                total += ns
                if parsed is RAISED:
                    continue
                graph, diags = parsed
                if graph is None:
                    self.check(t.key, op, f"rejected: {[d.code for d in diags.errors()][:3]}")
                elif graph_key(graph) != t.spec.key():
                    self.check(t.key, op, "parsed graph differs from the generated one")
            self.tally.record(self.tally.pipeline, t.key, total)
        for t in self.malformed:
            parsed, _ = self.call("reject", t.key, P.parse, t.text)
            if parsed is not RAISED:
                self.check(t.key, "reject", _rejection_problem(t, *parsed))
        out = self.workdir / "out.jsonl"
        argv = ["decode", *(t.text for t in self.valid), "-o", str(out)]
        code, _ = self.cli("cli_decode", "batch-0", argv, len(self.valid))
        problems = (
            self.decoded_problems(out, [t.spec for t in self.valid])
            if code == 0
            else [f"exit {code}"] * len(self.valid)
        )
        for t, problem in zip(self.valid, problems):
            self.check(t.key, "cli_decode", problem)


def _rejection_problem(t: gen.Text, graph, diags) -> str | None:
    if graph is not None:
        return "malformed string parsed"
    codes = [d.code for d in diags.errors()]
    if not codes or (codes[0] != t.code if t.first else t.code not in codes):
        return f"expected {t.code}, got {codes[:3]}"
    if any(not 0 <= d.start <= d.end <= len(t.text) for d in diags.errors()):
        return "diagnostic span out of bounds"
    return None
