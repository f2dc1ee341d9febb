"""Command line frontend for batch conversion and checking.

Exit codes: 0 success, 1 check failures, 2 schema errors, 3 graph
invariant or rendering errors, 4 parse errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .encode import GENERALIZED, NUMBERED, encode
from .errors import EncodeError, GraphInvariantError, ParseError, SfilesError
from .model import _COMPACT, _json_bytes, load_json, save_json
from .parse import parse, roundtrip_check
from .validate import REGISTRY, check_graph

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_SCHEMA = 2
EXIT_INVARIANT = 3
EXIT_PARSE = 4


def _add_mode_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument(
        "--generalized",
        dest="mode",
        action="store_const",
        const=GENERALIZED,
        help="emit generalized names such as (hex); the default",
    )
    g.add_argument(
        "--numbered",
        dest="mode",
        action="store_const",
        const=NUMBERED,
        help="emit numbered names such as (hex-1/2)",
    )
    p.set_defaults(mode=GENERALIZED)
    p.add_argument(
        "--legacy-converging",
        action="store_true",
        help="write converging branches in the v1 reversed-chain form",
    )


def _add_strict_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--strict", dest="strict", action="store_true", default=True)
    g.add_argument("--lenient", dest="strict", action="store_false")


def _read_graph(path: str, strict: bool):
    warnings: list[str] = []
    if path == "-":
        data = sys.stdin.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    graph = load_json(data, strict=strict, warnings=warnings)
    for w in warnings:
        print(f"warning: {path}: {w}", file=sys.stderr)
    return graph


def _string_inputs(items: list[str]) -> list[str]:
    out: list[str] = []
    for item in items:
        if item == "-":
            out.extend(line for line in map(str.strip, sys.stdin) if line)
        else:
            out.append(item)
    return out


def _parsed(text: str, strict: bool):
    """The graph of one string, after printing its diagnostics with carets.

    Raises ParseError when the parse returned no graph."""
    graph, diags = parse(text, strict=strict)
    for d in diags.entries:
        print(f"{d.level}[{d.code}]: {d.message}", file=sys.stderr)
        print(f"  {text}", file=sys.stderr)
        print("  " + " " * d.start + "^" * max(1, d.end - d.start), file=sys.stderr)
    if graph is None:
        raise ParseError(f"cannot parse {text!r}", diags)
    return graph


def _batch(args, items: list[str], convert, named: bool = True) -> int:
    """Convert every item to bytes, then write them all to ``-o`` or stdout.

    The first failure writes nothing and returns its exit code; its error
    line names the item when ``named``.  An unwritable ``-o`` gives exit 2."""
    chunks: list[bytes] = []
    for item in items:
        try:
            chunks.append(convert(item))
        except ParseError:  # its diagnostics are printed already
            return EXIT_PARSE
        except (SfilesError, OSError) as exc:
            print(f"error: {item}: {exc}" if named else f"error: {exc}", file=sys.stderr)
            if isinstance(exc, (GraphInvariantError, EncodeError)):
                return EXIT_INVARIANT
            return EXIT_SCHEMA
    if args.output:
        try:
            with open(args.output, "wb") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SCHEMA
    else:
        sys.stdout.write(b"".join(chunks).decode("utf-8"))
    return EXIT_OK


def _encoded(graph, args) -> bytes:
    text = encode(graph, args.mode, legacy_converging=args.legacy_converging)
    return (text + "\n").encode("utf-8")


def _cmd_encode(args) -> int:
    return _batch(args, args.paths, lambda path: _encoded(_read_graph(path, args.strict), args))


def _cmd_decode(args) -> int:
    texts = _string_inputs(args.strings)
    # One string prints one indented document; several print one JSON line each.
    serialize = save_json if len(texts) == 1 else _json_line
    return _batch(args, texts, lambda text: serialize(_parsed(text, args.strict)))


def _json_line(graph) -> bytes:
    """The graph's ``save_json`` document on one compact line."""
    return _json_bytes(graph, _COMPACT)


def _cmd_canon(args) -> int:
    texts = _string_inputs(args.strings)
    return _batch(args, texts, lambda text: _encoded(_parsed(text, args.strict), args), named=False)


def _cmd_check(args) -> int:
    failures = 0
    for path in args.paths:
        try:
            graph = _read_graph(path, strict=False)
            report = roundtrip_check(graph)  # EncodeError: a graph it cannot write
        except (SfilesError, OSError) as exc:
            print(f"{path}: FAIL ({exc})")
            failures += 1
            continue
        notes = [
            f"{d.level}[{d.code}] {d.message}" for d in check_graph(graph, strict=False)
        ]
        for problem in report.problems:
            notes.append(f"error[roundtrip] {problem}")
        bad = not report.ok
        status = "FAIL" if bad else "ok"
        suffix = f" ({len(notes)} notes)" if notes else ""
        print(f"{path}: {status}{suffix}")
        for note in notes:
            print(f"  {note}")
        failures += bad
    return EXIT_CHECK if failures else EXIT_OK


def _cmd_registry(args) -> int:
    if args.format == "json":
        print(json.dumps([dataclasses.asdict(op) for op in REGISTRY.values()], indent=2))
        return EXIT_OK
    print(f"{'category':<8} {'label':<24} {'term':<26} in       out")
    for op in REGISTRY.values():
        print(
            f"{op.category:<8} {op.label:<24} {op.term:<26} "
            f"{op.inlets.describe():<8} {op.outlets.describe()}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfiles2",
        description="Convert between flowsheet graph JSON and SFILES 2.0 strings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="graph JSON files to SFILES strings")
    p.add_argument("paths", nargs="+", help="graph JSON files, or - for stdin")
    _add_mode_flags(p)
    _add_strict_flags(p)
    p.add_argument("-o", "--output", help="write the strings to this file")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="SFILES strings to graph JSON")
    p.add_argument("strings", nargs="+", help="SFILES strings, or - for stdin lines")
    _add_strict_flags(p)
    p.add_argument("-o", "--output", help="write the JSON to this file")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("canon", help="rewrite SFILES strings in canonical form")
    p.add_argument("strings", nargs="+", help="SFILES strings, or - for stdin lines")
    _add_mode_flags(p)
    _add_strict_flags(p)
    p.add_argument("-o", "--output", help="write the strings to this file")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("check", help="validate graph files and their round trips")
    p.add_argument("paths", nargs="+", help="graph JSON files")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("registry", help="print the unit operation table")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(func=_cmd_registry)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
