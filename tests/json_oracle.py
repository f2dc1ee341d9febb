"""The graph JSON writer as first written: a dict per node and edge,
serialized by ``json.dumps``.

A verbatim reference copy.  The tests require ``save_json`` and the CLI's
one-line decode documents to write exactly the same bytes as this one.
"""

from __future__ import annotations

import json


def json_doc(graph) -> dict:
    """The JSON document of a graph, with nodes and edges in sorted order."""
    return {
        "nodes": [
            {"name": name, "ctrl": graph.ctrl(name)} for name in sorted(graph.nodes())
        ],
        "edges": [
            {"src": src, "dst": dst, "kind": attr.kind, "tag": attr.tag}
            for src, dst, attr in sorted(
                graph.edges(), key=lambda e: (e[0], e[1], e[2].kind)
            )
        ],
    }


def save_json(graph) -> bytes:
    """The indented document, newline-terminated."""
    return (json.dumps(json_doc(graph), indent=2) + "\n").encode("utf-8")


def json_line(graph) -> bytes:
    """The compact document on one line."""
    return (json.dumps(json_doc(graph), separators=(",", ":")) + "\n").encode("utf-8")
