"""Bidirectional codec between flowsheet graphs and SFILES 2.0 strings."""

from .canon import RankTable
from .encode import GENERALIZED, NUMBERED, SfilesString, encode, rank_graph
from .errors import (
    EncodeError,
    GraphInvariantError,
    ParseError,
    SchemaError,
    SfilesError,
)
from .model import (
    COLUMN_TAGS,
    MATERIAL,
    SIGNAL,
    EdgeAttr,
    FlowsheetGraph,
    NodeRef,
    load_json,
    save_json,
)
from .parse import (
    Diagnostic,
    ParseDiagnostics,
    RoundtripReport,
    Token,
    parse,
    parse_sfiles,
    roundtrip_check,
    tokenize,
)
from .validate import REGISTRY, DegreeSpec, GraphDiagnostic, UnitOp, check_graph

__version__ = "0.1.0"

__all__ = [
    "COLUMN_TAGS",
    "Diagnostic",
    "DegreeSpec",
    "EdgeAttr",
    "EncodeError",
    "FlowsheetGraph",
    "GENERALIZED",
    "GraphDiagnostic",
    "GraphInvariantError",
    "MATERIAL",
    "NUMBERED",
    "NodeRef",
    "ParseDiagnostics",
    "ParseError",
    "REGISTRY",
    "RankTable",
    "RoundtripReport",
    "SIGNAL",
    "SchemaError",
    "SfilesError",
    "SfilesString",
    "Token",
    "UnitOp",
    "check_graph",
    "encode",
    "load_json",
    "parse",
    "parse_sfiles",
    "rank_graph",
    "roundtrip_check",
    "save_json",
    "tokenize",
    "__version__",
]
