"""Unit operation registry and graph-level degree checking.

The registry fixes the vocabulary of node categories together with the
expected material connectivity of each unit.  Degree deviations are
reported as warnings: real flowsheets are routinely drawn with open
ends, so only an unknown category can be escalated to an error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import MATERIAL, FlowsheetGraph


@dataclass(frozen=True)
class DegreeSpec:
    """Inclusive bounds on a degree count; None means unbounded."""

    min: int | None = None
    max: int | None = None

    def admits(self, n: int) -> bool:
        if self.min is not None and n < self.min:
            return False
        if self.max is not None and n > self.max:
            return False
        return True

    def describe(self) -> str:
        lo, hi = self.min, self.max
        if lo == hi:
            return "any" if lo is None else str(lo)
        if hi is None:
            return f">={lo}"
        return f"<={hi}" if lo is None else f"{lo}..{hi}"


@dataclass(frozen=True)
class UnitOp:
    category: str
    label: str
    term: str
    inlets: DegreeSpec
    outlets: DegreeSpec
    extension: bool = False


def _row(category, label, term, in_min, in_max, out_min, out_max, extension=False):
    return UnitOp(
        category, label, term, DegreeSpec(in_min, in_max), DegreeSpec(out_min, out_max), extension
    )


_ROWS = (
    _row("abs", "absorption", "AbsorptionColumn", 2, 2, 2, 2),
    _row("blwr", "blower", "Blower", 1, 1, 1, 1, extension=True),
    _row("centr", "centrifugation", "CentrifugationUnit", 1, 1, 2, 2),
    _row("comp", "compressor", "Compressor", 1, 1, 1, 1, extension=True),
    _row("cond", "condenser", "Condenser", 1, 1, 2, 2),
    _row("C", "control unit", "Control", 1, None, 0, None),
    _row("cycl", "cyclone", "Cyclone", 1, 1, 2, 2),
    _row("dist", "distillation", "DistillationSystem", 1, None, 2, None),
    _row("egclean", "electrical gas cleaning", "ElectricalGasCleaningUnit", 1, 1, 2, 2),
    _row("expand", "expander", "Expander", 1, 1, 1, 1, extension=True),
    _row("extr", "extraction", "ExtractionUnit", 2, 2, 2, 2),
    _row("flash", "flash", "FlashUnit", 1, 1, 2, None),
    _row("gfil", "gas filtration", "GasFilter", 1, 1, 2, 2),
    _row("hcycl", "hydrocyclone", "Hydrocyclone", 1, 1, 2, 2),
    _row("hex", "heat exchanger", "HeatExchanger", 1, None, 1, None),
    _row("lfil", "liquid filtration", "LiquidFilter", 1, 1, 2, 2),
    _row("mix", "mixing", "MixingUnit", 1, None, 1, 1),
    _row("orif", "orifice plate", "OrificePlate", 1, 1, 1, 1, extension=True),
    _row("pipe", "pipe", "Pipe", 1, 1, 1, 1, extension=True),
    _row("pp", "pump", "Pump", 1, 1, 1, 1, extension=True),
    _row("prod", "product stream", "OutputProduct", 1, 1, 0, 0),
    _row("r", "reactor", "ChemicalReactor", 1, None, 1, None),
    _row("raw", "raw material", "RawMaterial", 0, 0, 1, 1),
    _row("reb", "reboiler", "Reboiler", 1, 1, 2, 2),
    _row("rect", "rectification", "RectificationSystem", 1, None, 2, None),
    _row("scrub", "scrubbing", "Scrubber", 2, 2, 2, 2),
    _row("sep", "separation", "SeparationUnit", 1, None, 2, None),
    _row("splt", "splitting", "SplittingUnit", 1, 1, 2, None),
    _row("strip", "stripping", "StrippingSystem", 2, 2, 2, 2, extension=True),
    _row("tank", "storage", "StorageUnit", 0, None, 1, None, extension=True),
    _row("v", "valve", "Valve", 1, 1, 1, 1, extension=True),
    _row("X", "unknown", "-", None, None, None, None),
)

REGISTRY: dict[str, UnitOp] = {op.category: op for op in _ROWS}


@dataclass(frozen=True)
class GraphDiagnostic:
    level: str  # "error" or "warning"
    code: str
    node: str | None
    message: str


def check_graph(graph: FlowsheetGraph, strict: bool = False) -> list[GraphDiagnostic]:
    """Check every node against the registry degree table.

    Returns diagnostics sorted by node name.  Unknown categories are
    errors in strict mode and warnings otherwise; degree deviations are
    always warnings.
    """
    out: list[GraphDiagnostic] = []
    # A material edge into a C node that passes nothing on is a sensor
    # mount, not a process stream.
    mounts = {
        n for n in graph.nodes()
        if graph.node_ref(n).category == "C" and graph.material_out_degree(n) == 0
    }
    for name in sorted(graph.nodes()):
        ref = graph.node_ref(name)
        op = REGISTRY.get(ref.category)
        if op is None:
            level = "error" if strict else "warning"
            message = f"{name}: category {ref.category!r} is not in the registry"
            out.append(GraphDiagnostic(level, "unknown-category", name, message))
            continue
        if ref.category == "C":
            # Controllers count every incident connection, signals included.
            n_in = len(graph.in_edges(name))
            n_out = len(graph.out_edges(name))
        else:
            n_in = graph.material_in_degree(name)
            n_out = sum(
                1
                for dst, attr in graph.out_edges(name)
                if attr.kind == MATERIAL and dst not in mounts
            )
        for n, spec, side in ((n_in, op.inlets, "inlets"), (n_out, op.outlets, "outlets")):
            if not spec.admits(n):
                message = f"{name}: {n} {side}, expected {spec.describe()}"
                out.append(GraphDiagnostic("warning", "degree", name, message))
    return out
