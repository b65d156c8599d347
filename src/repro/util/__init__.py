"""Shared utilities: bit manipulation, mesh geometry, ASCII tables, units."""

from repro.util.bits import (
    bit_complement,
    bit_reverse,
    bit_width,
    shuffle_bits,
    transpose_bits,
)
from repro.util.geometry import (
    Coord,
    Direction,
    MeshGeometry,
    OPPOSITE,
    TURN_KIND,
    TurnKind,
)
from repro.util.plot import AsciiPlot, plot_latency_curves, render_heatmap
from repro.util.tables import AsciiTable, format_series
from repro.util.units import from_db, to_db

__all__ = [
    "AsciiPlot",
    "AsciiTable",
    "Coord",
    "Direction",
    "MeshGeometry",
    "OPPOSITE",
    "TURN_KIND",
    "TurnKind",
    "bit_complement",
    "bit_reverse",
    "bit_width",
    "format_series",
    "from_db",
    "plot_latency_curves",
    "render_heatmap",
    "shuffle_bits",
    "to_db",
    "transpose_bits",
]
