"""Terminal line plots and mesh heatmaps for experiment output.

The harness renders figures as ASCII tables for precision; these plots give
the *shape* at a glance (latency-vs-load knees, area U-curves) without any
plotting dependency.  Series are drawn on a shared character grid with one
marker per series; points past saturation (``inf``) are clipped to the top
row with a ``^`` marker.  :func:`render_heatmap` shades per-node values
on the node grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.util.geometry import MeshGeometry

#: Marker characters assigned to series in order.
MARKERS = "ox+*#@%&"

#: Heatmap shade characters from empty to full.
_SHADES = " .:-=+*#%@"


@dataclass
class Series:
    name: str
    xs: list[float]
    ys: list[float]
    marker: str

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError(f"series {self.name!r}: xs and ys differ in length")


@dataclass
class AsciiPlot:
    """A character-grid line plot.

    >>> plot = AsciiPlot(width=20, height=6, title="demo")
    >>> plot.add_series("linear", [0, 1, 2], [0, 1, 2])
    >>> print(plot.render())  # doctest: +SKIP
    """

    width: int = 60
    height: int = 16
    title: str | None = None
    x_label: str = "x"
    y_label: str = "y"
    _series: list[Series] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.width < 8 or self.height < 4:
            raise ValueError("plot must be at least 8x4 characters")

    def add_series(
        self, name: str, xs: Sequence[float], ys: Sequence[float]
    ) -> None:
        if len(self._series) >= len(MARKERS):
            raise ValueError(f"at most {len(MARKERS)} series per plot")
        marker = MARKERS[len(self._series)]
        self._series.append(Series(name, list(xs), list(ys), marker))

    def _bounds(self) -> tuple[float, float, float, float]:
        xs = [x for s in self._series for x in s.xs]
        ys = [y for s in self._series for y in s.ys if math.isfinite(y)]
        if not xs:
            raise ValueError("cannot render an empty plot")
        if not ys:
            ys = [0.0, 1.0]
        x_min, x_max = min(xs), max(xs)
        y_min, y_max = min(ys), max(ys)
        if x_min == x_max:
            x_max = x_min + 1.0
        if y_min == y_max:
            y_max = y_min + 1.0
        return x_min, x_max, y_min, y_max

    def render(self) -> str:
        x_min, x_max, y_min, y_max = self._bounds()
        grid = [[" "] * self.width for _ in range(self.height)]

        def col(x: float) -> int:
            frac = (x - x_min) / (x_max - x_min)
            return min(self.width - 1, max(0, round(frac * (self.width - 1))))

        def row(y: float) -> int:
            frac = (y - y_min) / (y_max - y_min)
            return min(
                self.height - 1,
                max(0, self.height - 1 - round(frac * (self.height - 1))),
            )

        for series in self._series:
            for x, y in zip(series.xs, series.ys):
                if math.isfinite(y):
                    grid[row(y)][col(x)] = series.marker
                else:
                    grid[0][col(x)] = "^"  # clipped saturation point

        lines: list[str] = []
        if self.title:
            lines.append(self.title)
        top_label = f"{y_max:.4g}"
        bottom_label = f"{y_min:.4g}"
        gutter = max(len(top_label), len(bottom_label)) + 1
        for index, grid_row in enumerate(grid):
            if index == 0:
                label = top_label.rjust(gutter - 1)
            elif index == self.height - 1:
                label = bottom_label.rjust(gutter - 1)
            else:
                label = " " * (gutter - 1)
            lines.append(f"{label}|{''.join(grid_row)}")
        axis = " " * (gutter - 1) + "+" + "-" * self.width
        lines.append(axis)
        x_axis = f"{x_min:.4g}".ljust(self.width // 2) + f"{x_max:.4g}".rjust(
            self.width - self.width // 2
        )
        lines.append(" " * gutter + x_axis)
        legend = "  ".join(f"{s.marker}={s.name}" for s in self._series)
        lines.append(f"{self.y_label} vs {self.x_label}   {legend}")
        return "\n".join(line.rstrip() for line in lines)


def plot_latency_curves(
    curves: dict[str, list],
    title: str,
    width: int = 60,
    height: int = 14,
) -> str:
    """Plot {label: [LatencyPoint, ...]} latency-vs-rate curves."""
    plot = AsciiPlot(
        width=width,
        height=height,
        title=title,
        x_label="injection rate (packets/node/cycle)",
        y_label="mean latency (cycles)",
    )
    for label, points in curves.items():
        plot.add_series(
            label,
            [p.rate for p in points],
            [p.mean_latency for p in points],
        )
    return plot.render()


def render_heatmap(
    values: Mapping[int, float] | Sequence[float],
    mesh: MeshGeometry,
    title: str | None = None,
) -> str:
    """Render per-node values as an ASCII shade map of the node grid.

    ``values`` is either a mapping from node to value (missing nodes read
    as zero, so a :class:`collections.Counter` works directly) or a dense
    per-node sequence in node order, e.g. one window slice of a
    :class:`repro.obs.timeseries.SpatialSeries`.  Row 0 of the grid
    (south) prints at the bottom, matching :mod:`repro.util.geometry`.
    """
    if isinstance(values, Mapping):
        dense = [float(values.get(node, 0)) for node in range(mesh.num_nodes)]
    else:
        dense = [float(value) for value in values]
        if len(dense) != mesh.num_nodes:
            raise ValueError(
                f"expected {mesh.num_nodes} per-node values for {mesh}, "
                f"got {len(dense)}"
            )
    peak = max(dense, default=0.0)
    lines = [title if title is not None else f"heatmap ({mesh}), peak={peak:g}"]
    for y in reversed(range(mesh.height)):
        row = []
        for x in range(mesh.width):
            value = dense[y * mesh.width + x]
            if peak == 0:
                row.append(_SHADES[0])
            else:
                row.append(_SHADES[round(value / peak * (len(_SHADES) - 1))])
        lines.append("".join(row))
    return "\n".join(lines)
