"""Plain-text table and series rendering for harness reports.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep that output aligned and dependency-free.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class AsciiTable:
    """A simple fixed-width ASCII table.

    >>> t = AsciiTable(["name", "value"])
    >>> t.add_row(["hops", 5])
    >>> print(t.render())  # doctest: +NORMALIZE_WHITESPACE
    name | value
    -----+------
    hops | 5
    """

    def __init__(self, headers: Sequence[str], title: str | None = None):
        if not headers:
            raise ValueError("table needs at least one column")
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: list[list[str]] = []

    def add_row(self, row: Iterable[object]) -> None:
        cells = [_format_cell(c) for c in row]
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(cells)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("-+-".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(line.rstrip() for line in lines)

    def __str__(self) -> str:
        return self.render()


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_series(
    name: str, xs: Sequence[float], ys: Sequence[float], x_label: str = "x"
) -> str:
    """Render one figure series as ``name: (x, y) (x, y) ...`` lines."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    pairs = " ".join(f"({_format_cell(x)}, {_format_cell(y)})" for x, y in zip(xs, ys))
    return f"{name} [{x_label}]: {pairs}"
