"""Figure 8: router area components versus the number of wavelengths."""

from __future__ import annotations

from dataclasses import dataclass

from repro.photonics.area import AreaBreakdown, RouterAreaModel
from repro.util.tables import AsciiTable

WDM_DEGREES = (16, 24, 32, 48, 64, 96, 128, 192, 256)


@dataclass(frozen=True)
class Figure8:
    breakdowns: list[AreaBreakdown]
    sweet_spot: int


def compute() -> Figure8:
    model = RouterAreaModel()
    return Figure8(
        breakdowns=model.sweep(WDM_DEGREES),
        sweet_spot=model.sweet_spot(WDM_DEGREES),
    )


def render(data: Figure8) -> str:
    table = AsciiTable(
        [
            "wavelengths",
            "waveguide side (um)",
            "port side (um)",
            "total side (mm)",
            "total area (mm^2)",
        ],
        title="Figure 8: router area components vs WDM degree",
    )
    for breakdown in data.breakdowns:
        table.add_row(
            [
                breakdown.payload_wdm,
                breakdown.waveguide_side_um,
                breakdown.port_side_um,
                breakdown.side_mm,
                breakdown.total_area_mm2,
            ]
        )
    return (
        table.render()
        + f"\nArea sweet spot: {data.sweet_spot} wavelengths (paper: 64)"
    )
