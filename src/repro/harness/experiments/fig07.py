"""Figure 7: peak optical power contour (crossing efficiency x WDM x hops)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.photonics.power import OpticalPowerModel, PeakPowerPoint
from repro.util.tables import AsciiTable

WDM_DEGREES = (32, 64, 128)
HOP_COUNTS = (1, 2, 3, 4, 5, 6, 7, 8)
EFFICIENCIES = (0.95, 0.96, 0.97, 0.98, 0.99, 0.995, 1.0)

#: The paper's quoted operating points (section 3.2).
PAPER_ANCHORS = {
    (64, 4, 0.98): 32.0,
    (128, 5, 0.98): 32.0,
    (128, 4, 0.98): 15.0,
}


@dataclass(frozen=True)
class Figure7:
    points: list[PeakPowerPoint]

    def at(self, wdm: int, hops: int, efficiency: float) -> PeakPowerPoint:
        for point in self.points:
            if (
                point.payload_wdm == wdm
                and point.max_hops == hops
                and abs(point.crossing_efficiency - efficiency) < 1e-12
            ):
                return point
        raise KeyError(f"no contour point ({wdm}, {hops}, {efficiency})")


def compute() -> Figure7:
    model = OpticalPowerModel()
    return Figure7(points=model.contour(WDM_DEGREES, HOP_COUNTS, EFFICIENCIES))


def render(data: Figure7) -> str:
    lines = []
    for wdm in WDM_DEGREES:
        table = AsciiTable(
            ["hops \\ efficiency"] + [f"{eta:g}" for eta in EFFICIENCIES],
            title=f"Figure 7: peak optical power (W) at {wdm} wavelengths",
        )
        for hops in HOP_COUNTS:
            row: list[object] = [hops]
            for eta in EFFICIENCIES:
                power = data.at(wdm, hops, eta).peak_power_w
                row.append(f"{power:.1f}" if power < 1e4 else ">10k")
            table.add_row(row)
        lines.append(table.render())
    anchor_table = AsciiTable(
        ["wdm", "hops", "efficiency", "model (W)", "paper (W)"],
        title="Paper anchor points:",
    )
    for (wdm, hops, eta), paper_w in PAPER_ANCHORS.items():
        anchor_table.add_row(
            [wdm, hops, eta, data.at(wdm, hops, eta).peak_power_w, paper_w]
        )
    lines.append(anchor_table.render())
    return "\n\n".join(lines)
