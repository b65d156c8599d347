"""Figure 4: optimistic/average/pessimistic scaling of transmit/receive delays."""

from __future__ import annotations

from dataclasses import dataclass

from repro.photonics import constants, scaling
from repro.util.tables import AsciiTable, format_series

#: Technology nodes plotted on the Fig 4 x-axis.
NODES_NM = (45.0, 40.0, 36.0, 32.0, 28.0, 25.0, 22.0, 19.0, 16.0)


@dataclass(frozen=True)
class Figure4:
    """The six Fig 4 series plus the canonical 16 nm endpoints."""

    nodes_nm: tuple[float, ...]
    series: dict[str, dict[str, list[float]]]
    endpoints_16nm: dict[str, dict[str, float]]


def compute() -> Figure4:
    models = {"transmit": scaling.transmit_model, "receive": scaling.receive_model}
    series = {
        component: {
            scenario: model(fit_kind).trend(NODES_NM)
            for scenario, fit_kind in scaling.SCENARIO_FIT.items()
        }
        for component, model in models.items()
    }
    endpoints = {
        "transmit": dict(constants.TRANSMIT_DELAY_PS),
        "receive": dict(constants.RECEIVE_DELAY_PS),
    }
    return Figure4(nodes_nm=NODES_NM, series=series, endpoints_16nm=endpoints)


def render(data: Figure4) -> str:
    lines = ["Figure 4: transmit/receive delay scaling trends (ps)"]
    for component in ("transmit", "receive"):
        for scenario in constants.SCALING_SCENARIOS:
            lines.append(
                format_series(
                    f"{component}/{scenario}",
                    data.nodes_nm,
                    data.series[component][scenario],
                    x_label="nm",
                )
            )
    table = AsciiTable(
        ["component", "optimistic", "average", "pessimistic"],
        title="Canonical 16 nm endpoints (ps):",
    )
    for component, row in data.endpoints_16nm.items():
        table.add_row(
            [component, row["optimistic"], row["average"], row["pessimistic"]]
        )
    lines.append(table.render())
    return "\n".join(lines)
