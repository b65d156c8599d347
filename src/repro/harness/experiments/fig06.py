"""Figure 6: max hops per 4 GHz cycle vs wavelengths and scaling scenario."""

from __future__ import annotations

from dataclasses import dataclass

from repro.photonics.constants import SCALING_SCENARIOS
from repro.photonics.latency import max_hops_per_cycle
from repro.util.tables import AsciiTable

WDM_DEGREES = (32, 64, 128)

#: The paper's result: 8 / 5 / 4 hops, independent of WDM degree.
EXPECTED_HOPS = {"optimistic": 8, "average": 5, "pessimistic": 4}


@dataclass(frozen=True)
class Figure6:
    hops: dict[str, dict[int, int]]

    @property
    def wdm_independent(self) -> bool:
        return all(len(set(per_wdm.values())) == 1 for per_wdm in self.hops.values())


def compute() -> Figure6:
    """{scenario: {wdm_degree: max hops per 4 GHz cycle}}."""
    return Figure6(
        hops={
            scenario: {wdm: max_hops_per_cycle(scenario, wdm) for wdm in WDM_DEGREES}
            for scenario in SCALING_SCENARIOS
        }
    )


def render(data: Figure6) -> str:
    wdm_degrees = sorted(next(iter(data.hops.values())))
    table = AsciiTable(
        ["scenario"] + [f"{wdm} wavelengths" for wdm in wdm_degrees] + ["paper"],
        title="Figure 6: max hops per 4 GHz cycle",
    )
    for scenario in SCALING_SCENARIOS:
        table.add_row(
            [scenario]
            + [data.hops[scenario][wdm] for wdm in wdm_degrees]
            + [EXPECTED_HOPS[scenario]]
        )
    return table.render()
