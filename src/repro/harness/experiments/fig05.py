"""Figure 5: critical-path component delays (PP, PB, PA, PIA) per scenario."""

from __future__ import annotations

from dataclasses import dataclass

from repro.photonics.constants import SCALING_SCENARIOS
from repro.photonics.latency import CriticalPathDelays, RouterLatencyModel
from repro.util.tables import AsciiTable

WDM_DEGREES = (32, 64, 128)


@dataclass(frozen=True)
class Figure5:
    delays: list[CriticalPathDelays]


def compute() -> Figure5:
    """All Fig 5 bars: 4 paths x 3 scenarios x the WDM degrees."""
    return Figure5(
        delays=[
            RouterLatencyModel(scenario, wdm).critical_paths()
            for scenario in SCALING_SCENARIOS
            for wdm in WDM_DEGREES
        ]
    )


def render(data: Figure5) -> str:
    table = AsciiTable(
        ["scenario", "wdm", "PP (ps)", "PB (ps)", "PA (ps)", "PIA (ps)"],
        title="Figure 5: Phastlane router critical-path delays",
    )
    for entry in data.delays:
        table.add_row(
            [
                entry.scenario,
                entry.payload_wdm,
                entry.packet_pass_ps,
                entry.packet_block_ps,
                entry.packet_accept_ps,
                entry.packet_interim_accept_ps,
            ]
        )
    return table.render()
