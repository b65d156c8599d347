"""Design-space exploration tying the section-3 models together (Table 1).

The paper sweeps the WDM degree and maximum hops-per-cycle under the three
scaling scenarios, then settles on the Table 1 configuration: 64-way payload
WDM (the area sweet spot that fits a single-core node), a four-hop network
(best performance/peak-power tradeoff) with five- and eight-hop variants for
the average and optimistic scaling assumptions.  Every hop count here is
the Fig 6 solver's (:func:`repro.photonics.latency.max_hops_per_cycle`),
the same statement the simulated configurations read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.photonics import constants
from repro.photonics.area import RouterAreaModel
from repro.photonics.latency import max_hops_per_cycle
from repro.photonics.power import REASONABLE_PEAK_W, OpticalPowerModel
from repro.photonics.wdm import PacketLayout


@dataclass(frozen=True)
class DesignPoint:
    """One (WDM degree, scaling scenario) design point with derived metrics."""

    payload_wdm: int
    scenario: str
    max_hops_per_cycle: int
    router_area_mm2: float
    peak_power_w_at_98pct: float

    @property
    def feasible(self) -> bool:
        """Fits a single-core node and a reasonable laser budget."""
        return (
            self.router_area_mm2 <= constants.NODE_AREA_SINGLE_CORE_MM2 + 1e-9
            and self.peak_power_w_at_98pct <= REASONABLE_PEAK_W
        )


class DesignSpaceExplorer:
    """Evaluates WDM/scenario design points and picks the Table 1 choice."""

    def __init__(self) -> None:
        self._area = RouterAreaModel()
        self._power = OpticalPowerModel()

    def evaluate(self, payload_wdm: int, scenario: str) -> DesignPoint:
        hops = max_hops_per_cycle(scenario, payload_wdm)
        return DesignPoint(
            payload_wdm=payload_wdm,
            scenario=scenario,
            max_hops_per_cycle=hops,
            router_area_mm2=self._area.area_mm2(payload_wdm),
            peak_power_w_at_98pct=self._power.peak_power_w(
                payload_wdm, max(1, hops), constants.CROSSING_EFFICIENCY
            ),
        )

    def sweep(
        self,
        wdm_degrees: Sequence[int] = (32, 64, 128),
        scenarios: Sequence[str] = constants.SCALING_SCENARIOS,
    ) -> list[DesignPoint]:
        return [
            self.evaluate(wdm, scenario)
            for wdm in wdm_degrees
            for scenario in scenarios
        ]

    def select_wdm(self, wdm_degrees: Sequence[int] = (32, 64, 128)) -> int:
        """The WDM degree the paper selects: the area sweet spot (64)."""
        return self._area.sweet_spot(wdm_degrees)


def table1_configuration() -> dict[str, object]:
    """The paper's Table 1 rows, derived from the models where applicable."""
    wdm = DesignSpaceExplorer().select_wdm()
    layout = PacketLayout(payload_wdm=wdm)
    hops = sorted(
        max_hops_per_cycle(scenario, wdm) for scenario in constants.SCALING_SCENARIOS
    )
    return {
        "flits_per_packet": "1 (80 Bytes)",
        "packet_payload_wdm": wdm,
        "packet_payload_waveguides": layout.payload_waveguides,
        "routing_function": "Dimension-Order",
        "packet_control_bits": constants.PACKET_CONTROL_BITS,
        "packet_control_wdm": layout.control_wdm,
        "packet_control_waveguides": layout.control_waveguides,
        "buffer_entries_in_nic": constants.NIC_BUFFER_ENTRIES,
        "max_hops_per_cycle": ", ".join(str(h) for h in hops),
        "node_transmit_arbitration": "Rotating Priority",
        "network_path_arbitration": "Fixed Priority",
    }
