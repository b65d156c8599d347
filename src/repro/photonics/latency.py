"""Router critical-path latency model and hops-per-cycle solver (Figs 5-6).

Section 3.1 of the paper identifies four internal router operations whose
delays bound the network clock:

- **Packet Pass (PP)**: a packet transits to an output port, first forcing
  contending lower-priority packets to be received at their input ports:
  (a) receive the router-control bits, (b) drive the C0 Group-1 resonators
  of the blocked packets, (c) that signal drives the blocked packets'
  receive resonators, (d) traverse the remainder of the switch.
- **Packet Block (PB)**: like PP, but step (d) is replaced by receiving the
  blocked packet itself.
- **Packet Accept (PA)**: receive control bits, drive the receive
  resonators, receive the packet.
- **Packet Interim Accept (PIA)**: PA plus generating the buffer
  write-enable at an interim node.

The longest network path is: drive the source modulators, X Packet Passes,
X+1 inter-router links, one Packet Accept, plus register overhead and clock
skew.  Solving for the largest X that fits in a 250 ps cycle yields the
paper's 8 / 5 / 4 hops for optimistic / average / pessimistic scaling,
independent of the WDM degree (Fig 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.photonics import constants
from repro.photonics.components import OpticalLink, RouterOptics
from repro.photonics.scaling import ScalingScenario, scenario_delays

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology import Topology


@dataclass(frozen=True)
class CriticalPathDelays:
    """The four Fig 5 path delays (ps) for one scenario and WDM degree."""

    scenario: str
    payload_wdm: int
    packet_pass_ps: float
    packet_block_ps: float
    packet_accept_ps: float
    packet_interim_accept_ps: float


@dataclass(frozen=True)
class PathComponentBreakdown:
    """Component-level breakdown of one critical path (one Fig 5 bar)."""

    receive_control_ps: float
    drive_resonators_ps: float
    finish_ps: float  # traversal (PP), packet receive (PB/PA), etc.

    @property
    def total_ps(self) -> float:
        return self.receive_control_ps + self.drive_resonators_ps + self.finish_ps


class RouterLatencyModel:
    """Critical-path delays through one Phastlane router.

    Parameters
    ----------
    scenario:
        A scaling scenario (or its name) defining the 16 nm component delays.
    payload_wdm:
        WDM degree of the payload waveguides (32/64/128 in the paper).
    """

    def __init__(
        self,
        scenario: ScalingScenario | str,
        payload_wdm: int = 64,
        round_robin_arbitration: bool = False,
    ):
        if isinstance(scenario, str):
            scenario = scenario_delays(scenario)
        self.scenario = scenario
        self.payload_wdm = payload_wdm
        self.round_robin_arbitration = round_robin_arbitration
        self.optics = RouterOptics(scenario)
        self._t_rx = scenario.receive_ps
        self._t_drive = scenario.resonator_drive_ps
        self._t_cross = self.optics.crossbar_traversal_ps(payload_wdm)

    # -- individual paths ---------------------------------------------------

    @property
    def _arbitration_stages(self) -> int:
        """Resonator-drive stages in the blocking path.

        Fixed priority needs two (the Group-1 straight bit drives the
        blocked packets' receive resonators directly).  A round-robin
        arbiter must first resolve the grant before driving, adding a
        stage — the "increasing crossbar latency" of footnote 3.
        """
        return 3 if self.round_robin_arbitration else 2

    def packet_pass_breakdown(self) -> PathComponentBreakdown:
        """PP: receive control, drive the resonator stages, traverse."""
        return PathComponentBreakdown(
            receive_control_ps=self._t_rx,
            drive_resonators_ps=self._arbitration_stages * self._t_drive,
            finish_ps=self._t_cross,
        )

    def packet_block_breakdown(self) -> PathComponentBreakdown:
        """PB: like PP but the traversal is replaced by receiving the packet."""
        return PathComponentBreakdown(
            receive_control_ps=self._t_rx,
            drive_resonators_ps=self._arbitration_stages * self._t_drive,
            finish_ps=self._t_rx,
        )

    def packet_accept_breakdown(self) -> PathComponentBreakdown:
        """PA: receive control, drive the receive resonators, receive packet."""
        return PathComponentBreakdown(
            receive_control_ps=self._t_rx,
            drive_resonators_ps=self._t_drive,
            finish_ps=self._t_rx,
        )

    def packet_interim_accept_breakdown(self) -> PathComponentBreakdown:
        """PIA: PA plus the buffer write-enable at the interim node."""
        accept = self.packet_accept_breakdown()
        return PathComponentBreakdown(
            receive_control_ps=accept.receive_control_ps,
            drive_resonators_ps=accept.drive_resonators_ps,
            finish_ps=accept.finish_ps + constants.WRITE_ENABLE_DELAY_PS,
        )

    def critical_paths(self) -> CriticalPathDelays:
        """All four Fig 5 delays."""
        return CriticalPathDelays(
            scenario=self.scenario.name,
            payload_wdm=self.payload_wdm,
            packet_pass_ps=self.packet_pass_breakdown().total_ps,
            packet_block_ps=self.packet_block_breakdown().total_ps,
            packet_accept_ps=self.packet_accept_breakdown().total_ps,
            packet_interim_accept_ps=self.packet_interim_accept_breakdown().total_ps,
        )

    # -- end-to-end path ----------------------------------------------------

    def network_path_delay_ps(
        self, hops: int, link: OpticalLink | None = None
    ) -> float:
        """Worst-case source-to-acceptance delay over ``hops`` mesh hops.

        ``hops`` counts inter-router links.  Per the paper, X routers
        between source and destination means X Packet Pass delays and X+1
        link delays, i.e. ``hops = X + 1`` links and ``hops - 1``
        intermediate routers to pass through.
        """
        if hops < 1:
            raise ValueError(f"a network path needs at least one hop, got {hops}")
        link = link or OpticalLink()
        transit_routers = hops - 1
        return (
            self.scenario.transmit_ps
            + transit_routers * self.packet_pass_breakdown().total_ps
            + hops * link.delay_ps
            + self.packet_accept_breakdown().total_ps
            + constants.REGISTER_AND_SKEW_PS
        )

    def topology_path_delay_ps(
        self,
        topology: "Topology",
        source: int,
        destination: int,
        hop_length_mm: float = constants.HOP_LENGTH_MM,
    ) -> float:
        """Worst-case delay along a topology's dimension-order route, which
        is a shortest one on every grid.

        Like :meth:`network_path_delay_ps`, but the per-link waveguide
        lengths come from the topology's metric (wrap links on a folded
        torus are twice the hop length), so the Fig 5/6 timing analysis
        extends beyond the uniform mesh.
        """
        route = topology.dor_route(source, destination)
        directions = topology.dor_directions(source, destination)
        if not directions:
            raise ValueError(
                f"a network path needs distinct endpoints, got "
                f"{source} -> {destination}"
            )
        links_ps = sum(
            OpticalLink(
                topology.link_length_mm(node, int(direction), hop_length_mm)
            ).delay_ps
            for node, direction in zip(route[:-1], directions)
        )
        transit_routers = len(directions) - 1
        return (
            self.scenario.transmit_ps
            + transit_routers * self.packet_pass_breakdown().total_ps
            + links_ps
            + self.packet_accept_breakdown().total_ps
            + constants.REGISTER_AND_SKEW_PS
        )

    def max_hops_per_cycle(
        self,
        cycle_time_ps: float = constants.CYCLE_TIME_PS,
        link: OpticalLink | None = None,
    ) -> int:
        """Largest hop count whose worst-case delay fits in one cycle (Fig 6)."""
        if cycle_time_ps <= 0:
            raise ValueError("cycle time must be positive")
        hops = 0
        while self.network_path_delay_ps(hops + 1, link) <= cycle_time_ps:
            hops += 1
            if hops > 1024:  # pragma: no cover - defensive
                raise RuntimeError("hop solver failed to terminate")
        return hops


def max_hops_per_cycle(scenario: str, payload_wdm: int = 64) -> int:
    """Convenience wrapper: Fig 6 value for one scenario and WDM degree.

    >>> max_hops_per_cycle("average")
    5
    """
    return RouterLatencyModel(scenario, payload_wdm).max_hops_per_cycle()


def figure5_delays(wdm_degrees: tuple[int, ...] = (32, 64, 128)) -> list[CriticalPathDelays]:
    """All Fig 5 bars: 4 paths x 3 scenarios x the given WDM degrees."""
    return [
        RouterLatencyModel(scenario, wdm).critical_paths()
        for scenario in constants.SCALING_SCENARIOS
        for wdm in wdm_degrees
    ]


def figure6_hops(wdm_degrees: tuple[int, ...] = (32, 64, 128)) -> dict[str, dict[int, int]]:
    """Fig 6: {scenario: {wdm_degree: max hops per 4 GHz cycle}}."""
    return {
        scenario: {wdm: max_hops_per_cycle(scenario, wdm) for wdm in wdm_degrees}
        for scenario in constants.SCALING_SCENARIOS
    }
