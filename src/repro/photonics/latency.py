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
independent of the WDM degree (Fig 6).  :func:`max_hops_per_cycle` is the
one statement of that budget: the simulated Optical4/5/8 configurations
read it, so a device delay moves the network that is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.photonics import constants

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology.base import Topology


@dataclass(frozen=True)
class ScalingScenario:
    """Canonical 16 nm component delays for one scaling assumption."""

    name: str
    transmit_ps: float
    receive_ps: float
    resonator_drive_ps: float


def scenario_delays(name: str) -> ScalingScenario:
    """The canonical 16 nm delays for ``name`` (Fig 4 endpoints).

    >>> scenario_delays("average").transmit_ps
    12.0
    """
    if name not in constants.SCALING_SCENARIOS:
        raise ValueError(
            f"unknown scaling scenario {name!r}; "
            f"expected one of {constants.SCALING_SCENARIOS}"
        )
    return ScalingScenario(
        name=name,
        transmit_ps=constants.TRANSMIT_DELAY_PS[name],
        receive_ps=constants.RECEIVE_DELAY_PS[name],
        resonator_drive_ps=constants.RESONATOR_DRIVE_DELAY_PS[name],
    )


def link_delay_ps(length_mm: float) -> float:
    """Propagation delay of ``length_mm`` of silicon waveguide.

    >>> round(link_delay_ps(2.0), 2)
    20.9
    """
    return length_mm * constants.WAVEGUIDE_DELAY_PS_PER_MM


def crossbar_traversal_ps(payload_wdm: int) -> float:
    """Waveguide delay across the router's internal crossbar.

    Grows weakly with the WDM degree because each extra wavelength adds
    one resonator/receiver pair of port length (section 3.3).
    """
    if payload_wdm <= 0:
        raise ValueError(f"WDM degree must be positive, got {payload_wdm}")
    return (
        constants.ROUTER_TRAVERSAL_BASE_PS
        + constants.ROUTER_TRAVERSAL_PER_WAVELENGTH_PS * payload_wdm
    )


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
        payload_wdm: int = constants.PAYLOAD_WDM,
        round_robin_arbitration: bool = False,
    ):
        if isinstance(scenario, str):
            scenario = scenario_delays(scenario)
        self.scenario = scenario
        self.payload_wdm = payload_wdm
        self.round_robin_arbitration = round_robin_arbitration
        self._t_rx = scenario.receive_ps
        self._t_drive = scenario.resonator_drive_ps
        self._t_cross = crossbar_traversal_ps(payload_wdm)

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

    def network_path_delay_ps(self, hops: int) -> float:
        """Worst-case source-to-acceptance delay over ``hops`` mesh hops.

        ``hops`` counts inter-router links, each one node pitch long.  Per
        the paper, X routers between source and destination means X Packet
        Pass delays and X+1 link delays, i.e. ``hops = X + 1`` links and
        ``hops - 1`` intermediate routers to pass through.
        """
        if hops < 1:
            raise ValueError(f"a network path needs at least one hop, got {hops}")
        transit_routers = hops - 1
        return (
            self.scenario.transmit_ps
            + transit_routers * self.packet_pass_breakdown().total_ps
            + hops * link_delay_ps(constants.HOP_LENGTH_MM)
            + self.packet_accept_breakdown().total_ps
            + constants.REGISTER_AND_SKEW_PS
        )

    def topology_path_delay_ps(
        self, topology: "Topology", source: int, destination: int
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
            link_delay_ps(
                topology.link_length_mm(
                    node, int(direction), constants.HOP_LENGTH_MM
                )
            )
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

    def max_hops_per_cycle(self) -> int:
        """Largest hop count whose worst-case delay fits in one 4 GHz cycle
        (Fig 6)."""
        hops = 0
        while self.network_path_delay_ps(hops + 1) <= constants.CYCLE_TIME_PS:
            hops += 1
            if hops > 1024:  # pragma: no cover - defensive
                raise RuntimeError("hop solver failed to terminate")
        return hops


def max_hops_per_cycle(scenario: str, payload_wdm: int) -> int:
    """The hop budget of one scaling scenario at one WDM degree (Fig 6).

    Every simulated Phastlane configuration reads its budget here.

    >>> max_hops_per_cycle("average", 64)
    5
    """
    return RouterLatencyModel(scenario, payload_wdm).max_hops_per_cycle()
