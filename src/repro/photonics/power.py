"""Peak optical power model (paper section 3.2, Fig 7) and the optical
price list the Phastlane simulators charge (section 5, Fig 11).

The peak occurs when every input port of every router simultaneously
receives a multicast packet from its nearest neighbour, all packets turn in
the same direction, every return path is signalling a drop and every buffer
arbitrates — the maximum number of waveguide crossings and activated
components.  The required laser input power then grows exponentially with
the number of lossy crossings each wavelength must survive:

    P_peak(L, H, eta) = P_base * eta ** -(H * e(L))
    e(L) = K_CROSS_PER_WG * W(L) + K_PORT_LOSS * L

where ``L`` is the WDM degree, ``W(L)`` the waveguides per direction
(crossing count scales with the *perpendicular* channel width), ``H`` the
maximum hops per cycle (light traverses H routers' worth of crossings) and
``eta`` the per-crossing power efficiency.  ``P_base`` is calibrated from
the paper's anchor: a 64-wavelength four-hop network at 98% crossing
efficiency requires 32 W peak.  The calibrated model then also reproduces
the paper's other quoted points (128λ/5-hop/98% -> 32 W, 128λ/4-hop/98% ->
15 W) and the 32λ conclusion (needs >=99% efficiency or a 2-3 hop limit).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from repro.photonics import constants
from repro.photonics.wdm import PacketLayout

#: The paper's calibration anchor for Fig 7.
ANCHOR_WDM = 64
ANCHOR_HOPS = 4
ANCHOR_EFFICIENCY = 0.98
ANCHOR_PEAK_W = 32.0

#: Peak power above this is "impractically high" for an on-chip laser
#: budget; used to classify Fig 7 operating points.
REASONABLE_PEAK_W = 35.0

#: Average-case laser derating versus the Fig 7 peak scenario.  The peak
#: assumes every packet is a multicast whose taps extract power at every
#: router and every return path is simultaneously signalling; an average
#: transmission needs well under half the worst-case input power for the
#: same hop count.
AVERAGE_LASER_DERATING = 0.25
#: Fraction of the worst-case per-router loss exponent an average unicast
#: transmission sees: no broadcast taps are extracting power and the
#: perpendicular channels are not fully lit, so crossings cost less than
#: the Fig 7 peak scenario assumes.
UNICAST_LOSS_EXPONENT_FACTOR = 0.7


@dataclass(frozen=True)
class PeakPowerPoint:
    """One Fig 7 operating point."""

    payload_wdm: int
    max_hops: int
    crossing_efficiency: float
    peak_power_w: float

    @property
    def reasonable(self) -> bool:
        return self.peak_power_w <= REASONABLE_PEAK_W


class OpticalPowerModel:
    """Peak and per-packet optical power for a Phastlane configuration."""

    def __init__(self, mesh_nodes: int = 64) -> None:
        if mesh_nodes <= 0:
            raise ValueError(f"mesh must have nodes, got {mesh_nodes}")
        #: Input ports the average-power fraction is spread over: four per
        #: router, as in the Fig 7 worst case.
        self.input_ports = 4 * mesh_nodes
        self._p_base = self._calibrate_base()

    @staticmethod
    def loss_exponent(payload_wdm: int) -> float:
        """Per-router loss exponent e(L): crossings + port/through losses."""
        layout = PacketLayout(payload_wdm=payload_wdm)
        return (
            constants.K_CROSS_PER_WG * layout.waveguides_per_direction
            + constants.K_PORT_LOSS_PER_WAVELENGTH * payload_wdm
        )

    def _calibrate_base(self) -> float:
        exponent = ANCHOR_HOPS * self.loss_exponent(ANCHOR_WDM)
        return ANCHOR_PEAK_W * ANCHOR_EFFICIENCY**exponent

    def peak_power_w(
        self, payload_wdm: int, max_hops: int, crossing_efficiency: float
    ) -> float:
        """Peak optical input power (W) for one configuration."""
        if max_hops < 1:
            raise ValueError(f"max hops must be at least 1, got {max_hops}")
        if not 0.0 < crossing_efficiency <= 1.0:
            raise ValueError(
                f"crossing efficiency must be in (0, 1], got {crossing_efficiency}"
            )
        exponent = max_hops * self.loss_exponent(payload_wdm)
        return self._p_base * crossing_efficiency**-exponent

    def contour(
        self,
        wdm_degrees: Sequence[int],
        hop_counts: Sequence[int],
        efficiencies: Sequence[float],
    ) -> list[PeakPowerPoint]:
        """Peak power over a (WDM degree x hops x efficiency) grid."""
        return [
            PeakPowerPoint(wdm, hops, eta, self.peak_power_w(wdm, hops, eta))
            for wdm in wdm_degrees
            for hops in hop_counts
            for eta in efficiencies
        ]

    # -- the laser price of one launch ------------------------------------------

    def transmit_laser_energy_pj(
        self,
        payload_wdm: int,
        hops: int,
        crossing_efficiency: float = ANCHOR_EFFICIENCY,
        multicast_taps: int = 0,
    ) -> float:
        """Laser (wall-plug) energy for one packet transmission of ``hops``.

        The laser must supply, for one 4 GHz cycle, enough power for every
        wavelength of this one packet to survive ``hops`` routers of loss.
        Peak power above is the worst case of *all* ports active with full
        multicast extraction; one average transmission is 1/(4 * mesh_nodes)
        of that with a reduced loss exponent, while each broadcast tap on
        the segment extracts :data:`~repro.photonics.constants.MULTICAST_TAP_FRACTION`
        of the power and must be compensated at the source.
        """
        if hops < 1:
            raise ValueError("a transmission covers at least one hop")
        if multicast_taps < 0:
            raise ValueError("tap count must be non-negative")
        exponent = (
            hops * self.loss_exponent(payload_wdm) * UNICAST_LOSS_EXPONENT_FACTOR
        )
        tap_compensation = (1.0 / (1.0 - constants.MULTICAST_TAP_FRACTION)) ** (
            multicast_taps
        )
        per_port_fraction = 1.0 / self.input_ports
        optical_w = (
            self._p_base
            * crossing_efficiency**-exponent
            * tap_compensation
            * per_port_fraction
            * AVERAGE_LASER_DERATING
        )
        wall_plug_w = optical_w / constants.LASER_EFFICIENCY
        return wall_plug_w * constants.CYCLE_TIME_PS  # W * ps = pJ


def laser_index(segment_hops: int, taps: int) -> int:
    """Flat index of a launch's (first-segment hops, taps on that segment);
    dense, because a segment of ``n`` hops has at most ``n`` taps."""
    return segment_hops * (segment_hops + 1) // 2 + taps


@dataclass(frozen=True, slots=True)
class OpticalPrices:
    """The optical price list: the energy of one event of each kind, in pJ.

    Both Phastlane simulators charge an event as one ``+=`` of its price,
    so their ledgers are the same chains of float additions.
    """

    modulator: float  # a launch: payload and control bits, E/O
    buffer_read: float  # a launch out of a router or NIC buffer
    buffer_write: float  # a packet taken into an input-port buffer
    receive_packet: float  # the payload at a Local stop, a block or a tap
    receive_control: float  # the control bits at every router crossed
    drop_signal: float  # one Packet Dropped signal, sent and received
    static: float  # the network's leakage and ring tuning over one cycle
    #: Laser charge of a launch, by ``laser_index(segment hops, taps)``.
    laser: tuple[float, ...]


@lru_cache(maxsize=64)
def optical_prices(mesh_nodes: int, max_hops: int) -> OpticalPrices:
    """The price list of a ``mesh_nodes`` network with this hop budget
    (cached: every network of one shape shares the one immutable list)."""
    payload = constants.PACKET_PAYLOAD_BITS
    model = OpticalPowerModel(mesh_nodes=mesh_nodes)
    # In laser_index order: slot 0 (a segment of no hops) is never read.
    laser = (0.0,) + tuple(
        model.transmit_laser_energy_pj(
            constants.PAYLOAD_WDM,
            segment,
            constants.CROSSING_EFFICIENCY,
            multicast_taps=taps,
        )
        for segment in range(1, max_hops + 1)
        for taps in range(segment + 1)
    )
    return OpticalPrices(
        modulator=(payload + constants.PACKET_CONTROL_BITS)
        * constants.MODULATOR_ENERGY_PJ_PER_BIT,
        buffer_read=payload * constants.BUFFER_READ_PJ_PER_BIT,
        buffer_write=payload * constants.BUFFER_WRITE_PJ_PER_BIT,
        receive_packet=payload * constants.RECEIVER_ENERGY_PJ_PER_BIT,
        receive_control=constants.PACKET_CONTROL_BITS
        * constants.RECEIVER_ENERGY_PJ_PER_BIT,
        drop_signal=constants.DROP_SIGNAL_BITS
        * (
            constants.MODULATOR_ENERGY_PJ_PER_BIT
            + constants.RECEIVER_ENERGY_PJ_PER_BIT
        ),
        static=(
            constants.OPTICAL_ROUTER_LEAKAGE_MW
            + constants.NIC_LEAKAGE_MW
            + constants.THERMAL_TUNING_MW_PER_ROUTER
        )
        * constants.CYCLE_TIME_PS
        * 1e-3
        * mesh_nodes,
        laser=laser,
    )
