"""Bottom-up optical loss budget (cross-validation of the Fig 7 model).

The Fig 7 peak-power model in :mod:`repro.photonics.power` is *calibrated*
to the paper's quoted operating points.  This module builds the same
quantity bottom-up from per-component losses quoted in the device
literature the paper cites (couplers, waveguide propagation, crossings,
ring through/drop losses, bends).  At the 64-wavelength, 4-hop, 98 %
anchor the chain gives 20.7 W against the calibrated 32 W.  Scaled to that
anchor it stays near the calibrated model at 128 wavelengths and 5 hops
(36.8 vs 32.1 W) but not elsewhere: 27.0 vs 15.0 W at 128/4, 63.8 vs 347 W
at 32/4 and 129 vs 1 418 W at 64/8 (``tests/test_photonics_lossbudget.py``
pins the table).  No run reads the chain; the calibrated model prices
every launch.

All losses are in dB; the required laser power per wavelength is the
receiver sensitivity multiplied by the total path loss plus a system
margin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.photonics import constants
from repro.photonics.wdm import PacketLayout
from repro.util.units import from_db, to_db

#: Simultaneously-receiving input ports in the Fig 7 worst case: four mesh
#: ports on each router of the 8x8 design point.
INPUT_PORTS = 4 * 64


@dataclass(frozen=True)
class ComponentLosses:
    """Per-component optical losses (dB), defaults from the literature.

    - coupler: fibre/laser-to-chip grating coupler;
    - propagation: silicon waveguide loss per millimetre;
    - ring_through: passing one off-resonance ring;
    - ring_drop: coupling through an on-resonance ring (a turn);
    - bend: one 90-degree waveguide bend;
    - margin: system margin for laser RIN, temperature and aging.

    A crossing's loss is no field: it follows from the crossing efficiency
    (:attr:`LossBudget.crossing_db`, 0.088 dB at 98%; Bogaerts et al. 2007
    report 0.1-0.2 dB/crossing).
    """

    coupler_db: float = 1.0
    propagation_db_per_mm: float = 0.1
    ring_through_db: float = 0.004
    ring_drop_db: float = 0.5
    bend_db: float = 0.01
    margin_db: float = 3.0


class LossBudget:
    """Required laser power from a physical component chain."""

    def __init__(
        self,
        losses: ComponentLosses | None = None,
        crossing_efficiency: float = constants.CROSSING_EFFICIENCY,
    ) -> None:
        if not 0.0 < crossing_efficiency <= 1.0:
            raise ValueError("crossing efficiency must be in (0, 1]")
        self.losses = losses or ComponentLosses()
        self.crossing_efficiency = crossing_efficiency

    @property
    def crossing_db(self) -> float:
        return to_db(1.0 / self.crossing_efficiency)

    def per_router_loss_db(self, payload_wdm: int) -> float:
        """Loss of one router traversal on the straight-through path.

        A packet's wavelengths cross the perpendicular channel's waveguides
        (one crossing each), pass every resonator/receiver pair parked on
        their own waveguide off-resonance, and take two bends worth of
        routing inside the crossbar.
        """
        layout = PacketLayout(payload_wdm=payload_wdm)
        crossings = layout.waveguides_per_direction * self.crossing_db
        rings = payload_wdm * self.losses.ring_through_db
        bends = 2 * self.losses.bend_db
        return crossings + rings + bends

    def path_loss_db(self, payload_wdm: int, hops: int, turns: int = 1) -> float:
        """End-to-end loss of an ``hops``-hop transmission with ``turns``."""
        if hops < 1:
            raise ValueError("a path has at least one hop")
        if turns < 0:
            raise ValueError("turn count must be non-negative")
        routers = self.per_router_loss_db(payload_wdm) * hops
        links = self.losses.propagation_db_per_mm * constants.HOP_LENGTH_MM * hops
        turns_db = self.losses.ring_drop_db * turns
        return self.losses.coupler_db + routers + links + turns_db

    def required_power_per_wavelength_w(
        self, payload_wdm: int, hops: int, turns: int = 1
    ) -> float:
        """Laser power one wavelength needs at the chip input."""
        sensitivity_w = constants.RECEIVER_SENSITIVITY_UW * 1e-6
        total_db = self.path_loss_db(payload_wdm, hops, turns) + self.losses.margin_db
        return sensitivity_w * from_db(total_db)

    def network_peak_power_w(self, payload_wdm: int, hops: int) -> float:
        """Fig 7's worst case: every input port of every router receiving.

        Each of the :data:`INPUT_PORTS` carries a full packet's wavelengths
        (payload + control bits); every one of them needs its per-wavelength
        budget simultaneously, and every packet is turning (one ring drop on
        its path).
        """
        signals = INPUT_PORTS * (
            constants.PACKET_PAYLOAD_BITS + constants.PACKET_CONTROL_BITS
        )
        return signals * self.required_power_per_wavelength_w(
            payload_wdm, hops, turns=1
        )
