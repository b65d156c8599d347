"""WDM channel planning and the Phastlane packet layout (Table 1, Fig 3).

A Phastlane packet is a single flit carrying an 80-byte payload (64 B cache
line + address/type/source/EDC/misc) plus 70 router-control bits (up to 14
routers x 5 bits).  At the paper's design point of 64-way WDM the payload
occupies ten waveguides (D0-D9) and the control bits two waveguides (C0, C1)
at 35-way WDM.  :class:`PacketLayout` generalises that layout to any WDM
degree for the design-space exploration of section 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.photonics import constants


@dataclass(frozen=True)
class WdmChannelPlan:
    """How one logical channel maps onto waveguides at a given WDM degree."""

    bits: int
    wdm_degree: int

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise ValueError(f"channel must carry at least one bit, got {self.bits}")
        if self.wdm_degree <= 0:
            raise ValueError(f"WDM degree must be positive, got {self.wdm_degree}")

    @property
    def waveguides(self) -> int:
        """Waveguides needed to carry all bits in one cycle."""
        return math.ceil(self.bits / self.wdm_degree)


@dataclass(frozen=True)
class PacketLayout:
    """The complete per-direction waveguide layout of a Phastlane packet.

    ``payload_wdm`` is the design parameter swept in section 3 (32/64/128);
    the control waveguide count is fixed at two, with the control WDM degree
    chosen to spread the 70 control bits evenly (35-way at the design point).
    """

    payload_bits: int = constants.PACKET_PAYLOAD_BITS
    control_bits: int = constants.PACKET_CONTROL_BITS
    payload_wdm: int = 64

    def __post_init__(self) -> None:
        if self.payload_bits <= 0 or self.control_bits <= 0:
            raise ValueError("payload and control sizes must be positive")
        if self.payload_wdm <= 0:
            raise ValueError(f"WDM degree must be positive, got {self.payload_wdm}")

    @property
    def payload_plan(self) -> WdmChannelPlan:
        return WdmChannelPlan(self.payload_bits, self.payload_wdm)

    @property
    def payload_waveguides(self) -> int:
        """D0..Dn waveguides (10 at the 64-way design point)."""
        return self.payload_plan.waveguides

    @property
    def control_waveguides(self) -> int:
        """Always two (C0 and C1), per Fig 3."""
        return constants.CONTROL_WAVEGUIDES

    @property
    def control_wdm(self) -> int:
        """Control bits split evenly across the two control waveguides."""
        return math.ceil(self.control_bits / constants.CONTROL_WAVEGUIDES)

    @property
    def waveguides_per_direction(self) -> int:
        """Total waveguides per mesh direction: payload + control."""
        return self.payload_waveguides + self.control_waveguides

    @property
    def control_groups(self) -> int:
        """Router-control groups the layout can hold (14 at the design point)."""
        return self.control_bits // constants.CONTROL_BITS_PER_ROUTER

    @property
    def receivers_per_input_port(self) -> int:
        """Resonator/receiver pairs on one input port (payload + control)."""
        return self.payload_bits + self.control_bits

    def describe(self) -> dict[str, int]:
        """The Table 1 rows this layout corresponds to."""
        return {
            "packet_payload_wdm": self.payload_wdm,
            "packet_payload_waveguides": self.payload_waveguides,
            "packet_control_bits": self.control_bits,
            "packet_control_wdm": self.control_wdm,
            "packet_control_waveguides": self.control_waveguides,
        }


def design_point_layout() -> PacketLayout:
    """The paper's Table 1 design point: 64-way WDM, 10+2 waveguides."""
    return PacketLayout(payload_wdm=64)
