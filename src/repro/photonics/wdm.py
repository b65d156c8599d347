"""The Phastlane packet layout across WDM waveguides (Table 1, Fig 3).

A Phastlane packet is a single flit carrying an 80-byte payload (64 B cache
line + address/type/source/EDC/misc) plus 70 router-control bits (up to 14
routers x 5 bits).  At the paper's design point of 64-way WDM the payload
occupies ten waveguides (D0-D9) and the control bits two waveguides (C0, C1)
at 35-way WDM.  :class:`PacketLayout` generalises that layout to any payload
WDM degree for the design-space exploration of section 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.photonics import constants


@dataclass(frozen=True)
class PacketLayout:
    """The per-direction waveguide layout of a Phastlane packet.

    ``payload_wdm`` is the design parameter swept in section 3 (32/64/128);
    the control waveguide count is fixed at two, with the control WDM degree
    chosen to spread the 70 control bits evenly (35-way at the design point).
    """

    payload_wdm: int

    def __post_init__(self) -> None:
        if self.payload_wdm <= 0:
            raise ValueError(f"WDM degree must be positive, got {self.payload_wdm}")

    @property
    def payload_waveguides(self) -> int:
        """D0..Dn: enough waveguides for every payload bit in one cycle (10
        at the 64-way design point)."""
        return math.ceil(constants.PACKET_PAYLOAD_BITS / self.payload_wdm)

    @property
    def control_waveguides(self) -> int:
        """Always two (C0 and C1), per Fig 3."""
        return constants.CONTROL_WAVEGUIDES

    @property
    def control_wdm(self) -> int:
        """Control bits split evenly across the two control waveguides."""
        return math.ceil(constants.PACKET_CONTROL_BITS / constants.CONTROL_WAVEGUIDES)

    @property
    def waveguides_per_direction(self) -> int:
        """Total waveguides per mesh direction: payload + control."""
        return self.payload_waveguides + self.control_waveguides
