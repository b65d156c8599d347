"""Router and processor-die area models (paper section 3.3, Fig 8).

The WDM degree trades two area terms against each other:

- more wavelengths -> fewer waveguides and turn resonators, shrinking the
  router's internal crossbar (the waveguide term, proportional to W(L));
- more wavelengths -> more resonator/receiver pairs on each input port,
  lengthening the ports (the port term, proportional to L).

The router side length is modelled as

    side(L) = 2 * K_WG * W(L) + K_PORT * L + BASE      [micrometres]

whose minimum over the swept WDM degrees falls at L = 64, where the router
matches the 3.5 mm^2 single-core processor node (Kumar-style area model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.photonics import constants
from repro.photonics.wdm import PacketLayout

@dataclass(frozen=True)
class AreaBreakdown:
    """One Fig 8 data point: router area components at one WDM degree."""

    payload_wdm: int
    waveguide_side_um: float  # internal crossbar contribution (2*K_WG*W)
    port_side_um: float  # input-port contribution (K_PORT * L)
    base_side_um: float  # fixed bends/couplers overhead

    @property
    def side_um(self) -> float:
        return self.waveguide_side_um + self.port_side_um + self.base_side_um

    @property
    def side_mm(self) -> float:
        return self.side_um / 1e3

    @property
    def total_area_mm2(self) -> float:
        return self.side_mm**2


class RouterAreaModel:
    """Area of one Phastlane optical router as a function of WDM degree,
    at the calibrated coefficients of :mod:`repro.photonics.constants`."""

    def breakdown(self, payload_wdm: int) -> AreaBreakdown:
        layout = PacketLayout(payload_wdm=payload_wdm)
        return AreaBreakdown(
            payload_wdm=payload_wdm,
            waveguide_side_um=2 * constants.K_WG_UM * layout.waveguides_per_direction,
            port_side_um=constants.K_PORT_UM * payload_wdm,
            base_side_um=constants.AREA_BASE_UM,
        )

    def area_mm2(self, payload_wdm: int) -> float:
        return self.breakdown(payload_wdm).total_area_mm2

    def sweep(self, wdm_degrees: Sequence[int]) -> list[AreaBreakdown]:
        """The Fig 8 series over a set of WDM degrees."""
        return [self.breakdown(wdm) for wdm in wdm_degrees]

    def sweet_spot(self, wdm_degrees: Sequence[int]) -> int:
        """The WDM degree minimizing total router area (64 in the paper)."""
        if not wdm_degrees:
            raise ValueError("need at least one WDM degree to sweep")
        return min(wdm_degrees, key=self.area_mm2)
