"""Electrical network power model (paper section 4).

The paper augments Booksim with "dynamic power consumption and static
leakage power" using CACTI for the buffers and the Balfour & Dally tiled-CMP
component models for everything else, at 16 nm / 1.0 V / 4 GHz.  We use the
same decomposition with per-operation energies in picojoules for an 80-byte
(640-bit) flit:

- buffer write / read: CACTI-style SRAM access energy, ~0.03 pJ/bit;
- crossbar traversal: ~0.05 pJ/bit through a 5x5 640-bit crossbar with
  4x input speedup;
- allocation: the iSLIP VC + switch allocators, charged per active cycle;
- link traversal: ~0.054 pJ/bit/mm over the 1.87 mm hop with optimally
  repeatered low-swing wires;
- leakage: router static power dominated by the 50 buffer entries and the
  wide crossbar.

Only the *relative* electrical-vs-optical power matters for Fig 11; these
constants sit in the range the cited models give for a 16 nm process.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.photonics.constants import CYCLE_TIME_PS, HOP_LENGTH_MM, PACKET_PAYLOAD_BITS
from repro.sim.stats import NetworkStats

#: Per-bit energies (pJ/bit) at 16 nm, 1.0 V.
BUFFER_WRITE_PJ_PER_BIT = 0.030
BUFFER_READ_PJ_PER_BIT = 0.030
CROSSBAR_PJ_PER_BIT = 0.050
#: Full-swing repeated global wire, including repeater switching energy.
LINK_PJ_PER_BIT_PER_MM = 0.090
#: Allocator energy per router per active cycle (both iSLIP stages).
ALLOCATION_PJ_PER_CYCLE = 4.0
#: Static leakage per router (buffers + crossbar + allocators), in mW.
ROUTER_LEAKAGE_MW = 9.0
#: Static leakage of one 50-entry NIC buffer, in mW.
NIC_LEAKAGE_MW = 1.5


@dataclass(frozen=True)
class ElectricalPowerModel:
    """Charges electrical energy events into a :class:`NetworkStats` ledger."""

    packet_bits: int = PACKET_PAYLOAD_BITS
    hop_length_mm: float = HOP_LENGTH_MM
    cycle_time_ps: float = CYCLE_TIME_PS

    def __post_init__(self) -> None:
        if self.packet_bits <= 0:
            raise ValueError("packet size must be positive")
        if self.hop_length_mm <= 0 or self.cycle_time_ps <= 0:
            raise ValueError("hop length and cycle time must be positive")

    def buffer_write(self, stats: NetworkStats) -> None:
        stats.add_energy("buffer_write", self.packet_bits * BUFFER_WRITE_PJ_PER_BIT)

    def buffer_read(self, stats: NetworkStats) -> None:
        stats.add_energy("buffer_read", self.packet_bits * BUFFER_READ_PJ_PER_BIT)

    def crossbar(self, stats: NetworkStats) -> None:
        stats.add_energy("crossbar", self.packet_bits * CROSSBAR_PJ_PER_BIT)

    def link(self, stats: NetworkStats) -> None:
        stats.add_energy(
            "link", self.packet_bits * LINK_PJ_PER_BIT_PER_MM * self.hop_length_mm
        )

    def allocation(self, stats: NetworkStats) -> None:
        stats.add_energy("allocation", ALLOCATION_PJ_PER_CYCLE)

    def leakage(self, stats: NetworkStats, num_routers: int, cycles: int = 1) -> None:
        """Static energy of the whole network over ``cycles`` cycles."""
        if num_routers <= 0 or cycles < 0:
            raise ValueError("router count must be positive, cycles non-negative")
        per_router_mw = ROUTER_LEAKAGE_MW + NIC_LEAKAGE_MW
        # mW * ps = 1e-3 J/s * 1e-12 s = 1e-15 J = 1e-3 pJ
        picojoules = per_router_mw * self.cycle_time_ps * 1e-3 * num_routers * cycles
        stats.add_energy("leakage", picojoules)

    def event_energies_pj(self, num_routers: int) -> dict[str, float]:
        """Category -> energy of one event (for leakage, of one network cycle)."""
        priced = NetworkStats()
        self.buffer_write(priced)
        self.buffer_read(priced)
        self.crossbar(priced)
        self.link(priced)
        self.allocation(priced)
        self.leakage(priced, num_routers)
        return {category: float(pj) for category, pj in priced.energy_pj.items()}
