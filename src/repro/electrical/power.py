"""Electrical network price list (paper section 4).

The paper augments Booksim with "dynamic power consumption and static
leakage power" using CACTI for the buffers and the Balfour & Dally tiled-CMP
component models for everything else, at 16 nm / 1.0 V / 4 GHz.  We use the
same decomposition with per-operation energies in picojoules for an 80-byte
(640-bit) flit:

- buffer write / read: CACTI-style SRAM access energy, ~0.03 pJ/bit;
- crossbar traversal: ~0.05 pJ/bit through a 5x5 640-bit crossbar with
  4x input speedup;
- allocation: the iSLIP VC + switch allocators, charged per active cycle;
- link traversal: 0.09 pJ/bit/mm over the 1.87 mm hop on full-swing
  repeated wires;
- leakage: router static power dominated by the 50 buffer entries and the
  wide crossbar.

Only the *relative* electrical-vs-optical power matters for Fig 11; these
constants sit in the range the cited models give for a 16 nm process.
"""

from __future__ import annotations

from repro.photonics.constants import (
    BUFFER_READ_PJ_PER_BIT,
    BUFFER_WRITE_PJ_PER_BIT,
    CYCLE_TIME_PS,
    HOP_LENGTH_MM,
    NIC_LEAKAGE_MW,
    PACKET_PAYLOAD_BITS,
)

#: Per-bit energies (pJ/bit) at 16 nm, 1.0 V; the buffer's are shared with
#: the optical router and live in :mod:`repro.photonics.constants`.
CROSSBAR_PJ_PER_BIT = 0.050
#: Full-swing repeated global wire, including repeater switching energy.
LINK_PJ_PER_BIT_PER_MM = 0.090
#: Allocator energy per router per active cycle (both iSLIP stages).
ALLOCATION_PJ_PER_CYCLE = 4.0
#: Static leakage per router (buffers + crossbar + allocators), in mW.
ROUTER_LEAKAGE_MW = 9.0


def event_energies_pj(num_routers: int) -> dict[str, float]:
    """The electrical price list: category -> energy of one event, in pJ.

    A flit is one 640-bit packet crossing one hop; ``leakage`` is the whole
    network's static energy over one cycle (mW * ps = 1e-3 pJ).
    """
    return {
        "buffer_write": PACKET_PAYLOAD_BITS * BUFFER_WRITE_PJ_PER_BIT,
        "buffer_read": PACKET_PAYLOAD_BITS * BUFFER_READ_PJ_PER_BIT,
        "crossbar": PACKET_PAYLOAD_BITS * CROSSBAR_PJ_PER_BIT,
        "link": PACKET_PAYLOAD_BITS * LINK_PJ_PER_BIT_PER_MM * HOP_LENGTH_MM,
        "allocation": ALLOCATION_PJ_PER_CYCLE,
        "leakage": (ROUTER_LEAKAGE_MW + NIC_LEAKAGE_MW)
        * CYCLE_TIME_PS
        * 1e-3
        * num_routers,
    }
