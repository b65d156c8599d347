"""Electrical baseline configuration (paper Table 2)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.geometry import MeshGeometry

#: The Table 2 rows the baseline fixes, stated once.  They are not config
#: fields: no figure varies them, so a search over configs has nothing to
#: find along them.  A serialised spec still spells them out at these
#: values (``repro.harness.exec.RETIRED_KEYS``).
VC_DEPTH = 1
WAIT_FOR_TAIL_CREDIT = True
#: Grants one input port may take per cycle; each output grants one.
INPUT_SPEEDUP = 4
OUTPUT_SPEEDUP = 1
ISLIP_ITERATIONS = 1
#: Cycles from a downstream buffer draining to its credit reaching upstream.
CREDIT_DELAY_CYCLES = 1


@dataclass(frozen=True)
class ElectricalConfig:
    """Parameters of the baseline electrical VC router (Table 2).

    The defaults are exactly the paper's: a one-flit (80-byte) packet, ten
    VCs per port, a three-cycle per-hop router delay (two for the very
    aggressive variant) and a 50-entry NIC buffer.  The rows no figure
    varies are the module constants above.
    """

    mesh: MeshGeometry = field(default_factory=lambda: MeshGeometry(8, 8))
    #: Registered topology family over the mesh's addressable grid.  Part
    #: of spec identity; the default normalises away in serialisation.
    topology: str = "mesh"
    num_vcs: int = 10
    router_delay_cycles: int = 3
    nic_buffer_entries: int = 50
    packet_bits: int = 80 * 8

    def __post_init__(self) -> None:
        from repro.topology import registered_topologies

        if self.topology not in registered_topologies():
            raise ValueError(
                f"unknown topology {self.topology!r}; registered: "
                f"{', '.join(registered_topologies())}"
            )
        if self.num_vcs < 1:
            raise ValueError(f"need at least one VC, got {self.num_vcs}")
        if self.router_delay_cycles < 1:
            raise ValueError("router delay must be at least one cycle")
        if self.nic_buffer_entries < 1:
            raise ValueError("NIC needs at least one buffer entry")
        if self.packet_bits < 1:
            raise ValueError("packets must carry at least one bit")

    @property
    def label(self) -> str:
        """Figure-style label, e.g. ``Electrical3`` for the 3-cycle router."""
        return f"Electrical{self.router_delay_cycles}"

    def describe(self) -> dict[str, object]:
        """The Table 2 rows."""
        return {
            "flits_per_packet": "1 (80 Bytes)",
            "routing_function": "Dimension-Order",
            "number_of_vcs_per_port": self.num_vcs,
            "number_of_entries_per_vc": VC_DEPTH,
            "wait_for_tail_credit": "YES" if WAIT_FOR_TAIL_CREDIT else "NO",
            "vc_allocator": "ISLIP",
            "sw_allocator": "ISLIP",
            "total_router_delay": f"{self.router_delay_cycles} cycles",
            "input_speedup": INPUT_SPEEDUP,
            "output_speedup": OUTPUT_SPEEDUP,
            "buffer_entries_in_nic": self.nic_buffer_entries,
        }
