"""Electrical baseline configuration (paper Table 2)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.geometry import MeshGeometry


@dataclass(frozen=True)
class ElectricalConfig:
    """Parameters of the baseline electrical VC router (Table 2).

    The defaults are exactly the paper's: a one-flit (80-byte) packet, ten
    single-entry VCs per port, iSLIP allocation, a three-cycle per-hop
    router delay (two for the very aggressive variant), input speedup four,
    output speedup one, wait-for-tail credits and a 50-entry NIC buffer.
    """

    mesh: MeshGeometry = field(default_factory=lambda: MeshGeometry(8, 8))
    #: Registered topology family over the mesh's addressable grid.  Part
    #: of spec identity; the default normalises away in serialisation.
    topology: str = "mesh"
    num_vcs: int = 10
    vc_depth: int = 1
    router_delay_cycles: int = 3
    input_speedup: int = 4
    output_speedup: int = 1
    nic_buffer_entries: int = 50
    wait_for_tail_credit: bool = True
    islip_iterations: int = 1
    #: Credit return latency from downstream buffer drain to upstream reuse.
    credit_delay_cycles: int = 1
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
        if self.vc_depth != 1:
            raise ValueError(
                f"only single-entry VCs are modelled (Table 2), got {self.vc_depth}"
            )
        if not self.wait_for_tail_credit:
            raise ValueError("only wait-for-tail credits are modelled (Table 2)")
        if self.router_delay_cycles < 1:
            raise ValueError("router delay must be at least one cycle")
        if self.input_speedup < 1 or self.output_speedup < 1:
            raise ValueError("speedups must be at least 1")
        if self.nic_buffer_entries < 1:
            raise ValueError("NIC needs at least one buffer entry")
        if self.islip_iterations < 1:
            raise ValueError("iSLIP needs at least one iteration")
        if self.credit_delay_cycles < 0:
            raise ValueError("credit delay must be non-negative")
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
            "number_of_entries_per_vc": self.vc_depth,
            "wait_for_tail_credit": "YES" if self.wait_for_tail_credit else "NO",
            "vc_allocator": "ISLIP",
            "sw_allocator": "ISLIP",
            "total_router_delay": f"{self.router_delay_cycles} cycles",
            "input_speedup": self.input_speedup,
            "output_speedup": self.output_speedup,
            "buffer_entries_in_nic": self.nic_buffer_entries,
        }
