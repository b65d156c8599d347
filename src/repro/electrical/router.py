"""The baseline electrical virtual-channel router (paper Table 2).

Microarchitecture (Booksim-style input-queued VC router):

- five ports (N, E, S, W, Local), ten single-entry VCs per input port;
- dimension-order route computation on arrival (route lookahead is implicit:
  the output port is known before allocation begins);
- iSLIP VC allocation for output virtual channels, iSLIP switch allocation
  with input speedup 4 / output speedup 1;
- credit-based flow control with wait-for-tail semantics (single-flit
  packets: the buffer frees, and the credit returns, when the flit departs);
- local ejection bypasses the crossbar: a flit destined for this node is
  accepted by the processor one cycle after entering the router;
- VCTM multicast: a flit's destination set is partitioned by output port on
  arrival; each partition departs as an independent replica.

A two- or three-cycle per-hop delay (``router_delay_cycles``) covers the
speculative pipeline plus link traversal: a flit that wins switch
allocation in cycle T enters the downstream router's input buffer in cycle
``T + router_delay_cycles``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.electrical.config import ElectricalConfig
from repro.electrical.flit import Flit
from repro.electrical.islip import SwitchAllocator, VcAllocator
from repro.electrical.vctm import split_by_output
from repro.topology import GridTopology, require_grid, topology_of
from repro.util.geometry import OPPOSITE, Direction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.electrical.network import ElectricalNetwork

#: Port index order: the four mesh directions then the local port.
NUM_PORTS = 5
LOCAL_PORT = int(Direction.LOCAL)
MESH_PORTS = tuple(
    int(d) for d in (Direction.NORTH, Direction.EAST, Direction.SOUTH, Direction.WEST)
)


@dataclass
class _Group:
    """One output-port partition of a buffered flit's destinations."""

    destinations: set[int]
    out_vc: int | None = None  # downstream VC granted by VC allocation


@dataclass
class _VcState:
    """Occupancy of one input virtual channel."""

    flit: Flit
    arrival_cycle: int
    groups: dict[int, _Group] = field(default_factory=dict)
    local_pending: bool = False


class ElectricalRouter:
    """One mesh router of the electrical baseline."""

    def __init__(
        self,
        node: int,
        config: ElectricalConfig,
        topology: GridTopology | None = None,
    ):
        self.node = node
        self.config = config
        self.mesh = config.mesh
        self.topology = (
            topology
            if topology is not None
            else require_grid(topology_of(config), "the electrical router")
        )
        self.vcs: list[list[_VcState | None]] = [
            [None] * config.num_vcs for _ in range(NUM_PORTS)
        ]
        #: Free downstream VCs per mesh output port (credit state).  An
        #: entry is True when the downstream input VC is available *and*
        #: not yet promised to a local requester.
        self.credits: list[list[bool]] = [
            [True] * config.num_vcs for _ in range(NUM_PORTS)
        ]
        self._vc_allocator = VcAllocator(NUM_PORTS, config.num_vcs)
        self._sw_allocator = SwitchAllocator(
            NUM_PORTS,
            config.num_vcs,
            input_speedup=config.input_speedup,
            output_speedup=config.output_speedup,
            iterations=config.islip_iterations,
        )
        self._active: set[tuple[int, int]] = set()
        #: Node behind each mesh output port (None at a mesh edge), and the
        #: node feeding each mesh input port: a flit travelling in
        #: direction ``d`` arrives on input port ``d`` from the neighbour
        #: opposite to ``d``.
        self.neighbors = tuple(self.topology.neighbor(node, d) for d in MESH_PORTS)
        self.upstream = tuple(
            self.topology.neighbor(node, OPPOSITE[Direction(d)]) for d in MESH_PORTS
        )

    @property
    def busy(self) -> bool:
        """True while any input VC holds a flit."""
        return bool(self._active)

    # -- buffer management ----------------------------------------------------

    def free_vc_count(self, port: int) -> int:
        return sum(1 for state in self.vcs[port] if state is None)

    def occupancy(self) -> int:
        """Occupied input VCs across all ports (the buffered-flit count)."""
        return len(self._active)

    def find_free_vc(self, port: int) -> int | None:
        for vc, state in enumerate(self.vcs[port]):
            if state is None:
                return vc
        return None

    def accept_flit(
        self, port: int, vc: int, flit: Flit, cycle: int, network: "ElectricalNetwork"
    ) -> None:
        """Install an arriving (or injected) flit into an input VC."""
        if self.vcs[port][vc] is not None:
            raise RuntimeError(
                f"router {self.node}: VC ({port},{vc}) occupied on arrival"
            )
        partitions = split_by_output(self.node, flit.destinations, self.topology)
        local = partitions.pop(Direction.LOCAL, set())
        state = _VcState(
            flit=flit,
            arrival_cycle=cycle,
            # Ascending output order: the allocators see a VC's groups in it.
            groups={
                int(direction): _Group(destinations=dests)
                for direction, dests in sorted(partitions.items())
            },
            local_pending=bool(local),
        )
        self.vcs[port][vc] = state
        self._active.add((port, vc))
        network.charge_buffer_write(self.node)
        if local:
            # Ejection bypasses the crossbar: accepted one cycle later.
            network.schedule_ejection(cycle + 1, self.node, port, vc, frozenset(local))

    def complete_ejection(
        self, port: int, vc: int, cycle: int, network: "ElectricalNetwork"
    ) -> None:
        """Finish the crossbar-bypass local delivery scheduled at arrival."""
        state = self.vcs[port][vc]
        if state is None:
            raise RuntimeError(f"router {self.node}: ejection from empty VC")
        state.local_pending = False
        network.charge_buffer_read(self.node)
        self._release_if_done(port, vc, cycle, network)

    def _release_if_done(
        self, port: int, vc: int, cycle: int, network: "ElectricalNetwork"
    ) -> None:
        state = self.vcs[port][vc]
        if state is None or state.groups or state.local_pending:
            return
        self.vcs[port][vc] = None
        self._active.discard((port, vc))
        if port != LOCAL_PORT:
            # Return the credit to the upstream router that sent this flit.
            network.schedule_credit(
                cycle + self.config.credit_delay_cycles, self.node, port, vc
            )

    def restore_credit(self, output_port: int, vc: int) -> None:
        """A downstream VC we used has drained; its credit returns."""
        if self.credits[output_port][vc]:
            raise RuntimeError(
                f"router {self.node}: double credit on ({output_port},{vc})"
            )
        self.credits[output_port][vc] = True

    # -- per-cycle allocation pipeline ----------------------------------------

    def tick(self, cycle: int, network: "ElectricalNetwork") -> None:
        """Run VC allocation, switch allocation and departures for one cycle.

        One pass over the occupied VCs raises the request lines of both
        allocators (``line = port * num_vcs + vc``): a replication group
        without a downstream VC requests one from its output's VC
        allocator, a group holding one requests the crossbar.  Multicast
        groups request in parallel, so a branch router can set up all its
        tree edges in one cycle, and a VC granted this cycle joins switch
        allocation in the same cycle.  ``order`` keeps the pass's sequence
        because departure order is observable (replica uids, link-event
        order): see :meth:`SwitchAllocator.allocate_masks`.
        """
        if not self._active:
            return
        num_vcs = self.config.num_vcs
        vcs = self.vcs
        wanted = [0] * NUM_PORTS  # output -> lines asking for a downstream VC
        ready = [0] * NUM_PORTS  # output -> lines asking for the crossbar
        order: list[tuple[int, int]] = []
        for port, vc in self._active:
            state = vcs[port][vc]
            assert state is not None
            line = port * num_vcs + vc
            for output_port, group in state.groups.items():
                order.append((line, output_port))
                if group.out_vc is None:
                    wanted[output_port] |= 1 << line
                else:
                    ready[output_port] |= 1 << line
        for output_port, mask in enumerate(wanted):
            if not mask:
                continue
            credits = self.credits[output_port]
            free = [v for v, ok in enumerate(credits) if ok]
            for line, out_vc in self._vc_allocator.assign(output_port, mask, free):
                state = vcs[line // num_vcs][line % num_vcs]
                assert state is not None
                state.groups[output_port].out_vc = out_vc
                # Reserve: no other requester may be promised this downstream VC.
                credits[out_vc] = False
                ready[output_port] |= 1 << line
        if not any(ready):
            return
        network.charge_allocation(self.node)
        for line, output_port in self._sw_allocator.allocate_masks(ready, order):
            self._depart(line // num_vcs, line % num_vcs, output_port, cycle, network)

    def _depart(
        self, port: int, vc: int, output_port: int, cycle: int,
        network: "ElectricalNetwork",
    ) -> None:
        state = self.vcs[port][vc]
        assert state is not None
        group = state.groups.pop(output_port)
        assert group.out_vc is not None
        if state.groups or state.local_pending:
            flit = state.flit.replica(group.destinations)
        else:
            flit = state.flit
            flit.destinations = group.destinations
        network.charge_buffer_read(self.node)
        network.charge_traversal(self.node)
        neighbor = self.neighbors[output_port]
        if neighbor is None:
            raise RuntimeError(
                f"router {self.node}: DOR routed {flit!r} off the mesh edge"
            )
        network.schedule_link_traversal(
            cycle, self.node, neighbor, output_port, group.out_vc, flit
        )
        self._release_if_done(port, vc, cycle, network)
