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

State is flat per *line*, ``line = input_port * num_vcs + vc`` (the index
the iSLIP masks use), and the request masks of both allocators persist
from cycle to cycle.  Three transitions move a line's bit:

- **arrive** (:meth:`ElectricalRouter.accept_flit`) sets it in ``wanted``
  of every mesh output the flit must leave through;
- **grant** (VC allocation in :meth:`ElectricalRouter.tick`) moves it from
  that output's ``wanted`` to its ``ready`` and takes the downstream VC out
  of ``free_vcs``;
- **depart** clears it from ``ready``.

A blocked VC therefore costs nothing per cycle: its requests cannot change
until a credit returns or it departs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.electrical.config import CREDIT_DELAY_CYCLES, INPUT_SPEEDUP, ElectricalConfig
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
_LOCAL_BIT = 1 << LOCAL_PORT


class ElectricalRouter:
    """One mesh router of the electrical baseline."""

    def __init__(
        self,
        node: int,
        config: ElectricalConfig,
        topology: GridTopology | None = None,
    ):
        self.node = node
        self.topology = (
            topology
            if topology is not None
            else require_grid(topology_of(config), "the electrical router")
        )
        num_vcs = self.num_vcs = config.num_vcs
        lines = NUM_PORTS * num_vcs
        #: The flit buffered in each input VC.
        self.flits: list[Flit | None] = [None] * lines
        #: Outputs each buffered flit has still to leave through, one bit
        #: per port; the LOCAL bit is a pending crossbar-bypass ejection.
        self.pending = [0] * lines
        #: The outputs of ``pending`` on which the flit holds a downstream
        #: VC, and that VC: ``out_vc[output][line]``, -1 when none.
        self.granted = [0] * lines
        self.out_vc = [[-1] * lines for _ in MESH_PORTS]
        #: ``{output: destinations}`` of a flit that splits at this router
        #: (VCTM); None for one that leaves whole, as every unicast does.
        self.parts: list[dict[int, set[int]] | None] = [None] * lines
        #: Free downstream VCs per mesh output (credit state), one bit per
        #: VC: set while the downstream input VC is available *and* not yet
        #: promised to a local requester.
        self.free_vcs = [(1 << num_vcs) - 1] * len(MESH_PORTS)
        #: Request lines per output, kept up to date by arrive / grant /
        #: depart: ``wanted`` asks for a downstream VC, ``ready`` holds one
        #: and asks for the crossbar.
        self.wanted = [0] * NUM_PORTS
        self.ready = [0] * NUM_PORTS
        self._vc_allocator = VcAllocator(NUM_PORTS, num_vcs)
        self._sw_allocator = SwitchAllocator(NUM_PORTS, num_vcs, INPUT_SPEEDUP)
        #: Occupied input VCs.  A set of ``(port, vc)`` tuples because its
        #: iteration order *is* the order outputs grant in (see
        #: :meth:`_request_order`), and that order is a function of the
        #: set's whole add/discard history.
        self._active: set[tuple[int, int]] = set()
        self._routes: dict[int, int] = {}  # destination -> output port (DOR)
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

    def occupancy(self) -> int:
        """Occupied input VCs across all ports (the buffered-flit count)."""
        return len(self._active)

    def find_free_vc(self, port: int) -> int | None:
        base = port * self.num_vcs
        for vc in range(self.num_vcs):
            if self.flits[base + vc] is None:
                return vc
        return None

    def accept_flit(
        self, port: int, vc: int, flit: Flit, cycle: int, network: "ElectricalNetwork"
    ) -> None:
        """Install an arriving (or injected) flit into an input VC."""
        line = port * self.num_vcs + vc
        if self.flits[line] is not None:
            raise RuntimeError(
                f"router {self.node}: VC ({port},{vc}) occupied on arrival"
            )
        bit = 1 << line
        wanted = self.wanted
        destinations = flit.destinations
        if len(destinations) == 1:
            (destination,) = destinations
            output = self._routes.get(destination)
            if output is None:
                output = self._routes[destination] = (
                    LOCAL_PORT
                    if destination == self.node
                    else int(self.topology.dor_first_direction(self.node, destination))
                )
            outputs = 1 << output
            if output != LOCAL_PORT:
                wanted[output] |= bit
        else:
            partitions = split_by_output(self.node, destinations, self.topology)
            outputs = 0
            for output in partitions:
                outputs |= 1 << output
                if output != LOCAL_PORT:
                    wanted[output] |= bit
            if len(partitions) > 1:
                self.parts[line] = {
                    int(output): part
                    for output, part in partitions.items()
                    if output != LOCAL_PORT
                }
        self.flits[line] = flit
        self.pending[line] = outputs
        self._active.add((port, vc))
        network.stats.energy_pj["buffer_write"] += network.event_pj["buffer_write"]
        if outputs & _LOCAL_BIT:
            # Ejection bypasses the crossbar: accepted one cycle later.
            network.schedule_ejection(cycle + 1, self.node, port, vc)

    def complete_ejection(
        self, port: int, vc: int, cycle: int, network: "ElectricalNetwork"
    ) -> Flit:
        """Finish the crossbar-bypass local delivery scheduled at arrival."""
        line = port * self.num_vcs + vc
        flit = self.flits[line]
        if flit is None:
            raise RuntimeError(f"router {self.node}: ejection from empty VC")
        remaining = self.pending[line] = self.pending[line] & ~_LOCAL_BIT
        network.stats.energy_pj["buffer_read"] += network.event_pj["buffer_read"]
        if not remaining:
            self._release(line, cycle, network)
        return flit

    def _release(self, line: int, cycle: int, network: "ElectricalNetwork") -> None:
        """The flit has left through every output: free the VC."""
        self.flits[line] = self.parts[line] = None
        pair = port, vc = divmod(line, self.num_vcs)
        self._active.discard(pair)
        if port != LOCAL_PORT:
            # Return the credit to the upstream router that sent this flit.
            network.schedule_credit(cycle + CREDIT_DELAY_CYCLES, self.node, port, vc)

    def restore_credit(self, output_port: int, vc: int) -> None:
        """A downstream VC we used has drained; its credit returns."""
        if self.free_vcs[output_port] >> vc & 1:
            raise RuntimeError(
                f"router {self.node}: double credit on ({output_port},{vc})"
            )
        self.free_vcs[output_port] |= 1 << vc

    # -- per-cycle allocation pipeline ----------------------------------------

    def tick(self, cycle: int, network: "ElectricalNetwork") -> None:
        """Run VC allocation, switch allocation and departures for one cycle.

        Every output with both a ``wanted`` line and a free downstream VC
        hands VCs out (lowest free VC first, requesters in rotating
        priority); a line granted this cycle joins switch allocation in
        the same cycle.  Multicast partitions request in parallel, so a
        branch router can set up all its tree edges in one cycle.
        """
        wanted, ready, free_vcs = self.wanted, self.ready, self.free_vcs
        live = 0  # outputs with a line asking for the crossbar
        for output in MESH_PORTS:
            if wanted[output] and free_vcs[output]:
                out_vc = self.out_vc[output]
                for line, vc in self._vc_allocator.assign(
                    output, wanted[output], free_vcs[output]
                ):
                    out_vc[line] = vc
                    # Reserve: no other requester may be promised this VC.
                    free_vcs[output] ^= 1 << vc
                    wanted[output] ^= 1 << line
                    ready[output] |= 1 << line
                    self.granted[line] |= 1 << output
            if ready[output]:
                live |= 1 << output
        if not live:
            return
        network.stats.energy_pj["allocation"] += network.event_pj["allocation"]
        order = self._request_order(live)
        for line, output in self._sw_allocator.allocate_masks(ready, order):
            self._depart(line, output, cycle, network)

    def _request_order(self, live: int) -> list[tuple[int, int]]:
        """Each ``live`` output's first ready ``(line, output)`` pair in
        ``_active`` iteration order.

        Departure order is observable (replica uids, link-event order) and
        its first rule — outputs grant in order of their first live pair,
        see :meth:`SwitchAllocator.allocate_masks` — takes this sequence as
        input.  The one iSLIP iteration reads nothing else, so the scan
        stops once every ``live`` output has its pair.
        """
        num_vcs, granted = self.num_vcs, self.granted
        order: list[tuple[int, int]] = []
        seen = 0
        for port, vc in self._active:
            line = port * num_vcs + vc
            outputs = granted[line] & ~seen
            if not outputs:
                continue
            seen |= outputs
            for output in MESH_PORTS:  # ascending, as a line's requests are raised
                if outputs >> output & 1:
                    order.append((line, output))
            if seen == live:
                break
        return order

    def _depart(
        self, line: int, output: int, cycle: int, network: "ElectricalNetwork"
    ) -> None:
        flit = self.flits[line]
        assert flit is not None
        self.ready[output] ^= 1 << line
        self.granted[line] ^= 1 << output
        remaining = self.pending[line] = self.pending[line] ^ (1 << output)
        out_vc = self.out_vc[output][line]
        self.out_vc[output][line] = -1
        parts = self.parts[line]
        if parts is not None:
            part = parts.pop(output)
            if remaining:
                flit = flit.replica(part, next(network.uids))
            else:
                flit.destinations = part
        stats, event_pj = network.stats, network.event_pj
        energy = stats.energy_pj
        energy["buffer_read"] += event_pj["buffer_read"]
        energy["crossbar"] += event_pj["crossbar"]
        energy["link"] += event_pj["link"]
        stats.hops_traversed += 1
        neighbor = self.neighbors[output]
        if neighbor is None:
            raise RuntimeError(
                f"router {self.node}: DOR routed {flit!r} off the mesh edge"
            )
        network.schedule_link_traversal(
            cycle, self.node, neighbor, output, out_vc, flit
        )
        if not remaining:
            self._release(line, cycle, network)
