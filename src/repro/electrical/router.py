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

from repro.electrical.config import INPUT_SPEEDUP, ElectricalConfig
from repro.electrical.flit import Flit
from repro.electrical.islip import SwitchAllocator, VcAllocator
from repro.electrical.vctm import split_by_output
from repro.topology.base import Topology
from repro.topology.registry import topology_of
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
        topology: Topology | None = None,
    ):
        self.node = node
        self.topology = topology if topology is not None else topology_of(config)
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
        try:
            return self.flits.index(None, base, base + self.num_vcs) - base
        except ValueError:  # every VC of the port holds a flit
            return None

    def accept_flit(
        self, port: int, vc: int, flit: Flit, cycle: int, network: "ElectricalNetwork"
    ) -> None:
        """Install an arriving (or injected) flit into an input VC."""
        line = port * self.num_vcs + vc
        flits = self.flits
        if flits[line] is not None:
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
        flits[line] = flit
        self.pending[line] = outputs
        self._active.add((port, vc))
        network.stats.energy_pj["buffer_write"] += network.event_pj["buffer_write"]
        if outputs & _LOCAL_BIT:
            # Ejection bypasses the crossbar: accepted one cycle later.
            network.schedule_ejection(cycle + 1, self.node, port, vc)

    def complete_ejection(
        self,
        port: int,
        vc: int,
        network: "ElectricalNetwork",
        credits: list[tuple[int, int, int]],
    ) -> Flit:
        """Finish the crossbar-bypass local delivery scheduled at arrival."""
        line = port * self.num_vcs + vc
        flit = self.flits[line]
        if flit is None:
            raise RuntimeError(f"router {self.node}: ejection from empty VC")
        remaining = self.pending[line] = self.pending[line] & ~_LOCAL_BIT
        network.stats.energy_pj["buffer_read"] += network.event_pj["buffer_read"]
        if not remaining:
            self._release(line, credits)
        return flit

    def _release(self, line: int, credits: list[tuple[int, int, int]]) -> None:
        """The flit has left through every output: free the VC and queue
        the credit it owes the upstream router that sent it."""
        self.flits[line] = self.parts[line] = None
        pair = port, vc = divmod(line, self.num_vcs)
        self._active.discard(pair)
        if port != LOCAL_PORT:
            credits.append((self.node, port, vc))

    def restore_credit(self, output_port: int, vc: int) -> None:
        """A downstream VC we used has drained; its credit returns."""
        if self.free_vcs[output_port] >> vc & 1:
            raise RuntimeError(
                f"router {self.node}: double credit on ({output_port},{vc})"
            )
        self.free_vcs[output_port] |= 1 << vc

    # -- per-cycle allocation pipeline ----------------------------------------

    def tick(
        self,
        cycle: int,
        network: "ElectricalNetwork",
        arrivals: list[tuple[int, int, int, Flit]],
        credits: list[tuple[int, int, int]],
    ) -> None:
        """VC allocation, switch allocation and every departure of one
        cycle, in one pass.

        Every output with both a ``wanted`` line and a free downstream VC
        hands VCs out (lowest free VC first, requesters in rotating
        priority); a line granted this cycle joins switch allocation in
        the same cycle.  Multicast partitions request in parallel, so a
        branch router can set up all its tree edges in one cycle.  A
        departing flit joins ``arrivals``, the downstream routers' input
        for cycle ``cycle + router_delay_cycles`` (unless the link faults
        it), and a line it empties queues its credit on ``credits``.
        """
        wanted, ready, free_vcs = self.wanted, self.ready, self.free_vcs
        granted = self.granted
        live = 0  # outputs with a line asking for the crossbar
        for output in MESH_PORTS:
            if wanted[output] and free_vcs[output]:
                out_vc, bit = self.out_vc[output], 1 << output
                requests, free, asking = wanted[output], free_vcs[output], ready[output]
                for line, vc in self._vc_allocator.assign(output, requests, free):
                    out_vc[line] = vc
                    # Reserve: no other requester may be promised this VC.
                    free ^= 1 << vc
                    requests ^= 1 << line
                    asking |= 1 << line
                    granted[line] |= bit
                wanted[output], free_vcs[output], ready[output] = requests, free, asking
            if ready[output]:
                live |= 1 << output
        if not live:
            return
        stats, event_pj = network.stats, network.event_pj
        energy = stats.energy_pj
        energy["allocation"] += event_pj["allocation"]
        if live & (live - 1):
            grants = self._sw_allocator.allocate_masks(ready, self._request_order(live))
        else:  # one output asks: it grants its winner, which is accepted
            output = live.bit_length() - 1
            grants = [(self._sw_allocator.allocate_one(output, ready[output]), output)]
        stats.hops_traversed += len(grants)
        flits, pending, parts_of = self.flits, self.pending, self.parts
        node, fault_at, traced = self.node, network._fault_at, network._traced
        for line, output in grants:
            flit = flits[line]
            assert flit is not None
            ready[output] ^= 1 << line
            granted[line] ^= 1 << output
            remaining = pending[line] = pending[line] ^ (1 << output)
            out_vc = self.out_vc[output]
            vc = out_vc[line]
            out_vc[line] = -1
            parts = parts_of[line]
            if parts is not None:
                part = parts.pop(output)
                if remaining:
                    flit = flit.replica(part, next(network.uids))
                else:
                    flit.destinations = part
            energy["buffer_read"] += event_pj["buffer_read"]
            energy["crossbar"] += event_pj["crossbar"]
            energy["link"] += event_pj["link"]
            neighbor = self.neighbors[output]
            if neighbor is None:
                raise RuntimeError(
                    f"router {node}: DOR routed {flit!r} off the mesh edge"
                )
            kind = None if fault_at is None else fault_at(node * 4 + output)
            if kind is None:
                arrivals.append((neighbor, output, vc, flit))
                if traced:  # stamped with the cycle the hop lands downstream
                    landing = cycle + network.config.router_delay_cycles
                    network.trace_hub.emit("hop", landing, neighbor, flit.uid)
            else:
                network._handle_link_fault(
                    cycle, node, neighbor, output, vc, flit, kind, attempts=1
                )
            if not remaining:
                self._release(line, credits)

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
        unseen = live  # a line's granted outputs are live ones
        for port, vc in self._active:
            line = port * num_vcs + vc
            outputs = granted[line] & unseen
            if not outputs:
                continue
            unseen ^= outputs
            while outputs:  # ascending, as a line's requests are raised
                lowest = outputs & -outputs
                order.append((line, lowest.bit_length() - 1))
                outputs ^= lowest
            if not unseen:
                break
        return order
