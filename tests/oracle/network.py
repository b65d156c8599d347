"""The Phastlane optical network simulator (paper section 2).

Cycle-accurate, flit-level.  Within each 250 ps network cycle a transmitted
packet traverses up to ``max_hops_per_cycle`` routers optically; the
simulator models that same-cycle multi-hop transit as a sequence of *waves*:
wave ``k`` is every in-flight packet attempting its ``k``-th hop of the
cycle.  Output-port contention is resolved exactly as the hardware does:

- ports claimed by a router's own buffered transmission (chosen by the
  rotating-priority arbiter at the start of the cycle) block all incoming
  packets — "buffered packets have priority for output ports over newly
  arriving packets" (section 2.1.1);
- ports claimed in an earlier wave block later waves (the earlier packet's
  light already holds the path);
- among same-wave contenders the straight-through packet beats turns
  (section 2.1: "straightline paths through the router have priority over
  turns"), and turning contenders tie-break by fixed input-port order.

A blocked packet is received into the blocking router's input-port buffer
if there is space — that router then assumes delivery responsibility and
re-plans from its own position — or is dropped, raising a Packet Dropped
signal that reaches the transmitting source on the drop-signal return path
in the next cycle (section 2.1.2).  Multicast packets power-tap every
router whose control group has the Multicast bit set (section 2.1.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from oracle.nic import PhastlaneNic
from oracle.packet import OpticalPacket
from oracle.router import INPUT_PORT_PRIORITY, PhastlaneRouter
from oracle.routing import clear_passed_taps, replan_from
from repro.core.config import PhastlaneConfig
from repro.fabric.base import MeshNetworkBase
from repro.faults.schedule import FaultSchedule
from repro.photonics.power import optical_prices
from repro.sim.stats import NetworkStats
from repro.traffic.trace import TrafficSource
from repro.util.geometry import TURN_KIND, Direction, TurnKind

#: Priority rank of a turn kind at a contended output port (lower wins).
_TURN_RANK = {TurnKind.STRAIGHT: 0, TurnKind.LEFT: 1, TurnKind.RIGHT: 2}


def laser_index(segment_hops: int, taps: int) -> int:
    """Index into ``OpticalPrices.laser`` of a launch's (first-segment hops,
    taps on that segment); dense, because a segment of ``n`` hops has at
    most ``n`` taps."""
    return segment_hops * (segment_hops + 1) // 2 + taps


@dataclass
class _Transit:
    """One packet's optical traversal during the current cycle."""

    packet: OpticalPacket
    transmitter: int
    index: int = 0  # position in packet.plan of the router the light is at


class PhastlaneNetwork(MeshNetworkBase):
    """A mesh of Phastlane routers driven by a traffic source."""

    def __init__(
        self,
        config: PhastlaneConfig | None = None,
        source: TrafficSource | None = None,
        stats: NetworkStats | None = None,
        faults: FaultSchedule | None = None,
    ):
        super().__init__(config or PhastlaneConfig(), source, stats, faults)
        #: The optical price list, shared with every network of this shape.
        self.prices = optical_prices(
            self.mesh.num_nodes, self.config.max_hops_per_cycle
        )
        self.routers = [
            PhastlaneRouter(node, self.config) for node in self.mesh.nodes()
        ]
        self.nics = [
            PhastlaneNic(
                node, self.config, self.stats, trace_hub=self.trace_hub, uids=self.uids
            )
            for node in self.mesh.nodes()
        ]
        #: Drop signals raised this cycle, delivered to transmitters next
        #: cycle: packet uid -> plan index of the dropping router.
        self._drop_signals: dict[int, int] = {}
        #: Uids among this cycle's drop signals whose drop was fault-caused
        #: (their retransmission counts as the fault being *masked*).
        self._fault_drop_uids: set[int] = set()
        self._delivered_broadcast: set[tuple[int, int]] = set()
        #: Round-robin pointers for the footnote-3 arbitration alternative.
        self._rr_pointers: dict[tuple[int, Direction], int] = {}

    # -- per-cycle hooks (MeshNetworkBase) -----------------------------------------

    def _step_cycle(self, cycle: int) -> None:
        self._resolve_drop_signals(cycle)
        self._generate_and_inject(cycle)
        transits = self._launch_transmissions(cycle)
        self._run_waves(transits, cycle)

    def _end_of_cycle(self, cycle: int) -> None:
        self.stats.energy_pj["static"] += self.prices.static
        self.stats.buffer_occupancy_samples.add(
            sum(router.occupancy() for router in self.routers)
        )

    def _inject_from_nic(self, node: int, nic: PhastlaneNic, cycle: int) -> None:
        nic.feed_router(self.routers[node], cycle)

    # -- cycle phases --------------------------------------------------------------

    def _resolve_drop_signals(self, cycle: int) -> None:
        signals, self._drop_signals = self._drop_signals, {}
        fault_uids, self._fault_drop_uids = self._fault_drop_uids, set()
        retry_limit = (
            self._faults.config.retry_limit if self._faults is not None else None
        )
        for router in self.routers:
            retries = router.resolve_pending(cycle, signals, retry_limit=retry_limit)
            for packet, drop_index in retries:
                self.stats.record_retransmission()
                if self.trace_hub:
                    self.trace_hub.emit(
                        "retransmitted", cycle, router.node, packet.uid,
                        extra={"attempts": packet.attempts},
                    )
                if packet.uid in fault_uids:
                    self.stats.record_fault_masked()
                    if self.trace_hub:
                        self.trace_hub.emit(
                            "fault_masked", cycle, router.node, packet.uid
                        )
                if packet.is_multicast:
                    packet.plan = clear_passed_taps(packet.plan, drop_index)
            if retry_limit is not None:
                for packet, drop_index in router.take_abandoned():
                    lost = (
                        sum(1 for s in packet.plan[drop_index:] if s.multicast)
                        if packet.is_multicast
                        else 1
                    )
                    self.stats.record_fault_loss(lost)
                    if self.trace_hub:
                        self.trace_hub.emit(
                            "fault_dropped", cycle, router.node, packet.uid,
                            extra={"lost": lost, "attempts": packet.attempts},
                        )

    def _launch_transmissions(self, cycle: int) -> list[_Transit]:
        """Arbiter selection at every router; wave-0 output-port claims."""
        self._port_claims: set[tuple[int, Direction]] = set()
        transits: list[_Transit] = []
        prices = self.prices
        for router in self.routers:
            for _queue_id, packet in router.select_transmissions(cycle):
                self.stats.energy_pj["modulator"] += prices.modulator
                self.stats.energy_pj["buffer_read"] += prices.buffer_read
                self.stats.energy_pj["laser"] += prices.laser[
                    laser_index(*self._first_segment(packet))
                ]
                self._port_claims.add((router.node, packet.desired_output))
                transits.append(_Transit(packet, transmitter=router.node))
        return transits

    @staticmethod
    def _first_segment(packet: OpticalPacket) -> tuple[int, int]:
        """Hop count and broadcast-tap count of the first optical segment:
        what a launch's laser must feed."""
        taps = 0
        for index, step in enumerate(packet.plan[1:], start=1):
            taps += step.multicast
            if step.local:
                return index, taps
        return len(packet.plan) - 1, taps  # pragma: no cover - plans end local

    def _run_waves(self, transits: list[_Transit], cycle: int) -> None:
        active = transits
        for _wave in range(self.config.max_hops_per_cycle):
            if not active:
                return
            active = self._advance_one_wave(active, cycle)
        if active:  # pragma: no cover - plans guarantee termination
            raise RuntimeError(
                f"transits exceeded the {self.config.max_hops_per_cycle}-hop "
                f"budget: {[t.packet for t in active]}"
            )

    def _advance_one_wave(
        self, active: list[_Transit], cycle: int
    ) -> list[_Transit]:
        contenders: dict[tuple[int, Direction], list[_Transit]] = {}
        for transit in active:
            transit.index += 1
            if self._faults is not None and self._fault_crossing(transit, cycle):
                continue
            self.stats.record_hops(1)
            step = transit.packet.plan[transit.index]
            if self.trace_hub:
                self.trace_hub.emit("hop", cycle, step.node, transit.packet.uid)
            self.stats.energy_pj["receiver"] += self.prices.receive_control
            if step.multicast:
                self._deliver_tap(transit.packet, step.node, cycle)
            if step.local:
                self._finish_local(transit, cycle)
                continue
            assert step.exit is not None
            contenders.setdefault((step.node, step.exit), []).append(transit)

        continuing: list[_Transit] = []
        for (node, port), group in contenders.items():
            if (node, port) in self._port_claims:
                for transit in group:
                    self._block(transit, cycle)
                continue
            winner, losers = self._arbitrate(node, port, group)
            self._port_claims.add((node, port))
            continuing.append(winner)
            for transit in losers:
                self._block(transit, cycle)
        return continuing

    def _arbitrate(
        self, node: int, port: Direction, group: list[_Transit]
    ) -> tuple[_Transit, list[_Transit]]:
        """Pick the winning same-wave contender for one output port."""
        if self.config.network_arbitration == "fixed":
            group.sort(key=self._priority_key)
            return group[0], group[1:]
        # Round-robin (paper footnote 3's rejected alternative): rotate
        # priority over the input ports per (router, output port).
        pointer = self._rr_pointers.get((node, port), 0)

        def rr_key(transit: _Transit) -> int:
            arrival = transit.packet.plan[transit.index - 1].exit
            assert arrival is not None
            return (INPUT_PORT_PRIORITY.index(arrival) - pointer) % 4

        group.sort(key=rr_key)
        winner = group[0]
        winner_arrival = winner.packet.plan[winner.index - 1].exit
        assert winner_arrival is not None
        self._rr_pointers[(node, port)] = (
            INPUT_PORT_PRIORITY.index(winner_arrival) + 1
        ) % 4
        return winner, group[1:]

    def _priority_key(self, transit: _Transit) -> tuple[int, int]:
        """Fixed-priority rank: straight beats turns, then input-port order."""
        packet = transit.packet
        arrival = packet.plan[transit.index - 1].exit
        exit_direction = packet.plan[transit.index].exit
        assert arrival is not None and exit_direction is not None
        kind = TURN_KIND[(arrival, exit_direction)]
        return (_TURN_RANK[kind], INPUT_PORT_PRIORITY.index(arrival))

    def _fault_crossing(self, transit: _Transit, cycle: int) -> bool:
        """Check the crossing just attempted against the fault schedule.

        The crossing leaves ``plan[index - 1]`` through its exit port.  A
        dead port or transient link fault kills the light mid-crossing, so
        the packet is gone from the optical domain and the transmitter's
        pending copy recovers it via the normal drop-signal machinery (the
        drop index points at the router the packet failed to reach, so
        passed multicast taps are cleared exactly as for a contention drop).
        """
        assert self._faults is not None
        packet = transit.packet
        prev = packet.plan[transit.index - 1]
        assert prev.exit is not None
        kind = self._faults.crossing_fault(prev.node, int(prev.exit), cycle)
        if kind is None:
            return False
        self.stats.record_fault(kind)
        self._fault_hit.add(packet.uid)
        self.stats.record_dropped()
        self._drop_signals[packet.uid] = transit.index
        self._fault_drop_uids.add(packet.uid)
        self.stats.energy_pj["drop_network"] += self.prices.drop_signal
        if self.trace_hub:
            self.trace_hub.emit(
                "fault_injected", cycle, prev.node, packet.uid,
                extra={
                    "fault": kind,
                    # Label the faulted crossing via the topology so traces
                    # read correctly on wrapped graphs (e.g. "EAST_WRAP").
                    "port": self.topology.port_label(prev.node, int(prev.exit)),
                },
            )
            self.trace_hub.emit("dropped", cycle, prev.node, packet.uid)
        return True

    # -- transit outcomes --------------------------------------------------------------

    def _finish_local(self, transit: _Transit, cycle: int) -> None:
        """Local-bit stop: final delivery or interim-node responsibility."""
        packet = transit.packet
        self.stats.energy_pj["receiver"] += self.prices.receive_packet
        if transit.index == len(packet.plan) - 1:
            if not packet.is_multicast:
                self.stats.record_delivered(packet.generated_cycle, cycle)
                self._note_fault_delivery(packet.uid)
                if self.trace_hub:
                    self.trace_hub.emit(
                        "delivered", cycle, packet.final_node, packet.uid
                    )
            # Multicast finals were recorded by their tap (Local+Multicast).
            return
        self._buffer_or_drop(transit, cycle)

    def _block(self, transit: _Transit, cycle: int) -> None:
        """Output port blocked: receive into the input buffer, or drop."""
        if self.trace_hub:
            self.trace_hub.emit(
                "blocked",
                cycle,
                transit.packet.plan[transit.index].node,
                transit.packet.uid,
            )
        self.stats.energy_pj["receiver"] += self.prices.receive_packet
        self._buffer_or_drop(transit, cycle)

    def _buffer_or_drop(self, transit: _Transit, cycle: int) -> None:
        packet = transit.packet
        node = packet.plan[transit.index].node
        arrival = packet.plan[transit.index - 1].exit
        assert arrival is not None
        router = self.routers[node]
        queue_id = int(arrival)
        if router.has_space(queue_id):
            packet.plan = replan_from(
                self.topology,
                packet.plan,
                transit.index,
                self.config.max_hops_per_cycle,
            )
            router.enqueue(queue_id, packet, eligible_cycle=cycle + 1)
            self.stats.energy_pj["buffer_write"] += self.prices.buffer_write
            if self.trace_hub:
                self.trace_hub.emit("buffered", cycle, node, packet.uid)
            return
        self.stats.record_dropped()
        self._drop_signals[packet.uid] = transit.index
        self.stats.energy_pj["drop_network"] += self.prices.drop_signal
        if self.trace_hub:
            self.trace_hub.emit("dropped", cycle, node, packet.uid)

    def _deliver_tap(self, packet: OpticalPacket, node: int, cycle: int) -> None:
        self.stats.energy_pj["receiver"] += self.prices.receive_packet
        key = (packet.broadcast_id if packet.is_multicast else packet.uid, node)
        if key in self._delivered_broadcast:
            return
        self._delivered_broadcast.add(key)
        self.stats.record_delivered(packet.generated_cycle, cycle)
        self._note_fault_delivery(packet.uid)
        if self.trace_hub:
            self.trace_hub.emit("delivered", cycle, node, packet.uid)

    # -- run control ----------------------------------------------------------------------

    def _pending_work(self) -> bool:
        """Packets awaiting a drop signal block :meth:`idle`."""
        return bool(self._drop_signals)
