"""Phastlane network-interface controller.

The NIC turns trace events into :class:`OpticalPacket` instances — expanding
each broadcast into its up-to-16 multicast packets (section 2.1.4) — holds
them in its FIFO, and feeds the router's local transmit queue whenever it
has space.

Queueing and idle detection live in
:class:`~repro.fabric.base.BaseNic`; this class adds the optical-specific
event expansion (route plans, broadcast fan-out) and the one-packet-per-
cycle router feed.
"""

from __future__ import annotations

from typing import Iterator

from oracle.packet import OpticalPacket
from oracle.router import LOCAL_QUEUE, PhastlaneRouter
from oracle.routing import broadcast_plans
from repro.core.config import PhastlaneConfig
from repro.core.routing import build_plan
from repro.fabric.base import BaseNic
from repro.obs.events import TraceHub
from repro.sim.stats import NetworkStats
from repro.topology.registry import topology_of


class PhastlaneNic(BaseNic):
    """One node's NIC for the optical network."""

    def __init__(
        self,
        node: int,
        config: PhastlaneConfig,
        stats: NetworkStats,
        trace_hub: TraceHub | None = None,
        uids: Iterator[int] | None = None,
    ):
        super().__init__(node, config, stats, trace_hub=trace_hub, uids=uids)
        self.topology = topology_of(config)
        self._next_broadcast_id = node  # strided by node count per broadcast

    def _expand(
        self, destination: int | None, generated_cycle: int, cycle: int
    ) -> None:
        """Expand one injection into route-planned optical packets."""
        topology = self.topology
        if destination is None:
            plans = broadcast_plans(
                topology, self.node, self.config.max_hops_per_cycle
            )
            broadcast_id = self._next_broadcast_id
            self._next_broadcast_id += topology.num_nodes
            self.stats.record_generated(cycle, multicast=True)
            for _ in range(topology.num_nodes - 2):
                self.stats.record_generated(cycle)
            for plan in plans:
                packet = OpticalPacket(
                    origin=self.node,
                    plan=plan,
                    generated_cycle=generated_cycle,
                    broadcast_id=broadcast_id,
                    uid=next(self.uids),
                )
                self._queue.append(packet)
                if self.trace_hub:
                    self.trace_hub.emit(
                        "generated", cycle, self.node, packet.uid,
                        extra={"dst": packet.final_node, "multicast": True},
                    )
        else:
            plan = build_plan(
                topology,
                self.node,
                destination,
                self.config.max_hops_per_cycle,
            )
            self.stats.record_generated(cycle)
            packet = OpticalPacket(
                origin=self.node,
                plan=plan,
                generated_cycle=generated_cycle,
                uid=next(self.uids),
            )
            self._queue.append(packet)
            if self.trace_hub:
                self.trace_hub.emit(
                    "generated", cycle, self.node, packet.uid,
                    extra={"dst": packet.final_node},
                )

    def feed_router(self, router: PhastlaneRouter, cycle: int) -> int:
        """Move packets from the NIC into the router's local transmit queue.

        One packet per cycle crosses the NIC-to-router interface (one set
        of modulator drivers per node), space permitting.  Returns the
        number of packets moved.
        """
        if not (self._queue and router.has_space(LOCAL_QUEUE)):
            return 0
        packet = self._queue.popleft()
        router.enqueue(LOCAL_QUEUE, packet, eligible_cycle=cycle)
        self.stats.record_injected(cycle)
        if self.trace_hub:
            self.trace_hub.emit("injected", cycle, self.node, packet.uid)
        return 1
