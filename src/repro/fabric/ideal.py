"""An analytic zero-contention backend: the contention-free reference curve.

:class:`IdealNetwork` models a mesh with infinite bandwidth and no
contention: every injected packet is delivered exactly
``hop_count * cycles_per_hop`` cycles later (minimum one cycle), no
matter what else is in flight.  It shares the full backend lifecycle —
the NIC FIFO, one injection per node per cycle, stats, TraceHub
lifecycle events, ``idle()`` drain — so it runs through run specs,
sweeps, campaigns and the observability layer unchanged.

Its job is a *reference curve*: plotting a Fig 9-style sweep of
``Ideal`` next to ``Optical4``/``Electrical3`` separates topology-imposed
latency from contention, buffering and router pipeline costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Any

from repro.fabric.base import BaseNic, MeshNetworkBase
from repro.fabric.protocol import FabricError
from repro.sim.stats import NetworkStats
from repro.traffic.trace import TrafficSource
from repro.util.geometry import MeshGeometry



@dataclass(frozen=True)
class IdealConfig:
    """Parameters of the analytic ideal network.

    ``cycles_per_hop`` is the only knob.  The default of 1 (a hop per
    network cycle, no router pipeline) is the contention-free floor for
    conventional one-hop-per-cycle transport: it strictly lower-bounds the
    electrical baseline, while Phastlane's same-cycle multi-hop transit
    can legitimately undercut it at low load — exactly the gap the
    reference curve is there to make visible.
    """

    mesh: MeshGeometry = field(default_factory=lambda: MeshGeometry(8, 8))
    #: Topology family over the mesh's addressable grid (``"mesh"`` or
    #: ``"torus"``); latency is its dimension-order hop count.
    topology: str = "mesh"
    cycles_per_hop: int = 1

    def __post_init__(self) -> None:
        from repro.topology import check_topology

        check_topology(self.topology)
        if self.cycles_per_hop < 1:
            raise ValueError("cycles per hop must be at least 1")

    @property
    def label(self) -> str:
        """Figure-style label: ``Ideal`` (or ``Ideal2`` for 2-cycle hops)."""
        if self.cycles_per_hop == 1:
            return "Ideal"
        return f"Ideal{self.cycles_per_hop}"


@dataclass
class IdealPacket:
    """One in-flight packet of the analytic network."""

    origin: int
    destination: int
    generated_cycle: int
    multicast: bool = False
    uid: int = field(kw_only=True)


class _IdealRouter:
    """A contention-free pass-through node (never buffers, never blocks)."""

    __slots__ = ("node",)

    def __init__(self, node: int) -> None:
        self.node = node

    def occupancy(self) -> int:
        return 0

    @property
    def busy(self) -> bool:
        return False


class IdealNic(BaseNic):
    """One node's NIC: broadcasts expand to one packet per destination."""

    def _expand(
        self, destination: int | None, generated_cycle: int, cycle: int
    ) -> None:
        mesh = self.config.mesh
        broadcast = destination is None
        if destination is None:
            destinations = [
                node for node in mesh.nodes() if node != self.node
            ]
            self.stats.record_generated(cycle, multicast=True)
            for _ in range(len(destinations) - 1):
                self.stats.record_generated(cycle)
        else:
            destinations = [destination]
            self.stats.record_generated(cycle)
        for index, target in enumerate(destinations):
            packet = IdealPacket(
                origin=self.node,
                destination=target,
                generated_cycle=generated_cycle,
                multicast=broadcast and index == 0,
                uid=next(self.uids),
            )
            self._queue.append(packet)
            if self.trace_hub:
                self.trace_hub.emit(
                    "generated", cycle, self.node, packet.uid,
                    extra={"dst": target, "multicast": broadcast},
                )

    def pop_ready(self) -> IdealPacket | None:
        """The head packet, consumed, or None when the queue is empty."""
        return self._queue.popleft() if self._queue else None


class IdealNetwork(MeshNetworkBase):
    """Zero-contention mesh: hop-count latency, one injection/node/cycle."""

    def __init__(
        self,
        config: IdealConfig | None = None,
        source: TrafficSource | None = None,
        stats: NetworkStats | None = None,
        faults: Any = None,
    ) -> None:
        if faults is not None and getattr(faults, "enabled", True):
            raise FabricError(
                "the analytic ideal backend cannot model faults: it has no "
                "contention, buffering or retry machinery to degrade; run "
                "fault experiments on the phastlane or electrical backend"
            )
        super().__init__(config or IdealConfig(), source, stats)
        self.routers = [_IdealRouter(node) for node in self.mesh.nodes()]
        self.nics = [
            IdealNic(
                node, self.config, self.stats, trace_hub=self.trace_hub, uids=self.uids
            )
            for node in self.mesh.nodes()
        ]
        #: Scheduled deliveries: delivery cycle -> packets landing then.
        self._pending: dict[int, list[IdealPacket]] = {}

    # -- per-cycle hooks -------------------------------------------------------

    def _step_cycle(self, cycle: int) -> None:
        self._deliver_due(cycle)
        self._generate_and_inject(cycle)

    def _inject_from_nic(self, node: int, nic: IdealNic, cycle: int) -> None:
        packet = nic.pop_ready()
        if packet is None:
            return
        self.stats.record_injected(cycle)
        if self.trace_hub:
            self.trace_hub.emit("injected", cycle, node, packet.uid)
        hops = self.topology.hop_count(packet.origin, packet.destination)
        self.stats.record_hops(hops)
        latency = max(1, hops * self.config.cycles_per_hop)
        self._pending.setdefault(cycle + latency, []).append(packet)

    def _deliver_due(self, cycle: int) -> None:
        for packet in self._pending.pop(cycle, ()):
            self.stats.record_delivered(packet.generated_cycle, cycle)
            if self.trace_hub:
                self.trace_hub.emit(
                    "delivered", cycle, packet.destination, packet.uid
                )

    def _pending_work(self) -> bool:
        return bool(self._pending)
