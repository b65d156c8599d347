"""Flat router/NIC/packet state for the vectorized engine.

The reference pipeline spends most of its wall time in per-object method
dispatch: every router runs ``select_transmissions``/``resolve_pending``
every cycle and every wave hop re-derives turn priorities from frozen
dataclasses.  The vectorized engine keeps the same *state* in flat
``__slots__`` records and lets the network drive them directly — no
per-cycle method calls into idle components.

Invariants mirrored from the reference oracle's router
(``tests/oracle/router.py``):

- five input queues per router (N/E/S/W/LOCAL), each a deque of packets
  (eligibility rides on ``VecPacket.eligible``) with head-of-line
  blocking; a per-router bitmask tracks which queues are non-empty;
- ``pending`` holds launched-but-unconfirmed transmissions (queue id and
  launch cycle ride on the packet); ``pending_by_queue`` counts them
  per queue so buffer admission (`occupied + pending < buffer_entries`)
  is O(1);
- the rotating fixed-priority arbiter pointer is stored lazily as
  ``(pointer, pointer_cycle)``: the pointer that would be in effect at
  cycle ``c`` is ``(pointer + c - pointer_cycle - 1) % 5``, so idle
  routers never pay for the reference's every-cycle pointer advance.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import TYPE_CHECKING

from repro.fabric.base import BaseNic
from repro.sim.rng import DeterministicRng

from repro.vectorized.plans import PlanInfo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vectorized.network import VectorizedNetwork

NUM_QUEUES = 5
LOCAL_QUEUE = 4


def _scan_orders() -> tuple[tuple[tuple[int, ...], ...], ...]:
    table = []
    for pointer in range(NUM_QUEUES):
        rows = []
        for mask in range(1 << NUM_QUEUES):
            order = []
            for offset in range(NUM_QUEUES):
                queue_id = pointer + offset
                if queue_id >= NUM_QUEUES:
                    queue_id -= NUM_QUEUES
                if mask >> queue_id & 1:
                    order.append(queue_id)
            rows.append(tuple(order))
        table.append(tuple(rows))
    return tuple(table)


#: ``SCAN_ORDER[pointer][mask]`` — the non-empty queues in rotating scan
#: order: exactly the queues the reference arbiter polls, minus the empty
#: ones it would poll and skip.
SCAN_ORDER = _scan_orders()


class VecPacket:
    """A packet in flight (flat counterpart of ``OpticalPacket``).

    Queue and pending bookkeeping live *on the packet* (``eligible``,
    ``queue_id``, ``launched``) so router queues and pending lists hold
    bare packets instead of allocating a tuple per enqueue/launch.
    """

    __slots__ = (
        "uid", "plan", "generated_cycle", "attempts",
        "eligible", "queue_id", "launched", "origin", "hop", "broadcast_id",
    )

    def __init__(self, uid: int, plan: PlanInfo, generated_cycle: int) -> None:
        self.uid = uid
        self.plan = plan
        self.generated_cycle = generated_cycle
        self.attempts = 0
        #: The broadcast a multicast packet belongs to (its NIC sets it);
        #: -1 on unicast.  Being multicast is the packet's property, the
        #: taps are its current plan's: a resend may carry none.
        self.broadcast_id = -1
        #: Cycle from which this packet may launch (while queued).
        self.eligible = 0
        #: Queue it launched from / pends on (while pending).
        self.queue_id = 0
        #: Cycle it launched (while pending).
        self.launched = -1
        #: Plan index of the router that holds (or launched) the packet: the
        #: source, then each router that buffers it (section 2.1.3).
        self.origin = 0
        #: Plan index while mid-flight this cycle (the packet *is* the
        #: flight record — no per-launch wrapper allocation).
        self.hop = 0


class VecRouter:
    """Queue/pending/arbiter state of one router (see module docstring)."""

    __slots__ = (
        "node",
        "queues",
        "mask",
        "pending",
        "pending_by_queue",
        "queued",
        "pointer",
        "pointer_cycle",
        "rng",
    )

    def __init__(self, node: int) -> None:
        self.node = node
        self.queues: list[deque[VecPacket]] = [
            deque() for _ in range(NUM_QUEUES)
        ]
        #: Bitmask of non-empty queues (bit ``q`` set ⟺ ``queues[q]``
        #: non-empty), so the arbiter scan touches only occupied queues.
        self.mask = 0
        self.pending: list[VecPacket] = []
        self.pending_by_queue: list[int] = [0] * NUM_QUEUES
        #: Total queued packets across all five queues (kept incrementally).
        self.queued = 0
        # pointer value that took effect the cycle after ``pointer_cycle``;
        # (0, -1) makes the effective pointer 0 at cycle 0, as in the
        # reference arbiter.
        self.pointer = 0
        self.pointer_cycle = -1
        #: Backoff RNG, created on first retry — stream and draw order
        #: match the reference router exactly (draws happen only on
        #: retries, in requeue order).
        self.rng: DeterministicRng | None = None

    def occupancy(self) -> int:
        """Total buffered packets (same definition as the reference router)."""
        return self.queued

    @property
    def busy(self) -> bool:
        return self.queued > 0 or bool(self.pending)


class VecNic(BaseNic):
    """Phastlane NIC semantics over the shared :class:`BaseNic` FIFO.

    Event expansion (:meth:`_expand`) routes through the owning network's
    plan cache and packet-uid counter; the injection discipline (one packet
    per cycle into the LOCAL queue, space permitting) is the network's
    ``_inject_from_nic``.  Only an uncontended single arrival skips the NIC
    queue (see ``_sparse_inject``).
    """

    def __init__(self, node: int, network: "VectorizedNetwork") -> None:
        super().__init__(
            node, network.config, network.stats, trace_hub=network.trace_hub
        )
        # A weak back-reference: a strong one closes a network <-> NIC
        # cycle, and a finished run's network (hundreds of routers, deques
        # and RNGs) then waits for the cyclic collector instead of being
        # freed when the run returns.
        self._network: "VectorizedNetwork" = weakref.proxy(network)
        self._next_broadcast_id = node  # strided by node count per broadcast

    def _expand(
        self, destination: int | None, generated_cycle: int, cycle: int
    ) -> None:
        """Queue the packets of one injection: one unicast packet, or — for
        a broadcast, ``destination is None`` — one multicast packet per
        column sweep (mirrors ``PhastlaneNic._expand``)."""
        network = self._network
        if destination is None:
            num_nodes = network.mesh.num_nodes
            broadcast_id = self._next_broadcast_id
            self._next_broadcast_id += num_nodes
            # One message per other node (one on a single-node grid, as
            # the reference counts it), the first of them the multicast.
            self.stats.multicast_packets += 1
            self.stats.packets_generated += max(num_nodes - 1, 1)
            for plan in network.begin_broadcast(broadcast_id, self.node):
                packet = VecPacket(network.take_uid(), plan, generated_cycle)
                packet.broadcast_id = broadcast_id
                self._queue.append(packet)
                if self.trace_hub:
                    self.trace_hub.emit(
                        "generated", cycle, self.node, packet.uid,
                        extra={"dst": plan.final, "multicast": True},
                    )
            return
        plan = network.plan(self.node, destination)
        self.stats.record_generated(cycle)
        packet = VecPacket(network.take_uid(), plan, generated_cycle)
        self._queue.append(packet)
        if self.trace_hub:
            self.trace_hub.emit(
                "generated", cycle, self.node, packet.uid,
                extra={"dst": plan.final},
            )
