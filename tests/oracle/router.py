"""The electrical side of a Phastlane router (paper section 2.1.1).

Each router has five packet queues in the electrical domain — one per mesh
input port (N, E, S, W) holding packets that were blocked here, and one
local queue holding packets the local node wants to send.  A rotating
priority arbiter selects up to four queue heads per cycle, one per output
port, for optical transmission.

A transmitted packet is held in a *pending* slot for one cycle: if a Packet
Dropped signal returns on the drop network (section 2.1.2), the packet goes
back to the head of its queue with exponential backoff; otherwise the slot
simply frees (the packet was delivered or another router took
responsibility).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from oracle.packet import OpticalPacket
from repro.core.config import (
    BACKOFF_CAP_LOG2,
    BACKOFF_SEED,
    RETRY_PENALTY_CYCLES,
    PhastlaneConfig,
)
from repro.sim.rng import DeterministicRng
from repro.util.geometry import Direction

#: Queue ids 0-3 are the mesh input ports (Direction values); 4 is local.
NUM_QUEUES = 5
LOCAL_QUEUE = 4
#: Fixed tie-break order among turning packets (the paper specifies only
#: "fixed priority"; we pick input-port order N > E > S > W).
INPUT_PORT_PRIORITY = (
    Direction.NORTH,
    Direction.EAST,
    Direction.SOUTH,
    Direction.WEST,
)


@dataclass
class _QueueEntry:
    packet: OpticalPacket
    eligible_cycle: int = 0


@dataclass
class PendingTransmission:
    """A packet awaiting its (absence of a) drop signal."""

    packet: OpticalPacket
    queue_id: int
    launched_cycle: int


class PhastlaneRouter:
    """Electrical buffers, arbiter and pending slots of one Phastlane node."""

    def __init__(self, node: int, config: PhastlaneConfig):
        self.node = node
        self.config = config
        self.queues: list[deque[_QueueEntry]] = [deque() for _ in range(NUM_QUEUES)]
        self.pending: list[PendingTransmission] = []
        self._arbiter_pointer = 0
        self._rng = DeterministicRng(BACKOFF_SEED, f"router{node}/backoff")
        #: Packets that exhausted their retry budget (fault-injection runs
        #: only); the network drains this via :meth:`take_abandoned`.
        self._abandoned: list[tuple[OpticalPacket, int]] = []

    # -- buffer space -----------------------------------------------------------

    def has_space(self, queue_id: int) -> bool:
        """Space check; a pending transmission still holds its buffer slot
        until the drop window passes (it may have to be requeued)."""
        capacity = self.config.buffer_entries
        if capacity is None:
            return True
        held = sum(1 for p in self.pending if p.queue_id == queue_id)
        return len(self.queues[queue_id]) + held < capacity

    def occupancy(self) -> int:
        return sum(len(q) for q in self.queues)

    def enqueue(
        self, queue_id: int, packet: OpticalPacket, eligible_cycle: int = 0
    ) -> None:
        """Append a packet (blocked arrival or local injection)."""
        if not 0 <= queue_id < NUM_QUEUES:
            raise ValueError(f"bad queue id {queue_id}")
        if not self.has_space(queue_id):
            raise RuntimeError(f"router {self.node}: queue {queue_id} overflow")
        if packet.current_node != self.node:
            raise ValueError(
                f"packet {packet!r} routed from {packet.current_node}, "
                f"enqueued at {self.node}"
            )
        self.queues[queue_id].append(_QueueEntry(packet, eligible_cycle))

    def requeue_head(self, queue_id: int, packet: OpticalPacket, eligible_cycle: int) -> None:
        """Put a dropped packet back at the head of its queue for resend."""
        self.queues[queue_id].appendleft(_QueueEntry(packet, eligible_cycle))

    # -- drop handling ------------------------------------------------------------

    def backoff_cycles(self, attempts: int) -> int:
        """Binary exponential backoff with jitter after ``attempts`` drops.

        The first retry waits ``RETRY_PENALTY_CYCLES`` (the protocol
        engine's resend path), doubling per further drop up to
        ``2 ** BACKOFF_CAP_LOG2`` base periods, plus uniform jitter of one
        base period to de-synchronise colliding retriers.
        """
        if attempts < 1:
            raise ValueError("backoff needs at least one failed attempt")
        window = 1 << min(attempts - 1, BACKOFF_CAP_LOG2)
        return RETRY_PENALTY_CYCLES * window + self._rng.randrange(
            RETRY_PENALTY_CYCLES
        )

    # -- arbitration -----------------------------------------------------------------

    def select_transmissions(self, cycle: int) -> list[tuple[int, OpticalPacket]]:
        """Select up to four queue heads for transmission (one per output).

        The arbiter visits the five queues in rotating-priority order.
        Each queue offers only its head (one buffer read port), and each
        output port is granted at most once.  Selected packets move to
        pending slots awaiting a possible drop signal.  Returns
        ``(queue_id, packet)``.
        """
        selections: list[tuple[int, OpticalPacket]] = []
        claimed_outputs: set[Direction] = set()
        first_served: int | None = None
        for offset in range(NUM_QUEUES):
            queue_id = (self._arbiter_pointer + offset) % NUM_QUEUES
            queue = self.queues[queue_id]
            if not queue or queue[0].eligible_cycle > cycle:
                continue
            packet = queue[0].packet
            output = packet.desired_output
            if output in claimed_outputs:
                continue
            queue.popleft()
            claimed_outputs.add(output)
            selections.append((queue_id, packet))
            self.pending.append(PendingTransmission(packet, queue_id, cycle))
            if first_served is None:
                first_served = queue_id
        if first_served is not None:
            self._arbiter_pointer = (first_served + 1) % NUM_QUEUES
        else:
            self._arbiter_pointer = (self._arbiter_pointer + 1) % NUM_QUEUES
        return selections

    # -- pending resolution ------------------------------------------------------------

    def resolve_pending(
        self, cycle: int, dropped: dict[int, int], retry_limit: int | None = None
    ) -> list[tuple[OpticalPacket, int]]:
        """Apply last cycle's drop signals to pending transmissions.

        ``dropped`` maps packet uid -> plan index of the dropping router.
        Dropped packets return to the head of their queue with backoff;
        everything else is confirmed out of this router.  Returns
        ``(packet, drop_index)`` pairs for the retransmissions, so the
        network can clear passed multicast taps.

        ``retry_limit`` (fault-injection runs) bounds the resend loop: a
        packet dropped after that many attempts is abandoned instead of
        requeued — collected via :meth:`take_abandoned` — so runs with
        permanent device faults drain instead of livelocking.
        """
        retries: list[tuple[OpticalPacket, int]] = []
        still_pending: list[PendingTransmission] = []
        for entry in self.pending:
            if entry.launched_cycle >= cycle:
                still_pending.append(entry)  # launched this very cycle
                continue
            drop_index = dropped.get(entry.packet.uid)
            if drop_index is None:
                continue  # delivered or responsibility transferred
            packet = entry.packet
            packet.attempts += 1
            if retry_limit is not None and packet.attempts > retry_limit:
                self._abandoned.append((packet, drop_index))
                continue
            eligible = cycle + self.backoff_cycles(packet.attempts)
            self.requeue_head(entry.queue_id, packet, eligible)
            retries.append((packet, drop_index))
        self.pending = still_pending
        return retries

    def take_abandoned(self) -> list[tuple[OpticalPacket, int]]:
        """Drain the packets that exceeded the retry limit since last call."""
        abandoned, self._abandoned = self._abandoned, []
        return abandoned

    @property
    def busy(self) -> bool:
        return bool(self.pending) or any(self.queues)
