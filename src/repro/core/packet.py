"""Optical packets: single-flit cache-line messages with predecoded routes.

A Phastlane packet is one flit: 80 bytes of payload (cache line, address,
operation type, source id, EDC) plus the router-control groups.  The
simulator tracks the packet's *current* plan — rebuilt whenever a router
assumes delivery responsibility — along with retransmission bookkeeping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.core.routing import RouteStep

_uid_counter = itertools.count()


@dataclass
class OpticalPacket:
    """One single-flit packet travelling the Phastlane network.

    ``plan`` always starts at the router currently responsible for the
    packet (step 0 = the transmitter).  ``origin`` is the node that first
    generated the message; ``broadcast_id`` groups the multicast packets of
    one broadcast so deliveries can be de-duplicated per node.
    """

    origin: int
    plan: tuple[RouteStep, ...]
    generated_cycle: int
    broadcast_id: int | None = None
    uid: int = field(default_factory=lambda: next(_uid_counter))
    attempts: int = 0

    def __post_init__(self) -> None:
        if len(self.plan) < 2:
            raise ValueError("a packet's plan needs at least one hop")
        if self.generated_cycle < 0:
            raise ValueError("generation cycle must be non-negative")

    @property
    def is_multicast(self) -> bool:
        return self.broadcast_id is not None

    @property
    def final_node(self) -> int:
        return self.plan[-1].node

    @property
    def current_node(self) -> int:
        """The node currently responsible for (and holding) the packet."""
        return self.plan[0].node

    @property
    def desired_output(self):
        """The output port the current transmitter needs (first exit)."""
        exit_direction = self.plan[0].exit
        assert exit_direction is not None
        return exit_direction

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f"mc{self.broadcast_id}" if self.is_multicast else "uc"
        return (
            f"OpticalPacket#{self.uid}[{tag}]"
            f"({self.current_node}->{self.final_node})"
        )
