"""Flits and packets for the electrical network.

Both networks use single-flit packets (an entire 80-byte cache-line message
per flit, Table 1/Table 2), so a :class:`Flit` here *is* a packet.  For
multicasts a flit carries a set of remaining destinations; Virtual Circuit
Tree Multicasting replicates the flit at tree branch points, each replica
taking a disjoint subset of the destinations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


#: Uids of hand-built flits only (unit tests): every flit a network makes
#: is numbered by that network's own counter.
_uid_counter = itertools.count()


@dataclass(eq=False)
class Flit:
    """A single-flit packet (possibly a multicast replica).

    ``destinations`` is the set of nodes this copy must still reach; it
    shrinks as VCTM replication splits the set at branch routers.  The
    ``generated_cycle`` is inherited by replicas so every delivery's latency
    is measured from the original injection request.  A flit equals itself
    only (every copy is its own packet), so a search for a free VC,
    ``flits.index(None)``, compares by identity.
    """

    source: int
    destinations: set[int]
    generated_cycle: int
    uid: int = field(default_factory=lambda: next(_uid_counter))
    injected_cycle: int = -1

    def __post_init__(self) -> None:
        if not self.destinations:
            raise ValueError("a flit needs at least one destination")
        if self.source in self.destinations:
            raise ValueError("a flit may not target its own source")
        if self.generated_cycle < 0:
            raise ValueError("generation cycle must be non-negative")

    @property
    def is_multicast(self) -> bool:
        return len(self.destinations) > 1

    def replica(self, destinations: set[int], uid: int | None = None) -> "Flit":
        """A VCTM branch copy covering ``destinations`` under a new ``uid``
        (the network's next one; hand-built flits fall back to the default)."""
        if not destinations <= self.destinations:
            raise ValueError("replica destinations must be a subset")
        return Flit(
            source=self.source,
            destinations=set(destinations),
            generated_cycle=self.generated_cycle,
            uid=next(_uid_counter) if uid is None else uid,
            injected_cycle=self.injected_cycle,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dests = ",".join(map(str, sorted(self.destinations)))
        return f"Flit#{self.uid}({self.source}->{dests})"
