"""Virtual Circuit Tree Multicasting (Jerger/Peh/Lipasti, ISCA 2008).

The paper's electrical baseline "integrated ... Virtual Circuit Tree
Multicasting to perform packet broadcasts" (section 4).  VCTM builds a
dimension-order multicast tree per (source, destination-set): the packet is
forwarded once along shared tree edges and replicated at branch routers
instead of sending one unicast per destination.

Functionally, a branch router partitions the flit's remaining destinations
by the output port dimension-order routing would use for each destination;
:func:`split_by_output` implements exactly that partition, and the router
replicates the flit per non-empty partition.  :class:`VirtualCircuitTreeCache`
models the VCT table: the first packet of a (source, destination-set) pair
pays a tree-setup unicast-like pass, subsequent packets reuse the cached
tree id — mirroring the original proposal's table-hit behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.util.geometry import Direction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology.base import Topology


def split_by_output(
    node: int,
    destinations: set[int],
    topology: "Topology",
) -> dict[Direction, set[int]]:
    """Partition ``destinations`` by the DOR output port at ``node``.

    Destinations equal to ``node`` map to ``Direction.LOCAL``.  The union of
    the partitions is exactly ``destinations`` (the tree covers every leaf).
    """
    partitions: dict[Direction, set[int]] = {}
    for dest in destinations:
        if dest == node:
            direction = Direction.LOCAL
        else:
            direction = topology.dor_first_direction(node, dest)
        partitions.setdefault(direction, set()).add(dest)
    return partitions


@dataclass
class VirtualCircuitTreeCache:
    """A per-source table of established multicast trees.

    Real VCTM stores tree routing state in the routers; at the fidelity of
    this study what matters is (a) branch replication (handled by
    :func:`split_by_output`) and (b) the setup cost of a new destination
    set.  The cache tracks which sets have trees so the network can charge
    a one-time setup latency for cold trees.
    """

    capacity: int = 64
    _tables: dict[int, dict[frozenset[int], int]] = field(default_factory=dict)
    _next_id: int = 0
    hits: int = 0
    misses: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("VCT cache capacity must be at least 1")

    def lookup(self, source: int, destinations: set[int]) -> tuple[int, bool]:
        """Tree id for this multicast and whether it was already set up.

        Returns ``(tree_id, hit)``.  A miss installs the tree, evicting the
        oldest entry when the per-source table is full (FIFO, matching the
        simple replacement of the original proposal's evaluation).
        """
        table = self._tables.setdefault(source, {})
        key = frozenset(destinations)
        if key in table:
            self.hits += 1
            return table[key], True
        self.misses += 1
        if len(table) >= self.capacity:
            oldest = next(iter(table))
            del table[oldest]
        tree_id = self._next_id
        self._next_id += 1
        table[key] = tree_id
        return tree_id, False

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
