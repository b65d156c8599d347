"""``Torus2D`` — a 2D torus (wraparound mesh) topology.

Same dense row-major node ids as the mesh, plus wrap links joining each
row/column end back to its start, so every router has all four ports
connected (when the dimension size exceeds 1).  Dimension-order routing
takes the minimal wrap distance per axis; ties on an even dimension
break toward the positive direction (EAST / NORTH), which is what lets
the broadcast decomposition reuse DOR paths for its arcs.

The section 2.1.4 broadcast generalises naturally: per column, one arc
of ``ceil((H-1)/2)`` hops north and one of ``floor((H-1)/2)`` hops
south cover every row exactly once (the entry row overlaps between the
two vertical sweeps of a column, as on the mesh — delivery dedups it).

Physically this is a *folded* torus: wrap links do not span the whole
die, but folding doubles the pitch of every link along a dimension, so
:meth:`link_length_mm` reports ``2x`` the mesh hop length whenever a
dimension is large enough to need folding (size > 2).
"""

from __future__ import annotations

from functools import lru_cache

from repro.topology.base import Topology
from repro.util.geometry import Coord, Direction, MeshGeometry, _DELTA


@lru_cache(maxsize=None)
def _torus_neighbor_table(
    width: int, height: int
) -> tuple[tuple[int | None, ...], ...]:
    """node -> direction -> wrapped neighbour id (None when the dim is 1)."""
    mesh = MeshGeometry(width, height)
    table = []
    for node in mesh.nodes():
        x, y = mesh.coord(node)
        row: list[int | None] = []
        for direction in Direction:
            dx, dy = _DELTA[direction]
            wrapped = mesh.node(Coord((x + dx) % width, (y + dy) % height))
            if direction is not Direction.LOCAL and wrapped == node:
                row.append(None)  # a dimension of size 1 has no self-link
            else:
                row.append(wrapped)
        table.append(tuple(row))
    return tuple(table)


class Torus2D(Topology):
    """A ``width x height`` 2D torus with minimal-wrap X-then-Y routing."""

    name = "torus"

    def neighbor(self, node: int, direction: Direction | int) -> int | None:
        if node < 0 or node >= self.num_nodes:
            raise ValueError(f"node {node} out of range for {self}")
        table = _torus_neighbor_table(self.width, self.height)
        return table[node][int(direction)]

    def axis_hops(self, delta: int, size: int) -> int:
        ahead = delta % size  # minimal wrap; a tie goes EAST / NORTH
        return ahead if 2 * ahead <= size else ahead - size

    def is_wrap_link(self, node: int, port: int) -> bool:
        """True when this link wraps around the grid boundary."""
        direction = Direction(port)
        there = self.coord(node).step(direction)
        return not self.mesh.contains(there)

    def port_label(self, node: int, port: int) -> str:
        label = Direction(port).name
        return f"{label}_WRAP" if self.is_wrap_link(node, port) else label

    def link_length_mm(self, node: int, port: int, hop_length_mm: float) -> float:
        direction = Direction(port)
        span = self.width if direction in (Direction.EAST, Direction.WEST) else (
            self.height
        )
        # Folded-torus layout: every link along a folded dimension is two
        # mesh pitches long; a 1- or 2-wide dimension needs no folding.
        return 2.0 * hop_length_mm if span > 2 else hop_length_mm
