"""``Mesh2D`` — the paper's 2D mesh as a registered topology.

A thin adapter over :class:`~repro.util.geometry.MeshGeometry`: neighbour
lookups, hop counts and the first-direction table delegate to the
geometry's cached tables, so link enumeration and per-hop routing are
bit-identical to the pre-topology code paths (the RunSpec digest and
Fig 9/10 byte-identity pins in ``tests/test_fabric_regression.py`` depend
on that).  Whole routes come from :class:`GridTopology`'s line tables;
``MeshGeometry.dor_route`` stays the naive statement the tests compare
them with.
"""

from __future__ import annotations

from repro.topology.base import GridTopology
from repro.util.geometry import Coord, Direction


class Mesh2D(GridTopology):
    """The paper's ``width x height`` 2D mesh with X-then-Y routing."""

    name = "mesh"

    def neighbor(self, node: int, direction: Direction | int) -> int | None:
        return self.mesh.neighbor(node, Direction(direction))

    def hop_count(self, src: int, dst: int) -> int:
        return self.mesh.hop_count(src, dst)

    def axis_hops(self, delta: int, size: int) -> int:
        return delta  # no wrap links: the signed coordinate difference

    def dor_first_direction(self, src: int, dst: int) -> Direction:
        return self.mesh.dor_first_direction(src, dst)

    def is_edge_row(self, node: int) -> bool:
        return self.mesh.is_edge_row(node)

    def broadcast_sweeps(self, source: int) -> list[tuple[int, set[int]]]:
        src = self.coord(source)
        sweeps: list[tuple[int, set[int]]] = []
        for column in range(self.width):
            for dy, end_y in ((1, self.height - 1), (-1, 0)):
                if src.y == end_y:
                    continue  # no sweep needed toward an edge we sit on
                final = self.node(Coord(column, end_y))
                taps = {
                    self.node(Coord(column, y))
                    for y in range(src.y, end_y + dy, dy)
                }
                taps.discard(source)
                sweeps.append((final, taps))
        return sweeps
