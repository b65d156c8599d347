"""``Mesh2D`` — the paper's 2D mesh.

Two statements: the links are those of :class:`~repro.util.geometry.
MeshGeometry` (its cached neighbour table, so link enumeration is
bit-identical to the pre-topology code paths the RunSpec digest and
Fig 9/10 byte-identity pins in ``tests/test_fabric_regression.py`` depend
on), and a route covers the signed coordinate difference along each axis.
Routes, hop counts, first directions and broadcast sweeps follow from
those in :class:`Topology`; the naive statements by coordinates that the
tests compare them with are ``tests/helpers.py``'s.
"""

from __future__ import annotations

from repro.topology.base import Topology
from repro.util.geometry import Direction


class Mesh2D(Topology):
    """The paper's ``width x height`` 2D mesh with X-then-Y routing."""

    name = "mesh"

    def neighbor(self, node: int, direction: Direction | int) -> int | None:
        return self.mesh.neighbor(node, Direction(direction))

    def axis_hops(self, delta: int, size: int) -> int:
        return delta  # no wrap links: the signed coordinate difference
