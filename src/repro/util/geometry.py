"""2D mesh geometry: coordinates, port directions and links.

Both the Phastlane optical network and the electrical baseline operate on the
same 8x8 (by default) mesh, so the geometry lives in one shared module.  The
dimension-order (X-then-Y) routes over it are
:class:`~repro.topology.base.Topology`'s.

Port naming follows the paper's Figure 2: each router has North, South, East
and West input/output ports plus a Local port.  A packet travelling north
*exits* through the N output port (i.e. direction names refer to the direction
of travel, not the neighbour's compass position on the page).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple


class Direction(enum.IntEnum):
    """Direction of travel through a router (also names the output port)."""

    NORTH = 0
    EAST = 1
    SOUTH = 2
    WEST = 3
    LOCAL = 4


OPPOSITE: dict[Direction, Direction] = {
    Direction.NORTH: Direction.SOUTH,
    Direction.SOUTH: Direction.NORTH,
    Direction.EAST: Direction.WEST,
    Direction.WEST: Direction.EAST,
    Direction.LOCAL: Direction.LOCAL,
}


class TurnKind(enum.Enum):
    """How a packet moves through a router crossbar.

    STRAIGHT has fixed priority over LEFT and RIGHT turns in Phastlane
    (paper section 2.1); LOCAL means the packet is accepted at this node.
    """

    STRAIGHT = "straight"
    LEFT = "left"
    RIGHT = "right"
    LOCAL = "local"


def _turn_table() -> dict[tuple[Direction, Direction], TurnKind]:
    # Keyed by (incoming travel direction, outgoing travel direction).
    table: dict[tuple[Direction, Direction], TurnKind] = {}
    order = [Direction.NORTH, Direction.EAST, Direction.SOUTH, Direction.WEST]
    for i, d in enumerate(order):
        table[(d, d)] = TurnKind.STRAIGHT
        table[(d, order[(i + 1) % 4])] = TurnKind.RIGHT
        table[(d, order[(i - 1) % 4])] = TurnKind.LEFT
        table[(d, Direction.LOCAL)] = TurnKind.LOCAL
    return table


TURN_KIND: dict[tuple[Direction, Direction], TurnKind] = _turn_table()


class Coord(NamedTuple):
    """Mesh coordinate: ``x`` is the column, ``y`` is the row (row 0 = south)."""

    x: int
    y: int

    def step(self, direction: Direction) -> "Coord":
        """The neighbouring coordinate in ``direction`` (no bounds check)."""
        dx, dy = _DELTA[direction]
        return Coord(self.x + dx, self.y + dy)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.x},{self.y})"


_DELTA: dict[Direction, tuple[int, int]] = {
    Direction.NORTH: (0, 1),
    Direction.SOUTH: (0, -1),
    Direction.EAST: (1, 0),
    Direction.WEST: (-1, 0),
    Direction.LOCAL: (0, 0),
}


@dataclass(frozen=True)
class MeshGeometry:
    """A ``width`` x ``height`` 2D mesh: its nodes, coordinates and links.

    Node ids are assigned row-major: ``node = y * width + x``.
    """

    width: int = 8
    height: int = 8

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("mesh dimensions must be at least 1x1")

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def coord(self, node: int) -> Coord:
        """Coordinate of a node id."""
        if node < 0 or node >= self.num_nodes:
            raise ValueError(f"node {node} out of range for {self}")
        return Coord(node % self.width, node // self.width)

    def node(self, coord: Coord) -> int:
        """Node id of a coordinate."""
        if not self.contains(coord):
            raise ValueError(f"coordinate {coord} outside {self}")
        return coord.y * self.width + coord.x

    def contains(self, coord: Coord) -> bool:
        return 0 <= coord.x < self.width and 0 <= coord.y < self.height

    def nodes(self) -> Iterator[int]:
        return iter(range(self.num_nodes))

    def neighbor(self, node: int, direction: Direction) -> int | None:
        """Neighbouring node id in ``direction``, or None at the mesh edge."""
        if node < 0 or node >= self.num_nodes:
            raise ValueError(f"node {node} out of range for {self}")
        return _neighbor_table(self.width, self.height)[node][int(direction)]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.width}x{self.height} mesh"


@lru_cache(maxsize=None)
def _neighbor_table(width: int, height: int) -> tuple[tuple[int | None, ...], ...]:
    """node -> direction -> neighbour id (None at mesh edges)."""
    mesh = MeshGeometry(width, height)
    table = []
    for node in mesh.nodes():
        row: list[int | None] = []
        for direction in Direction:
            coord = mesh.coord(node).step(direction)
            row.append(mesh.node(coord) if mesh.contains(coord) else None)
        table.append(tuple(row))
    return tuple(table)
