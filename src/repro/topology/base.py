"""The topology abstraction: a W x H grid of routers and its routes.

Both simulators, the fault scheduler and the photonics models were
written against the paper's 2D mesh (:class:`~repro.util.geometry.
MeshGeometry`).  This module lifts the parts they actually depend on
into one class, :class:`Topology`:

- **node enumeration** — dense integer ids laid out on the W x H
  addressable grid of the underlying :class:`MeshGeometry` (traffic
  patterns, traces and NIC arrays address nodes the same way on every
  topology);
- **ports and links** — per-node output ports named by
  :class:`~repro.util.geometry.Direction`, enumerated deterministically
  (node-ascending, then port-ascending) so fault schedules draw the
  same candidate stream the mesh always produced;
- **routes** — the paper's dimension-order (X-then-Y) routes that the
  predecoded source-routing pipeline follows hop by hop, their hop
  counts, and the section 2.1.4 column-sweep broadcast;
- **link lengths** for the photonics latency/power models.

No module here imports :mod:`repro.fabric` — the fabric package init
instantiates the simulators, which sit *above* this layer.
:class:`TopologyError` subclasses the shared
:class:`~repro.util.errors.FabricError` so callers can catch either.
"""

from __future__ import annotations

import abc
from functools import cached_property
from typing import ClassVar, Iterator

from repro.util.errors import FabricError
from repro.util.geometry import OPPOSITE, Coord, Direction, MeshGeometry


class TopologyError(FabricError, ValueError):
    """A topology the package does not have, or a route it cannot take.

    A :class:`ValueError` for callers that guard config construction with
    one, and a :class:`FabricError` so the CLI reports it in one line.
    """


#: One row or column as :attr:`Topology.lines` holds it for one travel
#: direction: its node ids in travel order, the same routers as the sparse
#: kernel's contention keys ``node * 4 + port``, and where a node stands in
#: both.  A line that closes on itself is held twice over, so a run that
#: takes the wrap link is still one slice.
Line = tuple[tuple[int, ...], tuple[int, ...], int]

_X_PORTS = (int(Direction.WEST), int(Direction.EAST))
_Y_PORTS = (int(Direction.SOUTH), int(Direction.NORTH))


class Topology(abc.ABC):
    """A W x H grid (mesh or torus) over the dense node ids of a
    ``MeshGeometry``, with the paper's routing.

    Node ids stay row-major on the underlying ``width x height``
    addressable grid whatever the link structure, so traffic patterns,
    trace files and per-node arrays are topology-agnostic.

    A dimension-order route is at most two straight runs, so it is two
    slices of :attr:`lines`; a subclass states its links
    (:meth:`neighbor`) and which way round an axis it travels
    (:meth:`axis_hops`), and routes on every backend.  Hop counts, the
    electrical routers' first directions, edge rows and the broadcast
    sweeps are written here once from those two.
    """

    #: Name of this topology family (e.g. ``"mesh"``).
    name: ClassVar[str]

    def __init__(self, mesh: MeshGeometry) -> None:
        self.mesh = mesh

    # ------------------------------------------------------------------
    # node enumeration (delegated to the addressable grid)
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.mesh.num_nodes

    @property
    def width(self) -> int:
        return self.mesh.width

    @property
    def height(self) -> int:
        return self.mesh.height

    def nodes(self) -> Iterator[int]:
        return self.mesh.nodes()

    def coord(self, node: int) -> Coord:
        return self.mesh.coord(node)

    def node(self, coord: Coord) -> int:
        return self.mesh.node(coord)

    # ------------------------------------------------------------------
    # what a subclass states
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def neighbor(self, node: int, direction: Direction | int) -> int | None:
        """Neighbour reached from ``node`` through output port ``direction``.

        ``None`` when the port is unconnected (a mesh edge).  ``LOCAL``
        maps to the node itself, matching ``MeshGeometry.neighbor``.
        """

    @abc.abstractmethod
    def axis_hops(self, delta: int, size: int) -> int:
        """Hops a route takes along one axis of ``size`` nodes to cover the
        coordinate difference ``delta``: positive toward EAST / NORTH,
        negative toward WEST / SOUTH."""

    # ------------------------------------------------------------------
    # ports and links
    # ------------------------------------------------------------------

    def ports(self, node: int) -> tuple[int, ...]:
        """Connected (non-Local) output ports of ``node``, ascending."""
        return tuple(
            port
            for port in range(int(Direction.LOCAL))
            if self.neighbor(node, port) is not None
        )

    def port_label(self, node: int, port: int) -> str:
        """Human-readable label for an output port of ``node``.

        Health findings, heatmap legends and CLI fault specs use this
        instead of assuming the compass names are meaningful.
        """
        return Direction(port).name

    def links(self) -> list[tuple[int, int]]:
        """Every directed link as ``(node, output port)``.

        The order is deterministic — node-ascending, then
        port-ascending — and on the default mesh reproduces exactly the
        candidate stream the fault scheduler has always sampled from,
        so pinned fault schedules stay byte-identical.
        """
        return [(node, port) for node in self.nodes() for port in self.ports(node)]

    def link_length_mm(self, node: int, port: int, hop_length_mm: float) -> float:
        """Physical waveguide length of one link, given the grid pitch."""
        return hop_length_mm

    def __str__(self) -> str:
        return f"{self.width}x{self.height} {self.name}"

    # ------------------------------------------------------------------
    # dimension-order routes
    # ------------------------------------------------------------------

    def _ray(self, origin: int, port: int) -> tuple[list[int], bool]:
        """Nodes met going ``port`` from ``origin`` (first), and whether the
        walk closed on ``origin`` rather than reach the grid's end."""
        run = [origin]
        while (there := self.neighbor(run[-1], port)) is not None and there != origin:
            run.append(there)
        return run, there is not None

    @cached_property
    def lines(self) -> tuple[list[Line], ...]:
        """``lines[port][node]``: the :data:`Line` through ``node`` along
        travel direction ``port``, found by walking :meth:`neighbor` on the
        first route asked of this grid."""
        tables = []
        for port in range(int(Direction.LOCAL)):
            back = int(OPPOSITE[Direction(port)])
            table: dict[int, Line] = {}
            for node in self.nodes():
                if node in table:
                    continue
                behind, _ = self._ray(node, back)
                run, closed = self._ray(behind[-1], port)
                nodes = tuple(run * 2 if closed else run)
                keys = tuple(there * 4 + port for there in nodes)
                for at, there in enumerate(run):
                    table[there] = (nodes, keys, at)
            tables.append([table[node] for node in self.nodes()])
        return tuple(tables)

    def dor_runs(self, src: int, dst: int) -> tuple[int, int, int, int]:
        """The X-then-Y route as ``(X port, X hops, Y port, Y hops)``."""
        width, height = self.mesh.width, self.mesh.height
        if not (0 <= src < width * height and 0 <= dst < width * height):
            raise ValueError(f"nodes {src}, {dst} out of range for {self}")
        x_hops = self.axis_hops(dst % width - src % width, width)
        y_hops = self.axis_hops(dst // width - src // width, height)
        return _X_PORTS[x_hops > 0], abs(x_hops), _Y_PORTS[y_hops > 0], abs(y_hops)

    def dor_directions(self, src: int, dst: int) -> list[Direction]:
        """Travel directions of the X-then-Y route (empty if src == dst)."""
        x_port, x_hops, y_port, y_hops = self.dor_runs(src, dst)
        return [Direction(x_port)] * x_hops + [Direction(y_port)] * y_hops

    def dor_route(self, src: int, dst: int) -> list[int]:
        """Node ids visited under X-then-Y routing, inclusive of endpoints."""
        x_port, x_hops, y_port, y_hops = self.dor_runs(src, dst)
        x_nodes, _, x = self.lines[x_port][src]
        y_nodes, _, y = self.lines[y_port][x_nodes[x + x_hops]]
        return list(x_nodes[x : x + x_hops] + y_nodes[y : y + y_hops + 1])

    def hop_count(self, src: int, dst: int) -> int:
        """Links a dimension-order route crosses, which on a grid is the
        minimum (a breadth-first search agrees:
        ``tests/test_topology_properties.py``)."""
        _, x_hops, _, y_hops = self.dor_runs(src, dst)
        return x_hops + y_hops

    @cached_property
    def _first_directions(self) -> dict[int, tuple[Direction, ...]]:
        return {}

    def dor_first_direction(self, src: int, dst: int) -> Direction:
        """First travel direction of the X-then-Y route.

        The per-hop routing function of the electrical routers, so one
        source's answers are a row kept from the first time it asks.
        """
        if src == dst:
            raise ValueError("no direction from a node to itself")
        try:
            return self._first_directions[src][dst]
        except KeyError:
            row = []
            for there in self.nodes():
                x_port, x_hops, y_port, y_hops = self.dor_runs(src, there)
                first = x_port if x_hops else y_port if y_hops else Direction.LOCAL
                row.append(Direction(first))
            self._first_directions[src] = tuple(row)
            return row[dst]

    # ------------------------------------------------------------------
    # broadcast (section 2.1.4)
    # ------------------------------------------------------------------

    def is_edge_row(self, node: int) -> bool:
        """True when broadcast fan-out halves at this node (section 2.1.4:
        "eight if it is located on the top or bottom rows"): a vertical
        port with no link leaves one sweep per column."""
        return None in (self.neighbor(node, port) for port in _Y_PORTS)

    def broadcast_sweeps(self, source: int) -> list[tuple[int, set[int]]]:
        """Decompose a broadcast into column sweeps.

        Returns ``(final, taps)`` pairs — one multicast packet per
        column and vertical direction, tapping every node on its DOR
        path — whose taps jointly cover all nodes except ``source``.
        A sweep runs as far as dimension-order routes from its turn node
        do that way: to the grid's end, or half way round a closed
        column.  Overlapping taps (the turn row appears in both vertical
        sweeps) are safe: delivery is deduplicated per ``(broadcast,
        node)``.
        """
        row = source - source % self.width
        sweeps: list[tuple[int, set[int]]] = []
        for turn in range(row, row + self.width):
            for port in reversed(_Y_PORTS):  # NORTH first
                nodes, _, at = self.lines[port][turn]
                arc = [turn]
                for there in nodes[at + 1 : at + self.height]:
                    if self.dor_runs(turn, there)[2:] != (port, len(arc)):
                        break
                    arc.append(there)
                if len(arc) > 1:
                    sweeps.append((arc[-1], set(arc) - {source}))
        return sweeps
