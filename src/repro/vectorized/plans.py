"""Flattened route plans and the precomputed arbitration table.

The reference pipeline re-walks tuples of frozen
:class:`~repro.core.routing.RouteStep` dataclasses on every wave.  The
vectorized engine compiles each (source, destination) route once into a
:class:`PlanInfo` of flat integer tuples — node ids and exit-port ids
(``-1`` at the final router).  Compilation bypasses
:func:`~repro.core.routing.build_plan` entirely: the grid topology's
``dor_directions`` plus a per-network neighbour table reproduce the
reference DOR route (same nodes, same exits) without constructing any
``RouteStep`` objects — the differential suite pins the resulting
schedules bit-identical on both mesh and torus.

A plan is the route and nothing else: every packet on the pair holds the
same one for its whole life, as the paper's packet keeps its predecoded
control bits (sections 2.1, 2.1.3).  A dimension-order route's tail is the
dimension-order route of the router it starts at, so what the reference's
``replan_from`` builds when the router at index ``i`` buffers the packet
is this plan from ``i`` on; its periodic Local marks, every ``max_hops``
routers from ``i``, are not in the plan: the engine reads them off
``VecPacket.origin`` and the wave count.

Multicast power taps (paper section 2.1.4) ride on the plan as a bitmask:
bit ``i`` of ``PlanInfo.taps`` is the Multicast bit of the ``i``-th router.
The bits behind a packet are never read again, so a buffered packet keeps
its mask too, and the one rewrite left is a source told of a drop at index
``i``, which resends with the bits before ``i`` cleared
(:meth:`PlanTable.cleared`, the reference's ``clear_passed_taps``).

Plans live in a :class:`PlanTable` per grid, shared by every network on
it whatever its hop budget, which is sound because a plan is a pure
function of (grid, source, destination, taps).

:data:`RANK16` flattens the reference arbitration key: index
``arrival * 4 + exit`` holds the turn rank (straight=0 < left=1 <
right=2), so the contention sort key ``(RANK16[a * 4 + e], a)``
reproduces ``(_TURN_RANK[TURN_KIND[...]], INPUT_PORT_PRIORITY.index(a))``
exactly — ``INPUT_PORT_PRIORITY.index(d) == int(d)`` by construction.
"""

from __future__ import annotations

from repro.topology.base import GridTopology
from repro.util.geometry import TURN_KIND, Direction, TurnKind

_TURN_RANK = {TurnKind.STRAIGHT: 0, TurnKind.LEFT: 1, TurnKind.RIGHT: 2}


def _rank_table() -> tuple[int, ...]:
    table = [3] * 16  # U-turns never occur on DOR routes; rank 3 is unused.
    for (arrival, exit_direction), kind in TURN_KIND.items():
        if exit_direction is Direction.LOCAL:
            continue
        table[int(arrival) * 4 + int(exit_direction)] = _TURN_RANK[kind]
    return tuple(table)


#: ``RANK16[arrival * 4 + exit]`` = turn rank of that crossing.
RANK16: tuple[int, ...] = _rank_table()


def laser_index(segment_hops: int, taps: int) -> int:
    """Flat index of a launch's (first-segment hops, taps on that segment);
    dense, because a segment of ``n`` hops has at most ``n`` taps."""
    return segment_hops * (segment_hops + 1) // 2 + taps


#: The negative values of ``PlanInfo.keys`` (see there).
STOP, TAP_STOP, TAP_FLY = -1, -2, -3


class PlanInfo:
    """A compiled route (flat tuples and a tap mask, see module docstring)."""

    __slots__ = ("nodes", "exits", "keys", "length", "final", "taps")

    def __init__(
        self, nodes: tuple[int, ...], exits: tuple[int, ...], taps: int = 0
    ) -> None:
        self.nodes = nodes
        self.exits = exits
        self.length = len(nodes)
        self.final = nodes[-1]
        #: Multicast bits: bit ``i`` set where router ``i`` power-taps the
        #: packet.  Zero on every unicast plan.
        self.taps = taps
        # Per-hop contention key: ``node * 4 + exit`` at every router the
        # route flies through, ``STOP`` at the final one.  One tuple load
        # replaces the nodes/exits pair in the wave hot loop.  A power tap
        # folds into the same int, so the loop's one ``key < 0`` test also
        # finds the taps: ``TAP_STOP`` taps and then stops, ``TAP_FLY -
        # key`` taps and flies on under ``key``.
        keys = [node * 4 + port for node, port in zip(nodes, exits)]
        keys[-1] = STOP
        if taps:
            keys = [
                (TAP_STOP if key == STOP else TAP_FLY - key) if taps >> i & 1 else key
                for i, key in enumerate(keys)
            ]
        self.keys = tuple(keys)


def neighbor_table(topology: GridTopology) -> tuple[tuple[int, ...], ...]:
    """``table[node][port]`` -> neighbour id (-1 off-grid; DOR never hits it)."""
    ports = (Direction.NORTH, Direction.EAST, Direction.SOUTH, Direction.WEST)
    return tuple(
        tuple(
            -1 if (there := topology.neighbor(node, port)) is None else there
            for port in ports
        )
        for node in topology.nodes()
    )


def compile_plan(
    topology: GridTopology,
    neighbors: tuple[tuple[int, ...], ...],
    source: int,
    destination: int,
    _max_hops: int = 0,  # unread: bench/probes.py still passes a hop budget
) -> PlanInfo:
    """The DOR route as a :class:`PlanInfo`, skipping ``build_plan``.

    Reproduces the route of ``build_plan(topology, source, destination,
    max_hops)`` exactly, at any hop budget: the node walk follows
    ``dor_directions`` through the neighbour table (identical to
    ``dor_route``) and exits are the direction ints (-1 at the
    destination).  The built-in grids compute the
    per-axis (port, hop count) pairs arithmetically — X-then-Y offsets on
    the mesh, minimal wrap with positive-direction tie-break on the torus
    — matching ``MeshGeometry.dor_directions`` / ``Torus2D.dor_directions``
    without materialising Direction lists.
    """
    if source == destination:
        raise ValueError("a route needs distinct endpoints")
    width = topology.width
    ax, ay = source % width, source // width
    bx, by = destination % width, destination // width
    name = topology.name
    nodes = [source]
    exits: list[int]
    if name == "mesh":
        if bx > ax:
            nodes += range(source + 1, source + (bx - ax) + 1)
            exits = [1] * (bx - ax)
        elif bx < ax:
            nodes += range(source - 1, source - (ax - bx) - 1, -1)
            exits = [3] * (ax - bx)
        else:
            exits = []
        mid = nodes[-1]
        if by > ay:
            count = by - ay
            nodes += range(mid + width, mid + width * count + 1, width)
            exits += [0] * count
        elif by < ay:
            count = ay - by
            nodes += range(mid - width, mid - width * count - 1, -width)
            exits += [2] * count
    elif name == "torus":
        height = topology.height
        row = source - ax  # node id of (x=0, y=ay)
        dx_east = (bx - ax) % width
        if dx_east:
            if 2 * dx_east <= width:  # EAST (ties break positive)
                clear = width - 1 - ax  # hops before the wrap link
                if dx_east <= clear:
                    nodes += range(source + 1, source + dx_east + 1)
                else:
                    nodes += range(source + 1, source + clear + 1)
                    nodes += range(row, row + dx_east - clear)
                exits = [1] * dx_east
            else:
                count = width - dx_east
                if count <= ax:
                    nodes += range(source - 1, source - count - 1, -1)
                else:
                    nodes += range(source - 1, source - ax - 1, -1)
                    right = row + width - 1
                    nodes += range(right, right - (count - ax), -1)
                exits = [3] * count
        else:
            exits = []
        mid = nodes[-1]
        dy_north = (by - ay) % height
        if dy_north:
            if 2 * dy_north <= height:  # NORTH (ties break positive)
                clear = height - 1 - ay
                if dy_north <= clear:
                    nodes += range(mid + width, mid + width * dy_north + 1, width)
                else:
                    nodes += range(mid + width, mid + width * clear + 1, width)
                    nodes += range(bx, bx + width * (dy_north - clear), width)
                exits += [0] * dy_north
            else:
                count = height - dy_north
                if count <= ay:
                    nodes += range(mid - width, mid - width * count - 1, -width)
                else:
                    nodes += range(mid - width, mid - width * ay - 1, -width)
                    top = bx + width * (height - 1)
                    nodes += range(top, top - width * (count - ay), -width)
                exits += [2] * count
    else:  # pragma: no cover - out-of-tree grids take the generic walk
        exits = []
        node = source
        for direction in topology.dor_directions(source, destination):
            port = int(direction)
            exits.append(port)
            node = neighbors[node][port]
            nodes.append(node)
    exits.append(-1)
    return PlanInfo(tuple(nodes), tuple(exits))


#: Plans one :class:`PlanTable` keeps in each of its stores — the untapped
#: routes, the tapped rewrites, the broadcast sweeps — before that store
#: starts over.  Every route of a 16x16 grid (65 280 pairs, 53 MB) and every
#: tapped plan of an 8x8 run fit; a 32x32 grid has 1 047 552 pairs and a
#: campaign worker lives long.  Past the cap the store is emptied and refills
#: with what the run still uses.  Measured, a route costs about 240 bytes plus
#: 80 a router, so a full store of 32x32 routes (22 routers on average) is
#: about 130 MB.
PLAN_CAP = 1 << 16


class PlanTable(dict[int, PlanInfo]):
    """Every compiled plan of one grid, built on first use.

    The table itself maps ``source * num_nodes + destination`` to the
    untapped route, compiling it on a miss, so the engine's hot sites are
    one subscript.  Tapped plans — the broadcast sweeps of a source and
    what :meth:`cleared` derives from them — are memoised beside it.  Each
    store holds at most :data:`PLAN_CAP` plans (see there for the bound in
    MB); emptying one mid-run is safe because plans are immutable and a
    packet holds its own reference.
    """

    def __init__(self, topology: GridTopology) -> None:
        super().__init__()
        self.topology = topology
        self.num_nodes = topology.num_nodes
        self.neighbors = neighbor_table(topology)
        self._tapped: dict[tuple[int, int], PlanInfo] = {}
        self._sweeps: dict[int, tuple[PlanInfo, ...]] = {}

    def __missing__(self, key: int) -> PlanInfo:
        if len(self) >= PLAN_CAP:
            self.clear()
        plan = self[key] = compile_plan(
            self.topology, self.neighbors, *divmod(key, self.num_nodes)
        )
        return plan

    def plan(self, source: int, destination: int) -> PlanInfo:
        """The untapped route (raises ValueError on self-traffic)."""
        return self[source * self.num_nodes + destination]

    def tapped(self, plan: PlanInfo, taps: int) -> PlanInfo:
        """``plan``'s route under the tap mask ``taps``."""
        if taps == plan.taps:
            return plan
        pair = plan.nodes[0] * self.num_nodes + plan.final
        if not taps:
            return self[pair]
        key = (pair, taps)
        tapped = self._tapped.get(key)
        if tapped is None:
            if len(self._tapped) >= PLAN_CAP:
                self._tapped.clear()
            tapped = self._tapped[key] = PlanInfo(plan.nodes, plan.exits, taps)
        return tapped

    def broadcast(self, source: int) -> tuple[PlanInfo, ...]:
        """The multicast plans of one broadcast from ``source``, in the
        topology's sweep order (``broadcast_plans`` of the reference)."""
        plans = self._sweeps.get(source)
        if plans is None:
            sweeps = self.topology.broadcast_sweeps(source)
            if (len(self._sweeps) + 1) * len(sweeps) > PLAN_CAP:
                self._sweeps.clear()
            plans = tuple(self._sweep(source, final, taps) for final, taps in sweeps)
            covered = {
                node
                for plan in plans
                for index, node in enumerate(plan.nodes)
                if plan.taps >> index & 1
            }
            missing = set(self.topology.nodes()) - covered - {source}
            if missing:
                raise RuntimeError(
                    f"broadcast from {source} misses nodes {sorted(missing)}"
                )
            self._sweeps[source] = plans
        return plans

    def _sweep(self, source: int, final: int, tap_nodes: set[int]) -> PlanInfo:
        plan = self.plan(source, final)
        taps = 0
        for index, node in enumerate(plan.nodes):
            if node in tap_nodes:
                taps |= 1 << index
        if taps.bit_count() != len(tap_nodes):
            stray = sorted(tap_nodes.difference(plan.nodes))
            raise ValueError(f"taps {stray} are not on the DOR path")
        return self.tapped(plan, taps)

    def cleared(self, plan: PlanInfo, drop_index: int) -> PlanInfo:
        """``plan`` with the Multicast bits before ``drop_index`` cleared:
        those routers were tapped before the packet dropped (see module
        docstring)."""
        return self.tapped(plan, plan.taps >> drop_index << drop_index)
