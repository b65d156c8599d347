"""Flattened route plans and the precomputed arbitration table.

The reference pipeline re-walks tuples of frozen
:class:`~repro.core.routing.RouteStep` dataclasses on every wave.  The
vectorized engine compiles each (source, destination) route once into a
:class:`PlanInfo` of flat integer tuples — node ids and exit-port ids
(``-1`` at the final router).  A dimension-order route is at most two
straight runs, so :func:`compile_plan` is two slices of the grid's line
tables (:attr:`~repro.topology.base.Topology.lines`): the topology says
which way and how far along each axis, the lines hold every row and column
once, and a route owns three short tuples of references and no int of its
own.  The differential suite pins the routes and the resulting schedules
bit-identical to ``build_plan``'s on both mesh and torus.

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

from repro.topology.base import Line, Topology
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


#: The negative values of ``PlanInfo.keys`` (see there).
STOP, TAP_STOP, TAP_FLY = -1, -2, -3


class PlanInfo:
    """A compiled route (flat tuples and a tap mask, see module docstring)."""

    __slots__ = ("nodes", "exits", "keys", "length", "final", "taps")

    def __init__(
        self,
        nodes: tuple[int, ...],
        exits: tuple[int, ...],
        keys: tuple[int, ...],
        taps: int = 0,
    ) -> None:
        self.nodes = nodes
        self.exits = exits
        self.length = len(nodes)
        self.final = nodes[-1]
        #: Multicast bits: bit ``i`` set where router ``i`` power-taps the
        #: packet.  Zero on every unicast plan.
        self.taps = taps
        # Per-hop contention key, handed in untapped: ``node * 4 + exit`` at
        # every router the route flies through, ``STOP`` at the final one.
        # One tuple load replaces the nodes/exits pair in the wave hot loop.
        # A power tap folds into the same int, so the loop's one ``key < 0``
        # test also finds the taps: ``TAP_STOP`` taps and then stops,
        # ``TAP_FLY - key`` taps and flies on under ``key``.
        if taps:
            keys = tuple(
                (TAP_STOP if key == STOP else TAP_FLY - key) if taps >> i & 1 else key
                for i, key in enumerate(keys)
            )
        self.keys = keys


def neighbor_table(topology: Topology) -> tuple[list[Line], ...]:
    """The grid's line tables, which are what :func:`compile_plan` reads.
    The name is the one ``bench/probes.py`` imports (ROADMAP item 6)."""
    return topology.lines


def compile_plan(
    topology: Topology,
    lines: tuple[list[Line], ...],
    source: int,
    destination: int,
    _max_hops: int = 0,  # unread: bench/probes.py still passes a hop budget
) -> PlanInfo:
    """The DOR route as a :class:`PlanInfo`: the X run and the Y run, each a
    slice of a line the grid holds once, so the route of
    ``build_plan(topology, source, destination, max_hops)`` at any hop
    budget (same nodes, same exits, -1 at the destination)."""
    if source == destination:
        raise ValueError("a route needs distinct endpoints")
    x_port, x_hops, y_port, y_hops = topology.dor_runs(source, destination)
    x_nodes, x_keys, x = lines[x_port][source]
    y_nodes, y_keys, y = lines[y_port][x_nodes[x + x_hops]]
    return PlanInfo(
        x_nodes[x : x + x_hops] + y_nodes[y : y + y_hops + 1],
        (x_port,) * x_hops + (y_port,) * y_hops + (-1,),
        x_keys[x : x + x_hops] + y_keys[y : y + y_hops] + (STOP,),
    )


#: Plans one :class:`PlanTable` keeps in each of its stores — the untapped
#: routes, the tapped rewrites, the broadcast sweeps — before that store
#: starts over.  Every route of a 16x16 grid (65 280 pairs, 34 MB) and every
#: tapped plan of an 8x8 run fit; a 32x32 grid has 1 047 552 pairs and a
#: campaign worker lives long.  Past the cap the store is emptied and refills
#: with what the run still uses.  Measured, an untapped route costs about 190
#: bytes plus 24 a router (three tuples of references into the grid's lines),
#: so a full store of 32x32 routes (22 routers on average) is about 47 MB.
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

    def __init__(self, topology: Topology) -> None:
        super().__init__()
        self.topology = topology
        self.num_nodes = topology.num_nodes
        self._tapped: dict[tuple[int, int], PlanInfo] = {}
        self._sweeps: dict[int, tuple[PlanInfo, ...]] = {}

    def __missing__(self, key: int) -> PlanInfo:
        if len(self) >= PLAN_CAP:
            self.clear()
        plan = self[key] = compile_plan(
            self.topology, self.topology.lines, *divmod(key, self.num_nodes)
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
            tapped = self._tapped[key] = PlanInfo(
                plan.nodes, plan.exits, self[pair].keys, taps
            )
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
