"""Shared helpers for simulation tests."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

from repro.fabric.registry import BACKENDS
from repro.sim.engine import SimulationEngine
from repro.sim.stats import nearest_rank
from repro.topology.base import Topology
from repro.topology.registry import TOPOLOGIES, topology_for
from repro.util.geometry import Direction


def drain(network, inject_cycles: int, max_extra: int = 20_000) -> SimulationEngine:
    """Run a network for ``inject_cycles`` then until idle; assert drainage."""
    engine = SimulationEngine()
    engine.register(network)
    engine.run(inject_cycles)
    assert engine.run_until(
        lambda: network.idle(engine.cycle), max_extra
    ), "network failed to drain"
    return engine


def sweep_points(config, pattern, rates, cycles, seed=1, executor=None):
    """One Fig 9 series as ``repro sweep`` and ``fig09.compute`` run it:
    ``sweep_specs``, one ``Executor.map``, ``point_from_result``."""
    from repro.harness.exec import Executor
    from repro.harness.sweeps import point_from_result, sweep_specs

    specs = sweep_specs(config, pattern, rates, cycles, seed)
    results = (executor or Executor()).map(specs)
    return [
        point_from_result(rate, result, config.mesh.num_nodes)
        for rate, result in zip(rates, results)
    ]


def plan_hops(plan) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A compiled plan's routers and exits, decoded from its route keys
    (``key >> 2``, ``key & 3``), with exit -1 at the final router as
    ``build_plan`` marks it."""
    flown = plan.route[:-1]
    return (
        tuple(key >> 2 for key in flown) + (plan.final,),
        tuple(key & 3 for key in flown) + (-1,),
    )


@contextmanager
def reference_oracle() -> Iterator[None]:
    """Inside the block every ``PhastlaneConfig`` runs on the oracle.

    The backend table sends every ``PhastlaneConfig`` to the sparse kernel,
    so a test that compares that kernel with the reference — or that means
    to cover the reference's own fault and multicast paths through
    ``run()`` / ``make_network()`` — has to ask for the reference, and this
    is the only way to get it through the table.  It points the
    ``"phastlane"`` row at :class:`oracle.network.PhastlaneNetwork` (the
    ``tests/oracle`` package, imported by that one name) and puts the
    kernel back on exit.
    """
    reference = "oracle.network.PhastlaneNetwork"
    with mock.patch.dict(BACKENDS, phastlane=(BACKENDS["phastlane"][0], reference)):
        yield


class Cylinder(Topology):
    """A grid no package ships, stated the way ``Topology`` asks: its
    links and which way round an axis a route goes.  Rows close on
    themselves, columns end, and a tie half way round a row goes EAST.

    ``axis_hops`` is told a size, not an axis, so the toy keeps to grids
    whose two sizes differ.
    """

    name = "test-cylinder"

    def neighbor(self, node, direction):
        direction = Direction(direction)
        if direction in (Direction.NORTH, Direction.SOUTH, Direction.LOCAL):
            return self.mesh.neighbor(node, direction)
        if self.width == 1:
            return None
        x = node % self.width + (1 if direction is Direction.EAST else -1)
        return node - node % self.width + x % self.width

    def axis_hops(self, delta, size):
        assert self.width != self.height
        if size != self.width:
            return delta
        ahead = delta % size
        return ahead if 2 * ahead <= size else ahead - size


@contextmanager
def cylinder_registered() -> Iterator[str]:
    """Inside the block a config may name the :class:`Cylinder`."""
    try:
        with mock.patch.dict(TOPOLOGIES, {Cylinder.name: Cylinder}):
            yield Cylinder.name
    finally:
        topology_for.cache_clear()  # no instance outlives its table row


# -- reference statements: the naive forms the shipped code is tested against --


def percentile(histogram, p):
    """The ``p``-th percentile (0 < p <= 100) of a
    :class:`~repro.sim.stats.Histogram`: the run-level nearest-rank
    statement the windowed and blame-report percentiles are tested against."""
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    if histogram.count == 0:
        raise ValueError("empty histogram has no percentiles")
    return nearest_rank(histogram.items(), histogram.count, p)


def arbiter_pick(arbiter, mask):
    """The set bit of ``mask`` at or after a
    :class:`~repro.electrical.islip.RoundRobinArbiter`'s pointer, wrapping
    around; ``-1`` for an empty mask, and no pointer update.  The
    one-arbiter statement the mask allocator is tested against."""
    ahead = mask >> arbiter.pointer
    if ahead:
        return arbiter.pointer + (ahead & -ahead).bit_length() - 1
    return (mask & -mask).bit_length() - 1


def arbiter_advance_past(arbiter, line):
    """Move the arbiter's pointer one past ``line`` (iSLIP's
    accepted-grant rule)."""
    if not 0 <= line < arbiter.size:
        raise ValueError(f"line {line} out of range")
    arbiter.pointer = (line + 1) % arbiter.size


def mesh_hop_count(mesh, src, dst):
    """Manhattan distance between two nodes of a
    :class:`~repro.util.geometry.MeshGeometry`."""
    a, b = mesh.coord(src), mesh.coord(dst)
    return abs(a.x - b.x) + abs(a.y - b.y)


def mesh_dor_directions(mesh, src, dst):
    """Travel directions of the X-then-Y route on a bare mesh, by
    coordinates (empty when ``src == dst``): what ``Mesh2D`` derives from
    its two statements is compared with this."""
    a, b = mesh.coord(src), mesh.coord(dst)
    step_x = Direction.EAST if b.x > a.x else Direction.WEST
    step_y = Direction.NORTH if b.y > a.y else Direction.SOUTH
    return [step_x] * abs(b.x - a.x) + [step_y] * abs(b.y - a.y)


def mesh_dor_route(mesh, src, dst):
    """Node ids the X-then-Y route visits, endpoints included."""
    coord = mesh.coord(src)
    route = [src]
    for direction in mesh_dor_directions(mesh, src, dst):
        coord = coord.step(direction)
        route.append(mesh.node(coord))
    return route


def mesh_dor_first_direction(mesh, src, dst):
    """First travel direction of the X-then-Y route."""
    if src == dst:
        raise ValueError("no direction from a node to itself")
    return mesh_dor_directions(mesh, src, dst)[0]


def mesh_is_edge_row(mesh, node):
    """True on the mesh's top or bottom row, where broadcast fan-out halves
    (section 2.1.4: "eight if it is located on the top or bottom rows")."""
    return mesh.coord(node).y in (0, mesh.height - 1)
