"""Shared helpers for simulation tests."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.core.config import PhastlaneConfig
from repro.core.network import PhastlaneNetwork
from repro.fabric import entry_for_kind, register_backend
from repro.sim.engine import SimulationEngine
from repro.topology import GridTopology, register_topology, unregister_topology
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


@contextmanager
def reference_oracle() -> Iterator[None]:
    """Inside the block every ``PhastlaneConfig`` runs on ``repro.core``.

    The registry sends every ``PhastlaneConfig`` to the sparse kernel, so a
    test that compares that kernel with the reference — or that means to
    cover the reference's own fault and multicast paths through ``run()`` /
    ``make_network()`` — has to ask for the reference, and this is the only
    way to get it through the registry.  It shadows the ``"phastlane"``
    registration with :class:`~repro.core.network.PhastlaneNetwork` (the
    registry documents shadowing for tests) and puts the kernel back on exit.
    """
    kernel = entry_for_kind("phastlane").factory
    register_backend("phastlane", PhastlaneConfig, PhastlaneNetwork)
    try:
        yield
    finally:
        register_backend("phastlane", PhastlaneConfig, kernel)


class Cylinder(GridTopology):
    """A grid no package ships, stated the way ``GridTopology`` asks: its
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
    register_topology(Cylinder.name, Cylinder)
    try:
        yield Cylinder.name
    finally:
        unregister_topology(Cylinder.name)
