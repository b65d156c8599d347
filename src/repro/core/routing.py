"""Predecoded source routing for Phastlane (paper sections 2.1.3-2.1.4).

The source computes the full route before transmission and encodes one
five-bit control group (Straight / Left / Right / Local / Multicast) per
router on the path.  :func:`build_plan` produces the route as a sequence
of :class:`RouteStep`, inserting *interim nodes* (Local bit set) every
``max_hops`` hops so no optical transit exceeds the single-cycle hop
budget of Fig 6.

Routes are the paper's dimension-order (X-then-Y) routing over a grid
:class:`~repro.topology.base.Topology`; :func:`build_plan` also accepts a
bare :class:`~repro.util.geometry.MeshGeometry`, which adapts to the
``mesh`` topology.  This is the naive statement of section 2.1.3: every
call walks the route and builds its steps.  No command runs it.  The
reference oracle under ``tests/oracle`` routes with it, and its Local
marks are what ``tests/test_differential.py`` checks the kernel's
positional stops against; ``bench/probes.py`` times it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from repro.topology.base import Topology
from repro.topology.registry import as_topology
from repro.util.geometry import Direction, MeshGeometry

#: :func:`build_plan` accepts a topology or a bare mesh geometry.
TopologyLike = Union[Topology, MeshGeometry]


@dataclass(frozen=True, slots=True)
class RouteStep:
    """One router on a predecoded route.

    ``exit`` is the direction the packet leaves this router (None at the
    route's final router); ``local`` marks a receive (interim node or final
    destination); ``multicast`` marks a broadcast power tap.
    """

    node: int
    exit: Direction | None
    local: bool = False
    multicast: bool = False

    def __post_init__(self) -> None:
        if self.exit is Direction.LOCAL:
            raise ValueError("exit must be a mesh direction or None")


def build_plan(
    topology: TopologyLike,
    source: int,
    destination: int,
    max_hops: int,
    taps: Iterable[int] = (),
) -> tuple[RouteStep, ...]:
    """The dimension-order route from ``source`` to ``destination``.

    Interim nodes (Local) are placed every ``max_hops`` hops.  ``taps``
    marks multicast power-tap nodes; each must lie on the route.  The
    final step always has ``local=True``; for multicast packets the caller
    includes the destination in ``taps`` so the final node also delivers.

    >>> mesh = MeshGeometry(8, 8)
    >>> plan = build_plan(mesh, 0, 63, max_hops=5)
    >>> [s.node for s in plan if s.local]
    [5, 31, 63]
    """
    if source == destination:
        raise ValueError("a route needs distinct endpoints")
    if max_hops < 1:
        raise ValueError("max hops must be at least 1")
    grid = as_topology(topology)
    nodes = grid.dor_route(source, destination)
    directions = grid.dor_directions(source, destination)
    tap_set = set(taps)
    stray = tap_set.difference(nodes)
    if stray:
        raise ValueError(f"taps {sorted(stray)} are not on the DOR path")
    last = len(nodes) - 1
    # Local at the destination and at every max_hops-th router: the strict
    # periodic placement of section 2.1.3 (a mark one hop before the
    # destination is redundant but harmless).
    return tuple(
        RouteStep(
            node,
            None if index == last else directions[index],
            local=index == last or (index > 0 and index % max_hops == 0),
            multicast=node in tap_set,
        )
        for index, node in enumerate(nodes)
    )
