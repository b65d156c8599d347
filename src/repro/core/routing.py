"""Predecoded source routing for Phastlane (paper sections 2.1.3-2.1.4).

The source computes the full route before transmission and encodes one
five-bit control group (Straight / Left / Right / Local / Multicast) per
router on the path.  :func:`build_plan` produces the route as a sequence
of :class:`RouteStep`, inserting *interim nodes* (Local bit set) every
``max_hops`` hops so no optical transit exceeds the single-cycle hop
budget of Fig 6.

Routes are the paper's dimension-order (X-then-Y) routing over a grid
:class:`~repro.topology.base.Topology`; every entry point also accepts a
bare :class:`~repro.util.geometry.MeshGeometry`, which adapts to the
``mesh`` topology.  This is the reference's statement of section
2.1.3 and is kept naive on purpose: every call walks the route and builds
its steps, and the Local marks are what ``tests/test_differential.py``
checks the kernel's positional stops against and what
:mod:`repro.core.control` checks against the 70-bit control budget.

:func:`broadcast_plans` implements the section 2.1.4 broadcast: one
multicast packet per (column x vertical direction) sweep, as decomposed
by the topology's ``broadcast_sweeps`` — 16 packets on an 8x8 mesh for
an interior-row source (eight for a top/bottom-row source).  Each
packet travels along the source's row to its column, taps the turn
router, then traverses the column tapping every node, terminating with
Local+Multicast at the column end.  The union of the taps covers all
other nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from repro.topology.base import Topology
from repro.topology.registry import as_topology
from repro.util.geometry import Direction, MeshGeometry

#: Every routing entry point accepts a topology or a bare mesh geometry.
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


def replan_from(
    topology: TopologyLike,
    plan: Sequence[RouteStep],
    current_index: int,
    max_hops: int,
) -> tuple[RouteStep, ...]:
    """A fresh plan from the router at ``current_index`` to the same target.

    Used when an intermediate router buffers a blocked packet and assumes
    responsibility: it re-picks interim nodes from its own position
    (section 2.1.3 allows bypassing the original interim nodes by modifying
    the Local bits).  Multicast taps not yet passed are preserved.
    """
    if not 0 <= current_index < len(plan) - 1:
        raise ValueError("replan index must be a non-final route position")
    here = plan[current_index].node
    final = plan[-1].node
    remaining_taps = {
        step.node for step in plan[current_index + 1 :] if step.multicast
    }
    return build_plan(topology, here, final, max_hops, taps=remaining_taps)


def clear_passed_taps(
    plan: Sequence[RouteStep], drop_index: int
) -> tuple[RouteStep, ...]:
    """Clear Multicast bits for routers before ``drop_index`` (section 2.1.4).

    After a drop, the source learns the dropper's node id from the return
    path and clears the Multicast bits of nodes that already received the
    message, then resends.  Nodes strictly before the dropper were tapped;
    the dropper itself and everything after were not.
    """
    if not 0 <= drop_index < len(plan):
        raise ValueError("drop index outside the plan")
    return tuple(
        RouteStep(s.node, s.exit, s.local, s.multicast and i >= drop_index)
        for i, s in enumerate(plan)
    )


def broadcast_plans(
    topology: TopologyLike, source: int, max_hops: int
) -> list[tuple[RouteStep, ...]]:
    """The multicast packet plans implementing one broadcast (section 2.1.4).

    One packet per column sweep whose vertical segment is non-empty (on
    the 8x8 mesh: 16 for an interior-row source, 8 for a top/bottom-row
    source).  Every node other than the source appears in the
    tap/destination set of at least one plan.
    """
    topo = as_topology(topology)
    plans: list[tuple[RouteStep, ...]] = []
    for final, taps in topo.broadcast_sweeps(source):
        plans.append(build_plan(topo, source, final, max_hops, taps=taps))
    _check_broadcast_coverage(topo, source, plans)
    return plans


def _check_broadcast_coverage(
    topology: Topology, source: int, plans: list[tuple[RouteStep, ...]]
) -> None:
    covered: set[int] = set()
    for plan in plans:
        covered.update(step.node for step in plan if step.multicast)
    expected = set(topology.nodes()) - {source}
    missing = expected - covered
    if missing:
        raise RuntimeError(
            f"broadcast from {source} misses nodes {sorted(missing)}"
        )


def max_segment_hops(plan: Sequence[RouteStep]) -> int:
    """The longest optical segment (hops between consecutive Local marks)."""
    longest = 0
    last_stop = 0
    for index, step in enumerate(plan):
        if index > 0 and step.local:
            longest = max(longest, index - last_stop)
            last_stop = index
    return longest
