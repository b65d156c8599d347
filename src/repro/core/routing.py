"""Predecoded source routing for Phastlane (paper sections 2.1.3-2.1.4).

The source computes the full route before transmission and encodes one
five-bit control group (Straight / Left / Right / Local / Multicast) per
router on the path.  :func:`build_plan` produces the route as a sequence
of :class:`RouteStep`, inserting *interim nodes* (Local bit set) every
``max_hops`` hops so no optical transit exceeds the single-cycle hop
budget of Fig 6.

Routes come from a :class:`~repro.topology.policies.RoutingPolicy` over
a :class:`~repro.topology.base.Topology` — the paper's dimension-order
(X-then-Y) routing by default.  Every entry point also accepts a bare
:class:`~repro.util.geometry.MeshGeometry`, which adapts to the
registered ``mesh`` topology.

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

from repro.topology import (
    RoutingPolicy,
    Topology,
    as_topology,
    policy_by_name,
    require_grid,
)
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


#: Plan slots per ``(max_hops, policy)`` table of one topology, handed out
#: a source row (``num_nodes`` slots) at a time.  A constant, not an
#: option: it holds every route of an 8x8 network (64 rows) and bounds a
#: table at a few MB on 16x16 (the first 64 sources) and 32x32 (the first
#: 16); a route from a source past the cap is simply built per call.
PLAN_TABLE_CAP = 16384

#: Every untapped step of every plan, shared: ``(node * 6 + exit) * 2 +
#: local`` -> step, with exit 5 standing for None.  At most ten per node.
_STEPS: dict[int, RouteStep] = {}


def _encode_route(
    topo: Topology,
    source: int,
    destination: int,
    max_hops: int,
    policy: RoutingPolicy | str,
) -> tuple[RouteStep, ...]:
    """Compute the route and encode it, untapped, out of shared steps."""
    if not isinstance(policy, RoutingPolicy):
        policy = policy_by_name(policy)
    nodes, directions = policy.plan(topo, source, destination)
    steps: list[RouteStep] = []
    last = len(nodes) - 1
    for index, node in enumerate(nodes):
        # Local at the destination and at every max_hops-th router, except
        # that a mark one hop before the destination is redundant but
        # harmless; we keep the strict periodic placement of section 2.1.3.
        local = index == last or (index > 0 and index % max_hops == 0)
        exit_ = None if index == last else directions[index]
        code = (node * 6 + (5 if exit_ is None else exit_)) * 2 + local
        step = _STEPS.get(code)
        if step is None:
            step = _STEPS[code] = RouteStep(node, exit_, local)
        steps.append(step)
    return tuple(steps)


def build_plan(
    topology: TopologyLike,
    source: int,
    destination: int,
    max_hops: int,
    taps: Iterable[int] = (),
    policy: RoutingPolicy | str = "dor",
) -> tuple[RouteStep, ...]:
    """The route from ``source`` to ``destination`` under ``policy``.

    Interim nodes (Local) are placed every ``max_hops`` hops.  ``taps``
    marks multicast power-tap nodes; each must lie on the route.  The
    final step always has ``local=True``; for multicast packets the caller
    includes the destination in ``taps`` so the final node also delivers.

    The untapped route is a pure function of ``(topology, source,
    destination, max_hops, policy)`` and plans are immutable, so it is
    looked up in the topology's lazily filled plan table — per
    ``(max_hops, policy)``, one ``row[destination]`` list per source seen —
    and shared between packets; taps are overlaid on a copy.

    >>> mesh = MeshGeometry(8, 8)
    >>> plan = build_plan(mesh, 0, 63, max_hops=5)
    >>> [s.node for s in plan if s.local]
    [5, 31, 63]
    """
    if source == destination:
        raise ValueError("a route needs distinct endpoints")
    if max_hops < 1:
        raise ValueError("max hops must be at least 1")
    topo = topology if isinstance(topology, Topology) else as_topology(topology)
    num_nodes = topo.num_nodes
    for node in (source, destination):
        if not 0 <= node < num_nodes:  # a stray id must not alias a table slot
            raise ValueError(f"node {node} out of range for {topo.mesh}")
    rows = topo.plan_tables.setdefault((max_hops, policy), {})
    row = rows.get(source)
    if row is None and len(rows) * num_nodes < PLAN_TABLE_CAP:
        row = rows[source] = [None] * num_nodes
    plan = None if row is None else row[destination]
    if plan is None:
        plan = _encode_route(topo, source, destination, max_hops, policy)
        if row is not None:
            row[destination] = plan
    tap_set = set(taps)
    if not tap_set:
        return plan
    stray = tap_set.difference(step.node for step in plan)
    if stray:
        raise ValueError(f"taps {sorted(stray)} are not on the DOR path")
    return tuple(
        RouteStep(step.node, step.exit, step.local, True)
        if step.node in tap_set
        else step
        for step in plan
    )


def replan_from(
    topology: TopologyLike,
    plan: Sequence[RouteStep],
    current_index: int,
    max_hops: int,
    policy: RoutingPolicy | str = "dor",
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
    return build_plan(
        topology, here, final, max_hops, taps=remaining_taps, policy=policy
    )


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
    topo = require_grid(as_topology(topology), "broadcast routing")
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


def plan_hops(plan: Sequence[RouteStep]) -> int:
    """Total link hops of a plan."""
    return len(plan) - 1


def max_segment_hops(plan: Sequence[RouteStep]) -> int:
    """The longest optical segment (hops between consecutive Local marks)."""
    longest = 0
    last_stop = 0
    for index, step in enumerate(plan):
        if index > 0 and step.local:
            longest = max(longest, index - last_stop)
            last_stop = index
    return longest
