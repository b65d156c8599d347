"""The reference's route rewrites and its broadcast (sections 2.1.3-2.1.4).

A plan is :func:`repro.core.routing.build_plan`'s tuple of
:class:`~repro.core.routing.RouteStep`; these are what the oracle does to
one after launch.  :func:`replan_from` is the new plan of a router that
buffers a blocked packet, :func:`clear_passed_taps` the resend after a
drop.  :func:`broadcast_plans` is the section 2.1.4 broadcast: one
multicast packet per (column x vertical direction) sweep, as decomposed
by the topology's ``broadcast_sweeps``.  That is 16 packets on an 8x8
mesh for an interior-row source, and eight for a top/bottom-row source.
Each packet travels along the source's row to its column, taps the turn
router, then traverses the column tapping every node, terminating with
Local+Multicast at the column end.  The union of the taps covers all
other nodes.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.routing import RouteStep, TopologyLike, build_plan
from repro.topology.base import Topology
from repro.topology.registry import as_topology


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
