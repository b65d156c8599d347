"""Tests for predecoded route plans, interim nodes and broadcast fan-out."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import mesh_dor_route, mesh_is_edge_row
from oracle.routing import (
    broadcast_plans,
    clear_passed_taps,
    max_segment_hops,
    replan_from,
)
from repro.core.routing import RouteStep, build_plan
from repro.topology.registry import topology_from_name
from repro.util.geometry import MeshGeometry

MESH = MeshGeometry(8, 8)
nodes = st.integers(0, 63)
hop_budgets = st.sampled_from([4, 5, 8])


class TestBuildPlan:
    def test_follows_dor_route(self):
        plan = build_plan(MESH, 0, 63, max_hops=4)
        assert [s.node for s in plan] == mesh_dor_route(MESH, 0, 63)

    def test_final_step_is_local_without_exit(self):
        plan = build_plan(MESH, 0, 10, max_hops=4)
        assert plan[-1].local and plan[-1].exit is None

    @given(nodes, nodes, hop_budgets)
    def test_interim_nodes_bound_segments(self, src, dst, max_hops):
        if src == dst:
            return
        plan = build_plan(MESH, src, dst, max_hops)
        assert max_segment_hops(plan) <= max_hops

    @given(nodes, nodes, hop_budgets)
    def test_interim_placement_every_max_hops(self, src, dst, max_hops):
        if src == dst:
            return
        plan = build_plan(MESH, src, dst, max_hops)
        for index, step in enumerate(plan):
            if 0 < index < len(plan) - 1:
                assert step.local == (index % max_hops == 0)

    def test_short_route_has_no_interims(self):
        plan = build_plan(MESH, 0, 3, max_hops=4)
        assert [s.local for s in plan] == [False, False, False, True]

    def test_taps_recorded(self):
        plan = build_plan(MESH, 0, 16, max_hops=4, taps={8, 16})
        assert [s.node for s in plan if s.multicast] == [8, 16]

    def test_off_path_tap_rejected(self):
        with pytest.raises(ValueError, match="not on the DOR path"):
            build_plan(MESH, 0, 2, max_hops=4, taps={9})

    def test_self_route_rejected(self):
        with pytest.raises(ValueError):
            build_plan(MESH, 5, 5, max_hops=4)

    def test_paper_example_14_hop_route(self):
        # Corner-to-corner at 5 hops/cycle: interims at hop 5 and 10
        # (section 2.1.3: "the source picks the nodes five and ten hops
        # away along dimension order as interim destinations").
        plan = build_plan(MESH, 0, 63, max_hops=5)
        interims = [i for i, s in enumerate(plan) if s.local]
        assert interims == [5, 10, 14]


class TestReplanFrom:
    def test_replan_reaches_same_destination(self):
        plan = build_plan(MESH, 0, 63, max_hops=4)
        new_plan = replan_from(MESH, plan, current_index=3, max_hops=4)
        assert new_plan[0].node == plan[3].node
        assert new_plan[-1].node == 63

    def test_replan_repicks_interims(self):
        plan = build_plan(MESH, 0, 63, max_hops=4)
        new_plan = replan_from(MESH, plan, current_index=2, max_hops=4)
        assert max_segment_hops(new_plan) <= 4
        # First interim is now 4 hops from the *new* transmitter.
        interims = [i for i, s in enumerate(new_plan) if s.local]
        assert interims[0] == 4

    def test_replan_preserves_remaining_taps(self):
        plan = build_plan(MESH, 0, 7, max_hops=8, taps={2, 5, 7})
        new_plan = replan_from(MESH, plan, current_index=3, max_hops=8)
        assert {s.node for s in new_plan if s.multicast} == {5, 7}

    def test_replan_from_final_rejected(self):
        plan = build_plan(MESH, 0, 2, max_hops=4)
        with pytest.raises(ValueError):
            replan_from(MESH, plan, current_index=2, max_hops=4)


class TestClearPassedTaps:
    def test_taps_before_drop_cleared(self):
        plan = build_plan(MESH, 0, 7, max_hops=8, taps={1, 3, 5, 7})
        cleared = clear_passed_taps(plan, drop_index=4)
        assert {s.node for s in cleared if s.multicast} == {5, 7}

    def test_route_geometry_unchanged(self):
        plan = build_plan(MESH, 0, 7, max_hops=8, taps={3})
        cleared = clear_passed_taps(plan, drop_index=5)
        assert [s.node for s in cleared] == [s.node for s in plan]
        assert [s.exit for s in cleared] == [s.exit for s in plan]

    def test_bad_index_rejected(self):
        plan = build_plan(MESH, 0, 3, max_hops=4)
        with pytest.raises(ValueError):
            clear_passed_taps(plan, drop_index=99)


class TestBroadcastPlans:
    @given(nodes, hop_budgets)
    def test_covers_all_other_nodes(self, source, max_hops):
        plans = broadcast_plans(MESH, source, max_hops)
        covered = set()
        for plan in plans:
            covered |= {s.node for s in plan if s.multicast}
        assert covered == set(range(64)) - {source}

    @given(nodes)
    def test_packet_count_matches_paper(self, source):
        # Section 2.1.4: 16 multicast messages, 8 from a top/bottom row.
        plans = broadcast_plans(MESH, source, max_hops=4)
        expected = 8 if mesh_is_edge_row(MESH, source) else 16
        assert len(plans) == expected

    @given(nodes, hop_budgets)
    def test_each_plan_is_valid(self, source, max_hops):
        for plan in broadcast_plans(MESH, source, max_hops):
            assert plan[0].node == source
            assert plan[-1].local
            assert plan[-1].multicast  # final node also receives
            assert max_segment_hops(plan) <= max_hops

    @given(nodes)
    def test_source_never_tapped(self, source):
        for plan in broadcast_plans(MESH, source, 4):
            assert not plan[0].multicast

    def test_small_mesh_broadcast(self):
        mesh = MeshGeometry(2, 2)
        plans = broadcast_plans(mesh, 0, max_hops=4)
        covered = set()
        for plan in plans:
            covered |= {s.node for s in plan if s.multicast}
        assert covered == {1, 2, 3}


class TestPlanMetrics:
    def test_max_segment_of_direct_plan(self):
        assert max_segment_hops(build_plan(MESH, 0, 3, 4)) == 3


def fresh_plan(topo, source, destination, max_hops, taps=()):
    """``build_plan`` stated a second time, from the grid's route and its
    directions: where the Local marks and the taps fall."""
    nodes = topo.dor_route(source, destination)
    directions = topo.dor_directions(source, destination)
    last = len(nodes) - 1
    return tuple(
        RouteStep(
            node=node,
            exit=None if index == last else directions[index],
            local=index == last or (index > 0 and index % max_hops == 0),
            multicast=node in taps,
        )
        for index, node in enumerate(nodes)
    )


GRIDS = [
    pytest.param(name, side, id=f"{name}-{side}x{side}")
    for name in ("mesh", "torus")
    for side in (4, 8)
]


class TestPlanTable:
    """``build_plan`` against ``fresh_plan``, exhaustively.  (The class and
    its tests keep the names they had when ``build_plan`` looked routes up
    in a per-topology table, so their ids are the ones earlier runs
    recorded; every call builds its route now.)"""

    @pytest.mark.parametrize("name,side", GRIDS)
    @pytest.mark.parametrize("max_hops", range(1, 6))
    def test_every_pair_cold_and_warm_equals_an_uncached_build(
        self, name, side, max_hops
    ):
        topo = topology_from_name(name, MeshGeometry(side, side))
        pairs = [(a, b) for a in topo.nodes() for b in topo.nodes() if a != b]
        for src, dst in pairs:
            assert build_plan(topo, src, dst, max_hops) == fresh_plan(
                topo, src, dst, max_hops
            )

    @pytest.mark.parametrize("name,side", GRIDS)
    @pytest.mark.parametrize("max_hops", range(1, 6))
    def test_broadcast_sweeps_and_their_replans_equal_uncached_builds(
        self, name, side, max_hops
    ):
        topo = topology_from_name(name, MeshGeometry(side, side))
        for source in topo.nodes():
            sweeps = topo.broadcast_sweeps(source)
            plans = broadcast_plans(topo, source, max_hops)
            assert plans == [
                fresh_plan(topo, source, final, max_hops, taps)
                for final, taps in sweeps
            ]
            for plan in plans:
                final = plan[-1].node
                for index in range(len(plan) - 1):
                    remaining = {s.node for s in plan[index + 1 :] if s.multicast}
                    assert replan_from(topo, plan, index, max_hops) == fresh_plan(
                        topo, plan[index].node, final, max_hops, remaining
                    )

    @pytest.mark.parametrize(
        "args",
        [
            dict(source=0, destination=2, max_hops=4, taps={9}),
            dict(source=5, destination=5, max_hops=4),
            dict(source=0, destination=2, max_hops=0),
            dict(source=0, destination=64, max_hops=4),
            dict(source=-1, destination=2, max_hops=4),
        ],
        ids=["stray-tap", "equal-endpoints", "zero-hops", "past-the-grid", "negative"],
    )
    def test_refusals_are_the_same_on_a_hit_as_on_a_miss(self, args):
        with pytest.raises(ValueError):
            build_plan(topology_from_name("mesh", MESH), **args)
