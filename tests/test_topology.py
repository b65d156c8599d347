"""Unit tests for the topology layer: the name table and the two grids.

The mesh family is additionally pinned *indirectly* by the digest and
Fig 9/10 byte-identity tests — here we check the topology-specific
surface: name lookup and its one-line refusal, torus wraparound and
wrap-port labelling, and the route laws both Phastlane engines lean on.
"""

import pytest

from repro.topology.base import TopologyError
from repro.topology.mesh import Mesh2D
from repro.topology.registry import (
    DEFAULT_TOPOLOGY,
    as_topology,
    policy_by_name,
    registered_topologies,
    topology_for,
    topology_from_name,
    topology_of,
)
from repro.topology.torus import Torus2D
from repro.util.errors import FabricError
from repro.util.geometry import Direction, MeshGeometry

from helpers import mesh_dor_route, mesh_hop_count, plan_hops

MESH44 = MeshGeometry(4, 4)


class TestRegistry:
    def test_builtins_are_registered(self):
        assert registered_topologies() == ("mesh", "torus")
        assert DEFAULT_TOPOLOGY == "mesh"

    def test_unknown_name_names_the_known_ones(self):
        with pytest.raises(TopologyError, match="mesh.*torus"):
            topology_from_name("hypercube", MESH44)

    def test_topology_for_caches_per_name_and_mesh(self):
        a = topology_for("torus", MESH44)
        assert topology_for("torus", MESH44) is a
        assert topology_for("torus", MeshGeometry(4, 4)) is a  # value equality
        assert topology_for("mesh", MESH44) is not a

    def test_as_topology_adapts_meshes_and_passes_topologies_through(self):
        adapted = as_topology(MESH44)
        assert isinstance(adapted, Mesh2D)
        torus = Torus2D(MESH44)
        assert as_topology(torus) is torus

    def test_topology_of_reads_the_config_field_with_mesh_default(self):
        class WithField:
            mesh = MESH44
            topology = "torus"

        class Legacy:  # pre-topology configs have no field at all
            mesh = MESH44

        assert isinstance(topology_of(WithField()), Torus2D)
        assert isinstance(topology_of(Legacy()), Mesh2D)

    def test_topology_error_is_a_fabric_error(self):
        assert issubclass(TopologyError, FabricError)
        assert issubclass(TopologyError, ValueError)


class TestMesh2D:
    def test_delegates_to_mesh_geometry(self):
        topo = Mesh2D(MESH44)
        for node in topo.nodes():
            for direction in Direction:
                assert topo.neighbor(node, direction) == MESH44.neighbor(
                    node, direction
                )
        assert topo.hop_count(0, 15) == mesh_hop_count(MESH44, 0, 15)
        assert topo.dor_route(0, 15) == mesh_dor_route(MESH44, 0, 15)

    def test_link_enumeration_matches_legacy_fault_candidate_order(self):
        topo = Mesh2D(MESH44)
        legacy = [
            (node, int(port))
            for node in MESH44.nodes()
            for port in Direction
            if port is not Direction.LOCAL
            and MESH44.neighbor(node, port) is not None
        ]
        assert topo.links() == legacy

    def test_corner_has_two_ports_interior_has_four(self):
        topo = Mesh2D(MESH44)
        assert len(topo.ports(0)) == 2
        assert len(topo.ports(5)) == 4

    def test_port_labels_are_compass_names(self):
        topo = Mesh2D(MESH44)
        assert topo.port_label(5, int(Direction.EAST)) == "EAST"

    def test_str(self):
        assert str(Mesh2D(MESH44)) == "4x4 mesh"


class TestTorus2D:
    def test_every_node_has_four_ports(self):
        topo = Torus2D(MESH44)
        assert all(len(topo.ports(node)) == 4 for node in topo.nodes())

    def test_wrap_neighbors(self):
        topo = Torus2D(MESH44)
        # Node 0 is (0, 0): WEST wraps to (3, 0), SOUTH wraps to (0, 3).
        assert topo.neighbor(0, Direction.WEST) == 3
        assert topo.neighbor(0, Direction.SOUTH) == 12
        assert topo.neighbor(0, Direction.EAST) == 1

    def test_hop_count_uses_minimal_wrap_distance(self):
        topo = Torus2D(MESH44)
        assert topo.hop_count(0, 3) == 1  # wrap west beats 3 hops east
        assert topo.hop_count(0, 15) == 2  # (0,0)->(3,3) via both wraps
        assert topo.hop_count(0, 5) == 2  # interior pair unchanged

    def test_wrap_ports_are_labelled(self):
        topo = Torus2D(MESH44)
        assert topo.port_label(0, int(Direction.WEST)) == "WEST_WRAP"
        assert topo.port_label(0, int(Direction.EAST)) == "EAST"

    def test_folded_layout_doubles_link_length_above_two_wide(self):
        assert Torus2D(MESH44).link_length_mm(0, int(Direction.EAST), 1.5) == 3.0
        narrow = Torus2D(MeshGeometry(2, 4))
        assert narrow.link_length_mm(0, int(Direction.EAST), 1.5) == 1.5
        assert narrow.link_length_mm(0, int(Direction.NORTH), 1.5) == 3.0

    def test_dor_routes_take_the_wrap_shortcut(self):
        topo = Torus2D(MESH44)
        assert topo.dor_directions(0, 3) == [Direction.WEST]
        route = topo.dor_route(0, 15)
        assert route[0] == 0 and route[-1] == 15
        assert len(route) - 1 == topo.hop_count(0, 15)

    def test_size_one_dimension_has_no_self_links(self):
        line = Torus2D(MeshGeometry(4, 1))
        assert line.neighbor(0, Direction.NORTH) is None
        assert line.neighbor(0, Direction.WEST) == 3

    def test_broadcast_sweeps_cover_all_nodes(self):
        topo = Torus2D(MESH44)
        for source in topo.nodes():
            covered = set()
            for final, taps in topo.broadcast_sweeps(source):
                assert source not in taps
                covered.update(taps)
            assert covered == set(topo.nodes()) - {source}

    def test_no_edge_rows(self):
        topo = Torus2D(MESH44)
        assert not any(topo.is_edge_row(node) for node in topo.nodes())


class TestRoutingPolicies:
    def test_unknown_policy_names_the_known_ones(self):
        with pytest.raises(TopologyError, match="'dor'"):
            policy_by_name("adaptive")

    @pytest.mark.parametrize("shape", [(4, 4), (5, 3), (2, 6), (8, 8)])
    @pytest.mark.parametrize("grid", [Mesh2D, Torus2D])
    def test_a_dor_route_tail_is_the_dor_route_from_there(self, grid, shape):
        """The suffix law both Phastlane engines lean on: the router that
        buffers a packet resends it on the rest of the same route (section
        2.1.3), wrap tie-breaks included, so the oracle's ``replan_from``
        and the kernel's shared plan agree by construction."""
        topo = grid(MeshGeometry(*shape))
        for src in topo.nodes():
            for dst in topo.nodes():
                nodes = topo.dor_route(src, dst)
                directions = topo.dor_directions(src, dst)
                for index, node in enumerate(nodes):
                    assert topo.dor_route(node, dst) == nodes[index:]
                    assert topo.dor_directions(node, dst) == directions[index:]

    def test_an_out_of_tree_grid_routes_on_the_kernel(self):
        """A grid is its links and which way round an axis it goes: the plan
        compiler asks for nothing else, least of all a name it knows."""
        from repro.vectorized.plans import STOP, PlanTable

        class WestwardTies(Torus2D):
            name = "test-westward"

            def axis_hops(self, delta, size):
                ahead = delta % size
                return ahead if 2 * ahead < size else ahead - size

        topo = WestwardTies(MESH44)
        assert topo.dor_route(0, 10) == [0, 3, 2, 14, 10]
        table = PlanTable(topo)
        for src in topo.nodes():
            for dst in set(topo.nodes()) - {src}:
                plan = table.plan(src, dst)
                nodes, exits = plan_hops(plan)
                assert nodes[0] == src and plan.final == dst
                assert plan.length - 1 == topo.hop_count(src, dst)
                assert exits[-1] == -1 and plan.keys[-1] == STOP
                for index, port in enumerate(exits[:-1]):
                    here = nodes[index]
                    assert topo.neighbor(here, port) == nodes[index + 1]
                    assert plan.keys[index] == here * 4 + port
