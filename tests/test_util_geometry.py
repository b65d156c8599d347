"""Tests for mesh geometry, and for the naive dimension-order statements
(``helpers.mesh_*``) that ``Mesh2D``'s routes are compared with."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    mesh_dor_directions,
    mesh_dor_route,
    mesh_hop_count,
    mesh_is_edge_row,
)
from repro.util.geometry import (
    OPPOSITE,
    TURN_KIND,
    Coord,
    Direction,
    MeshGeometry,
    TurnKind,
)

nodes64 = st.integers(min_value=0, max_value=63)


class TestCoordAndDirections:
    def test_node_coord_round_trip(self):
        mesh = MeshGeometry(8, 8)
        for node in mesh.nodes():
            assert mesh.node(mesh.coord(node)) == node

    def test_row_major_numbering(self):
        mesh = MeshGeometry(8, 8)
        assert mesh.coord(0) == Coord(0, 0)
        assert mesh.coord(7) == Coord(7, 0)
        assert mesh.coord(8) == Coord(0, 1)
        assert mesh.coord(63) == Coord(7, 7)

    def test_step_directions(self):
        c = Coord(3, 3)
        assert c.step(Direction.NORTH) == Coord(3, 4)
        assert c.step(Direction.SOUTH) == Coord(3, 2)
        assert c.step(Direction.EAST) == Coord(4, 3)
        assert c.step(Direction.WEST) == Coord(2, 3)
        assert c.step(Direction.LOCAL) == c

    def test_opposites_are_involutions(self):
        for direction, opposite in OPPOSITE.items():
            assert OPPOSITE[opposite] == direction

    def test_neighbor_at_edge_is_none(self):
        mesh = MeshGeometry(8, 8)
        assert mesh.neighbor(0, Direction.SOUTH) is None
        assert mesh.neighbor(0, Direction.WEST) is None
        assert mesh.neighbor(63, Direction.NORTH) is None
        assert mesh.neighbor(0, Direction.NORTH) == 8

    def test_invalid_node_rejected(self):
        mesh = MeshGeometry(4, 4)
        with pytest.raises(ValueError):
            mesh.coord(16)
        with pytest.raises(ValueError):
            mesh.coord(-1)

    def test_degenerate_mesh_rejected(self):
        with pytest.raises(ValueError):
            MeshGeometry(0, 4)


class TestTurnClassification:
    def test_straight_through(self):
        assert TURN_KIND[(Direction.NORTH, Direction.NORTH)] is TurnKind.STRAIGHT

    def test_right_turns(self):
        assert TURN_KIND[(Direction.NORTH, Direction.EAST)] is TurnKind.RIGHT
        assert TURN_KIND[(Direction.EAST, Direction.SOUTH)] is TurnKind.RIGHT
        assert TURN_KIND[(Direction.WEST, Direction.NORTH)] is TurnKind.RIGHT

    def test_left_turns(self):
        assert TURN_KIND[(Direction.NORTH, Direction.WEST)] is TurnKind.LEFT
        assert TURN_KIND[(Direction.SOUTH, Direction.WEST)] is TurnKind.RIGHT
        assert TURN_KIND[(Direction.EAST, Direction.NORTH)] is TurnKind.LEFT

    def test_local_acceptance(self):
        for direction in (Direction.NORTH, Direction.EAST, Direction.SOUTH, Direction.WEST):
            assert TURN_KIND[(direction, Direction.LOCAL)] is TurnKind.LOCAL


class TestDimensionOrderRouting:
    @given(nodes64, nodes64)
    def test_route_length_is_manhattan_distance(self, src, dst):
        mesh = MeshGeometry(8, 8)
        assert len(mesh_dor_route(mesh, src, dst)) == mesh_hop_count(mesh, src, dst) + 1

    @given(nodes64, nodes64)
    def test_route_endpoints(self, src, dst):
        mesh = MeshGeometry(8, 8)
        route = mesh_dor_route(mesh, src, dst)
        assert route[0] == src and route[-1] == dst

    @given(nodes64, nodes64)
    def test_route_steps_are_adjacent(self, src, dst):
        mesh = MeshGeometry(8, 8)
        route = mesh_dor_route(mesh, src, dst)
        for a, b in zip(route, route[1:]):
            assert mesh_hop_count(mesh, a, b) == 1

    @given(nodes64, nodes64)
    def test_x_before_y(self, src, dst):
        mesh = MeshGeometry(8, 8)
        directions = mesh_dor_directions(mesh, src, dst)
        seen_y = False
        for direction in directions:
            if direction in (Direction.NORTH, Direction.SOUTH):
                seen_y = True
            else:
                assert not seen_y, "X move after a Y move violates DOR"

    @given(nodes64, nodes64)
    def test_at_most_one_turn(self, src, dst):
        mesh = MeshGeometry(8, 8)
        directions = mesh_dor_directions(mesh, src, dst)
        turns = sum(1 for a, b in zip(directions, directions[1:]) if a != b)
        assert turns <= 1

    def test_self_route_is_single_node(self):
        mesh = MeshGeometry(8, 8)
        assert mesh_dor_route(mesh, 5, 5) == [5]
        assert mesh_dor_directions(mesh, 5, 5) == []


class TestEdgeRows:
    def test_edge_rows_detected(self):
        mesh = MeshGeometry(8, 8)
        assert mesh_is_edge_row(mesh, 0)  # bottom row
        assert mesh_is_edge_row(mesh, 7)
        assert mesh_is_edge_row(mesh, 56)  # top row
        assert not mesh_is_edge_row(mesh, 8)

    def test_rectangular_mesh(self):
        mesh = MeshGeometry(4, 2)
        assert mesh.num_nodes == 8
        assert mesh.coord(5) == Coord(1, 1)
        assert mesh_is_edge_row(mesh, 5)
