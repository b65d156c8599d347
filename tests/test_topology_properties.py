"""Property-based topology invariants (hypothesis).

Structural laws every topology must uphold, whatever the shape: routes
walk real links, link symmetry holds, hop counts agree with the routes
that realise them and with a breadth-first search, and the deterministic
enumeration contracts (ports ascending, links node-major) that the
fault scheduler depends on.  Degenerate shapes — 1xN meshes, the 2x2
torus where EAST and WEST wrap to the same node — are part of the
sample space on purpose.

A grid states ``neighbor`` and ``axis_hops`` and everything else here
is derived in ``Topology``, so the grid laws also run on
``helpers.Cylinder``, a grid that states those two and nothing more.
What each law is there to catch: a first direction taken from the Y run
before the X run, or a tie broken the other way in one place only, fails
the route laws; a sweep one hop short fails the coverage law, one hop
long the DOR-path law.
"""

from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.topology.mesh import Mesh2D
from repro.topology.registry import registered_topologies, topology_for
from repro.topology.torus import Torus2D
from repro.util.geometry import OPPOSITE, Direction, MeshGeometry

from helpers import Cylinder, mesh_dor_directions

shapes = st.sampled_from(
    [(1, 1), (1, 4), (4, 1), (2, 2), (3, 3), (4, 2), (4, 4), (3, 5), (8, 8)]
)
topology_names = st.sampled_from(sorted(registered_topologies()))
grid_names = st.sampled_from(["mesh", "torus"])
CYLINDER_SHAPES = [(1, 3), (3, 1), (2, 5), (5, 2), (4, 3), (6, 4), (7, 8)]


def make(name, shape):
    return topology_for(name, MeshGeometry(*shape))


#: Every grid the laws are stated on: the package's two and the toy.
grids = st.one_of(
    st.builds(make, grid_names, shapes),
    st.sampled_from(CYLINDER_SHAPES).map(lambda shape: Cylinder(MeshGeometry(*shape))),
)


@given(topology_names, shapes)
def test_ports_are_ascending_and_links_node_major(name, shape):
    topo = make(name, shape)
    for node in topo.nodes():
        ports = topo.ports(node)
        assert list(ports) == sorted(ports)
        assert all(0 <= p < int(Direction.LOCAL) for p in ports)
    links = topo.links()
    assert links == [(n, p) for n in topo.nodes() for p in topo.ports(n)]
    assert len(set(links)) == len(links)


@given(topology_names, shapes)
def test_neighbor_none_exactly_off_the_port_list(name, shape):
    topo = make(name, shape)
    for node in topo.nodes():
        connected = set(topo.ports(node))
        for port in range(int(Direction.LOCAL)):
            there = topo.neighbor(node, port)
            assert (there is not None) == (port in connected)
            if there is not None:
                assert 0 <= there < topo.num_nodes
                assert there != node  # no self-links, even on a 2-torus


@given(grids)
def test_grid_links_are_symmetric(topo):
    """Every grid link has a reverse link through the opposite port."""
    for node, port in topo.links():
        there = topo.neighbor(node, port)
        assert topo.neighbor(there, OPPOSITE[Direction(port)]) == node


HORIZONTAL = (Direction.EAST, Direction.WEST)


def bfs_route(topo, src, dst):
    """The oracle: a breadth-first shortest path over ``neighbor()``
    alone, inclusive of both endpoints, ties toward the lowest port."""
    parent = {src: src}
    queue = deque([src])
    while queue:
        here = queue.popleft()
        for port in topo.ports(here):
            there = topo.neighbor(here, port)
            if there not in parent:
                parent[there] = here
                queue.append(there)
    route = [dst]
    while route[-1] != src:
        route.append(parent[route[-1]])
    return route[::-1]


def assert_route_laws(topo, src, dst):
    """What a dimension-order route is, stated through ``neighbor()`` and
    the BFS alone, so the line tables the routes are sliced from are the
    thing under test and never the reference."""
    shortest = bfs_route(topo, src, dst)
    route = topo.dor_route(src, dst)
    for walk in (route, shortest):
        assert walk[0] == src and walk[-1] == dst
        assert len(set(walk)) == len(walk)  # minimal routes never revisit
        for here, there in zip(walk, walk[1:]):
            assert there in {topo.neighbor(here, p) for p in topo.ports(here)}
        assert len(walk) - 1 == topo.hop_count(src, dst)
    assert len(route) == len(shortest)  # the BFS distance, not a closed form
    directions = topo.dor_directions(src, dst)
    replayed = [src]
    for direction in directions:
        replayed.append(topo.neighbor(replayed[-1], direction))
    assert replayed == route
    turn = sum(direction in HORIZONTAL for direction in directions)
    assert all(direction in HORIZONTAL for direction in directions[:turn])
    assert not any(direction in HORIZONTAL for direction in directions[turn:])
    assert len(set(directions[:turn])) <= 1 and len(set(directions[turn:])) <= 1
    if src != dst:  # the electrical routers' table states the first run again
        assert topo.dor_first_direction(src, dst) == directions[0]
    return directions


@given(grids, st.integers(0, 10_000), st.integers(0, 10_000))
def test_routes_walk_real_links_and_realise_the_hop_count(topo, a, b):
    assert_route_laws(topo, a % topo.num_nodes, b % topo.num_nodes)


@pytest.mark.parametrize("name", ["mesh", "torus"])
@pytest.mark.parametrize(
    "shape", [(1, 5), (5, 1), (2, 2), (2, 3), (4, 4), (5, 7), (6, 6)], ids=str
)
def test_every_route_of_the_small_grids_obeys_the_laws(name, shape):
    """Exhaustive where the property above samples.  Half way round an even
    torus ring both ways are minimal, and EAST / NORTH win."""
    topo = make(name, shape)
    width, height = shape
    for src in topo.nodes():
        for dst in topo.nodes():
            directions = assert_route_laws(topo, src, dst)
            if name == "mesh":
                assert directions == mesh_dor_directions(topo.mesh, src, dst)
                continue
            dx, dy = topo.coord(dst).x - topo.coord(src).x, topo.coord(dst).y - topo.coord(src).y
            if 2 * (dx % width) == width:
                assert directions[0] is Direction.EAST
            if 2 * (dy % height) == height:
                assert directions[-1] is Direction.NORTH


@given(grids, st.integers(0, 10_000), st.integers(0, 10_000))
def test_dor_first_direction_matches_the_route(topo, a, b):
    src, dst = a % topo.num_nodes, b % topo.num_nodes
    if src == dst:
        return
    directions = topo.dor_directions(src, dst)
    assert directions, "distinct nodes on a connected grid need >= 1 hop"
    assert topo.dor_first_direction(src, dst) == directions[0]


@given(topology_names, shapes, st.integers(0, 10_000), st.integers(0, 10_000))
def test_hop_count_is_a_symmetric_metric(name, shape, a, b):
    topo = make(name, shape)
    src, dst = a % topo.num_nodes, b % topo.num_nodes
    assert topo.hop_count(src, dst) == topo.hop_count(dst, src)
    assert (topo.hop_count(src, dst) == 0) == (src == dst)


def assert_sweep_laws(topo, source):
    """Section 2.1.4 through the routes alone: the sweeps tap every node but
    the source, and each is the vertical run of the dimension-order route
    from the source to its last node, turn node included."""
    covered = set()
    for final, taps in topo.broadcast_sweeps(source):
        assert source not in taps
        route = topo.dor_route(source, final)
        turn = topo.dor_runs(source, final)[1]
        assert taps == set(route[turn:]) - {source} and len(route) > turn + 1
        covered.update(taps)
    assert covered == set(topo.nodes()) - {source}


@given(grids, st.integers(0, 10_000))
def test_broadcast_sweeps_cover_everything_once_per_tap_set(topo, s):
    if topo.height < 2:
        return  # row-only grids have no vertical sweeps (documented)
    assert_sweep_laws(topo, s % topo.num_nodes)


@pytest.mark.parametrize("shape", CYLINDER_SHAPES, ids=str)
def test_a_grid_that_states_two_methods_obeys_every_law(shape):
    """Exhaustive on the toy: ``neighbor`` and ``axis_hops`` are all it
    defines, and the routes, hop counts, first directions, edge rows and
    sweeps derived from them obey the laws the shipped grids obey."""
    for grid in (Cylinder, Mesh2D):
        stated = {name for name, value in vars(grid).items() if callable(value)}
        assert stated == {"neighbor", "axis_hops"}
    topo = Cylinder(MeshGeometry(*shape))
    width, height = shape
    for src in topo.nodes():
        assert topo.is_edge_row(src) == (src // width in (0, height - 1))
        if height > 1:
            assert_sweep_laws(topo, src)
            per_column = 1 if topo.is_edge_row(src) else 2
            assert len(topo.broadcast_sweeps(src)) == per_column * width
        for dst in topo.nodes():
            directions = assert_route_laws(topo, src, dst)
            if 2 * ((dst - src) % width) == width:
                assert directions[0] is Direction.EAST
            assert Direction.NORTH not in directions or dst // width > src // width


def test_two_by_two_torus_east_and_west_reach_the_same_node():
    """The degenerate wrap: both horizontal ports land on the one other
    column, but as distinct links with distinct labels."""
    topo = Torus2D(MeshGeometry(2, 2))
    assert topo.neighbor(0, Direction.EAST) == topo.neighbor(0, Direction.WEST) == 1
    assert topo.neighbor(0, Direction.NORTH) == topo.neighbor(0, Direction.SOUTH) == 2
    assert len(topo.ports(0)) == 4
    assert topo.hop_count(0, 3) == 2
    labels = {topo.port_label(0, p) for p in topo.ports(0)}
    assert labels == {"EAST", "WEST_WRAP", "NORTH", "SOUTH_WRAP"}


def test_one_by_n_mesh_is_a_line():
    topo = topology_for("mesh", MeshGeometry(5, 1))
    assert len(topo.ports(0)) == 1 and len(topo.ports(2)) == 2
    assert topo.hop_count(0, 4) == 4
    assert topo.dor_route(0, 4) == [0, 1, 2, 3, 4]
