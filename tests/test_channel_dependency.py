"""Deadlock freedom as a graph law: the electrical baseline's channel
dependency graph (Dally & Seitz, IEEE Trans. Computers, 1987).

A vertex is a channel class, ``(directed link, VC class)``; an edge runs
from the channel a packet holds to one it may wait for next.  The links
come from :meth:`~repro.topology.base.Topology.dor_route` over every pair
of nodes, and the VC classes from the masks of
:meth:`~repro.electrical.islip.VcAllocator.assign`.  Routing on a graph
without a cycle cannot deadlock.  (Multicast tree replication adds its own
edges, which this law does not state yet.)

The allocator hands any free VC to any line, so there is one class.  The
mesh is acyclic at every VC count.  The torus is not: its rings close on
themselves, which is the known deadlock (``tornado@0.5`` on the 8x8 torus
at Table 2's ten VCs wedges).  The expected torus cycle below states it;
a dateline split of the VCs is the fix that flips it.
"""

import pytest

from repro.electrical.islip import VcAllocator
from repro.electrical.router import NUM_PORTS
from repro.topology.registry import topology_for
from repro.util.geometry import Direction, MeshGeometry

#: The VC counts the law covers: one VC up to past Table 2's ten.
VC_COUNTS = (1, 2, 3, 4, 6, 8, 10, 12)


def vc_classes(num_vcs):
    """``(class of each VC, class -> classes it may be granted next)``.

    Probes :meth:`VcAllocator.assign` with one requesting line and one
    free downstream VC at a time, over every input port and output.  VCs
    granted from, and granting onward, the same VCs are one class,
    numbered in order of their lowest VC.
    """
    allocator = VcAllocator(NUM_PORTS, num_vcs)
    ports, vcs = range(NUM_PORTS), range(num_vcs)
    onward = {
        held: frozenset(
            free
            for free in vcs
            for port in ports
            for output in ports
            if allocator.assign(output, 1 << (port * num_vcs + held), 1 << free)
        )
        for held in vcs
    }
    number: dict = {}
    class_of = [
        number.setdefault(
            (onward[vc], frozenset(held for held in vcs if vc in onward[held])),
            len(number),
        )
        for vc in vcs
    ]
    return class_of, {
        class_of[held]: {class_of[free] for free in onward[held]} for held in vcs
    }


def dependency_graph(topology, num_vcs):
    """``{(node, direction, class): {channels it may wait for}}`` over the
    dimension-order routes of every pair of nodes."""
    _, onward = vc_classes(num_vcs)
    turns = set()
    for src in topology.nodes():
        for dst in topology.nodes():
            route = topology.dor_route(src, dst)
            links = list(zip(route, topology.dor_directions(src, dst)))
            turns.update(zip(links, links[1:]))
    graph = {}
    for (held, wanted) in turns:
        for cls, nexts in onward.items():
            graph.setdefault((*held, cls), set()).update(
                (*wanted, after) for after in nexts
            )
    return graph


def first_cycle(graph):
    """The first cycle a depth-first search in sorted order meets, as the
    channels along it, or ``None`` when the graph is acyclic."""
    state = {}  # vertex -> 1 on the path, 2 done
    for root in sorted(graph):
        if root in state:
            continue
        path, stack = [root], [iter(sorted(graph.get(root, ())))]
        state[root] = 1
        while stack:
            step = next(stack[-1], None)
            if step is None:
                state[path.pop()] = 2
                stack.pop()
            elif state.get(step) == 1:
                return path[path.index(step):]
            elif step not in state:
                state[step] = 1
                path.append(step)
                stack.append(iter(sorted(graph.get(step, ()))))
    return None


class TestVcClasses:
    @pytest.mark.parametrize("num_vcs", VC_COUNTS)
    def test_any_free_vc_goes_to_any_line_so_there_is_one_class(self, num_vcs):
        class_of, onward = vc_classes(num_vcs)
        assert class_of == [0] * num_vcs and onward == {0: {0}}


def sizes(*dims):
    return [
        pytest.param(d, marks=pytest.mark.slow) if d >= 16 else d for d in dims
    ]


class TestMeshIsAcyclic:
    @pytest.mark.parametrize("num_vcs", VC_COUNTS)
    @pytest.mark.parametrize("size", sizes(4, 8, 16))
    def test_dimension_order_routes_on_the_mesh(self, size, num_vcs):
        mesh = topology_for("mesh", MeshGeometry(size, size))
        graph = dependency_graph(mesh, num_vcs)
        assert graph and first_cycle(graph) is None


class TestTorusRingCycle:
    """The known deadlock, stated: the first cycle a search meets is
    column 0 travelling north, round through its wrap link, in the one VC
    class.  The dateline fix flips this expected value."""

    @pytest.mark.parametrize("num_vcs", VC_COUNTS)
    @pytest.mark.parametrize("size", sizes(4, 8, 16))
    def test_the_ring_closes(self, size, num_vcs):
        torus = topology_for("torus", MeshGeometry(size, size))
        column = range(0, size * size, size)
        assert first_cycle(dependency_graph(torus, num_vcs)) == [
            (node, Direction.NORTH, 0) for node in column
        ]
