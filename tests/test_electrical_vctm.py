"""Tests for Virtual Circuit Tree Multicasting helpers."""

import pytest

from helpers import mesh_dor_first_direction
from repro.electrical.vctm import VirtualCircuitTreeCache, split_by_output
from repro.topology.registry import topology_for
from repro.util.geometry import Direction, MeshGeometry

MESH = topology_for("mesh", MeshGeometry(8, 8))


class TestSplitByOutput:
    def test_partition_covers_all_destinations(self):
        destinations = {0, 7, 56, 63, 27}
        parts = split_by_output(27, destinations, MESH)
        combined = set().union(*parts.values())
        assert combined == destinations

    def test_partitions_are_disjoint(self):
        destinations = set(range(64)) - {20}
        parts = split_by_output(20, destinations, MESH)
        total = sum(len(p) for p in parts.values())
        assert total == len(destinations)
        # Each destination rides the branch of its naive X-then-Y first hop.
        for direction, members in parts.items():
            for dest in members:
                assert mesh_dor_first_direction(MESH.mesh, 20, dest) == direction

    def test_local_partition(self):
        parts = split_by_output(5, {5, 6}, MESH)
        assert parts[Direction.LOCAL] == {5}
        assert parts[Direction.EAST] == {6}

    def test_dor_direction_used(self):
        # From node 0, destination 9 = (1, 1): X first -> EAST.
        parts = split_by_output(0, {9}, MESH)
        assert parts == {Direction.EAST: {9}}

    def test_same_column_goes_vertical(self):
        parts = split_by_output(0, {8, 16}, MESH)
        assert parts == {Direction.NORTH: {8, 16}}


class TestVctCache:
    def test_first_lookup_misses_then_hits(self):
        cache = VirtualCircuitTreeCache()
        tree1, hit1 = cache.lookup(0, {1, 2, 3})
        tree2, hit2 = cache.lookup(0, {1, 2, 3})
        assert not hit1 and hit2
        assert tree1 == tree2

    def test_distinct_sets_get_distinct_trees(self):
        cache = VirtualCircuitTreeCache()
        tree1, _ = cache.lookup(0, {1, 2})
        tree2, _ = cache.lookup(0, {1, 3})
        assert tree1 != tree2

    def test_per_source_tables(self):
        cache = VirtualCircuitTreeCache()
        tree1, _ = cache.lookup(0, {5})
        tree2, _ = cache.lookup(1, {5})
        assert tree1 != tree2

    def test_fifo_eviction(self):
        cache = VirtualCircuitTreeCache(capacity=2)
        cache.lookup(0, {1})
        cache.lookup(0, {2})
        cache.lookup(0, {3})  # evicts {1}
        _, hit = cache.lookup(0, {1})
        assert not hit

    def test_hit_rate(self):
        cache = VirtualCircuitTreeCache()
        cache.lookup(0, {1})
        cache.lookup(0, {1})
        cache.lookup(0, {1})
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            VirtualCircuitTreeCache(capacity=0)
