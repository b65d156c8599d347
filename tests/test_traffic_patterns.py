"""Tests for the synthetic traffic patterns."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import mesh_hop_count
from repro.sim.rng import DeterministicRng
from repro.traffic.patterns import (
    FIGURE9_PATTERNS,
    PATTERNS,
    HotspotPattern,
    NeighborPattern,
    TornadoPattern,
    UniformRandomPattern,
    pattern_by_name,
)
from repro.util.errors import SpecError
from repro.util.geometry import MeshGeometry

MESH = MeshGeometry(8, 8)


def rng(label="t"):
    return DeterministicRng(11, label)


class TestRegistry:
    def test_all_patterns_instantiable(self):
        for name in PATTERNS:
            assert pattern_by_name(name, MESH).name == name

    def test_figure9_patterns_exist(self):
        assert set(FIGURE9_PATTERNS) <= set(PATTERNS)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            pattern_by_name("zigzag", MESH)


class TestPermutations:
    @pytest.mark.parametrize("name", FIGURE9_PATTERNS)
    def test_deterministic(self, name):
        pattern = pattern_by_name(name, MESH)
        assert all(
            pattern.destination(s, rng()) == pattern.destination(s, rng())
            for s in range(64)
        )

    @pytest.mark.parametrize("name", FIGURE9_PATTERNS)
    def test_destinations_in_range(self, name):
        pattern = pattern_by_name(name, MESH)
        for source in range(64):
            assert 0 <= pattern.destination(source, rng()) < 64

    def test_transpose_maps_coordinates(self):
        pattern = pattern_by_name("transpose", MESH)
        # (x, y) -> (y, x): node (1, 2) = 17 -> (2, 1) = 10.
        assert pattern.destination(17, rng()) == 10

    def test_bitcomp_pairs_opposite_corners(self):
        pattern = pattern_by_name("bitcomp", MESH)
        assert pattern.destination(0, rng()) == 63

    def test_permutations_need_power_of_two(self):
        with pytest.raises(ValueError) as refused:
            pattern_by_name("shuffle", MeshGeometry(3, 3))
        # A spec refusal: one ``repro: ...`` line from the CLI.
        assert isinstance(refused.value, SpecError)

    def test_out_of_range_source_rejected(self):
        with pytest.raises(ValueError):
            pattern_by_name("bitrev", MESH).destination(64, rng())


class TestUniform:
    def test_never_self(self):
        pattern = UniformRandomPattern(MESH)
        generator = rng("uniform")
        assert all(pattern.destination(5, generator) != 5 for _ in range(500))

    def test_covers_all_destinations(self):
        pattern = UniformRandomPattern(MESH)
        generator = rng("cover")
        seen = {pattern.destination(0, generator) for _ in range(5000)}
        assert seen == set(range(1, 64))

    def test_single_node_mesh_rejected(self):
        with pytest.raises(ValueError):
            UniformRandomPattern(MeshGeometry(1, 1)).destination(0, rng())


class TestTornado:
    def test_halfway_around_row(self):
        pattern = TornadoPattern(MESH)
        assert pattern.destination(0, rng()) == 4
        assert pattern.destination(5, rng()) == 1  # wraps
        assert pattern.destination(8, rng()) == 12  # row preserved


class TestNeighbor:
    @given(st.integers(0, 63))
    def test_destination_is_adjacent(self, source):
        pattern = NeighborPattern(MESH)
        dest = pattern.destination(source, rng(f"n{source}"))
        assert mesh_hop_count(MESH, source, dest) == 1

    def test_corner_has_two_choices(self):
        pattern = NeighborPattern(MESH)
        generator = rng("corner")
        seen = {pattern.destination(0, generator) for _ in range(200)}
        assert seen == {1, 8}


class TestHotspot:
    def test_fraction_one_always_hits_hotspot(self, monkeypatch):
        monkeypatch.setattr("repro.traffic.patterns.HOTSPOT_FRACTION", 1.0)
        pattern = HotspotPattern(MESH)
        generator = rng("hs")
        hot = pattern.hotspot
        assert all(pattern.destination(3, generator) == hot for _ in range(100))

    def test_hotspot_never_targets_itself(self, monkeypatch):
        monkeypatch.setattr("repro.traffic.patterns.HOTSPOT_FRACTION", 1.0)
        pattern = HotspotPattern(MESH)
        generator = rng("self")
        hot = pattern.hotspot
        assert all(pattern.destination(hot, generator) != hot for _ in range(100))

    def test_fraction_zero_is_uniform(self, monkeypatch):
        monkeypatch.setattr("repro.traffic.patterns.HOTSPOT_FRACTION", 0.0)
        pattern = HotspotPattern(MESH)
        generator = rng("zero")
        hits = sum(
            pattern.destination(3, generator) == pattern.hotspot for _ in range(1000)
        )
        assert hits < 50

    def test_half_the_traffic_hits_the_centre(self):
        pattern = HotspotPattern(MESH)
        generator = rng("half")
        assert pattern.hotspot == MESH.node(MESH.coord(MESH.num_nodes // 2 + 4))
        hits = sum(
            pattern.destination(3, generator) == pattern.hotspot for _ in range(2000)
        )
        # 1/2 directly, plus the uniform half's 1/63 share.
        assert 0.46 < hits / 2000 < 0.56
