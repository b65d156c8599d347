"""Tests for the C0/C1 control-bit encoding (Fig 3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle.control import (
    ControlGroup,
    decode_control_bits,
    encode_plan,
    pack_control_bits,
    shift_groups,
)
from oracle.routing import broadcast_plans
from repro.core.routing import build_plan
from repro.harness.experiments.configs import optical_configs
from repro.photonics.constants import PACKET_CONTROL_BITS
from repro.topology.registry import registered_topologies, topology_from_name
from repro.util.geometry import MeshGeometry

MESH = MeshGeometry(8, 8)
nodes = st.integers(0, 63)
#: Table 1's hop budgets (Optical4/5/8 and the buffer variants) on every
#: registered topology: the grids the control-bit law holds on.
grids = st.sampled_from(
    [
        (topology_from_name(name, MESH), hops)
        for name in registered_topologies()
        for hops in sorted({c.max_hops_per_cycle for c in optical_configs().values()})
    ]
)


class TestControlGroup:
    def test_bits_round_trip(self):
        group = ControlGroup(left=True, local=True, multicast=True)
        assert ControlGroup.from_bits(group.to_bits()) == group

    @given(st.integers(0, 31))
    def test_from_bits_inverse_of_to_bits(self, bits):
        try:
            group = ControlGroup.from_bits(bits)
        except ValueError:
            # multiple direction bits set simultaneously
            direction_bits = bits & 0b111
            assert bin(direction_bits).count("1") > 1
            return
        assert group.to_bits() == bits

    def test_multiple_directions_rejected(self):
        with pytest.raises(ValueError):
            ControlGroup(straight=True, left=True)

    def test_oversized_bits_rejected(self):
        with pytest.raises(ValueError):
            ControlGroup.from_bits(32)


class TestEncodePlan:
    @given(grids, nodes, nodes)
    def test_group_count_matches_route_length(self, grid, src, dst):
        if src == dst:
            return
        plan = build_plan(grid[0], src, dst, grid[1])
        groups = encode_plan(plan)
        assert len(groups) == len(plan) - 1

    @given(grids, nodes, nodes)
    def test_every_route_fits_the_70_bit_budget(self, grid, src, dst):
        """The 14-group budget covers any 8x8 dimension-order route at
        every Table 1 hop budget, on the mesh and the torus."""
        if src == dst:
            return
        word = pack_control_bits(encode_plan(build_plan(grid[0], src, dst, grid[1])))
        assert word < 1 << PACKET_CONTROL_BITS

    @given(grids, nodes)
    def test_broadcast_plans_fit_budget(self, grid, source):
        for plan in broadcast_plans(grid[0], source, grid[1]):
            assert pack_control_bits(encode_plan(plan)) < 1 << PACKET_CONTROL_BITS

    def test_straight_route_sets_straight_bits(self):
        plan = build_plan(MESH, 0, 3, max_hops=4)
        groups = encode_plan(plan)
        assert groups[0].straight and groups[1].straight
        assert groups[-1].local and not groups[-1].straight

    def test_turn_encoded_once(self):
        # 0 -> 9: east then north = a left turn at node 1.
        plan = build_plan(MESH, 0, 9, max_hops=4)
        groups = encode_plan(plan)
        assert groups[0].left
        assert groups[1].local

    def test_exact_14_group_route(self):
        plan = build_plan(MESH, 0, 63, max_hops=4)
        assert len(encode_plan(plan)) == 14

    def test_trivial_plan_rejected(self):
        with pytest.raises(ValueError):
            encode_plan(build_plan(MESH, 0, 1, 4)[:1])


class TestPackAndShift:
    @given(grids, nodes, nodes)
    def test_pack_decode_round_trip(self, grid, src, dst):
        if src == dst:
            return
        groups = encode_plan(build_plan(grid[0], src, dst, grid[1]))
        word = pack_control_bits(groups)
        assert decode_control_bits(word, len(groups)) == groups
        assert decode_control_bits(shift_groups(word), len(groups) - 1) == groups[1:]

    def test_shift_drops_group_one(self):
        groups = encode_plan(build_plan(MESH, 0, 63, max_hops=4))
        word = pack_control_bits(groups)
        shifted = shift_groups(word)
        assert decode_control_bits(shifted, len(groups) - 1) == groups[1:]

    def test_shifting_all_groups_empties_word(self):
        groups = encode_plan(build_plan(MESH, 0, 5, max_hops=4))
        word = pack_control_bits(groups)
        for _ in groups:
            word = shift_groups(word)
        assert word == 0

    def test_negative_word_rejected(self):
        with pytest.raises(ValueError):
            shift_groups(-1)

    def test_decode_count_bounds(self):
        with pytest.raises(ValueError):
            decode_control_bits(0, 15)
