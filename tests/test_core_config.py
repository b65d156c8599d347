"""Tests for the Phastlane configuration and packet metadata."""

import pytest

from oracle.packet import OpticalPacket
from repro.core.config import PhastlaneConfig
from repro.core.routing import build_plan
from repro.photonics.constants import NIC_BUFFER_ENTRIES, PAYLOAD_WDM
from repro.util.geometry import Direction, MeshGeometry

MESH = MeshGeometry(8, 8)


class TestConfig:
    def test_defaults_match_table1(self):
        config = PhastlaneConfig()
        assert config.max_hops_per_cycle == 4
        assert config.buffer_entries == 10
        assert NIC_BUFFER_ENTRIES == 50
        assert PAYLOAD_WDM == 64

    def test_labels_match_figure10(self):
        assert PhastlaneConfig().label == "Optical4"
        assert PhastlaneConfig(max_hops_per_cycle=5).label == "Optical5"
        assert PhastlaneConfig(buffer_entries=32).label == "Optical4B32"
        assert PhastlaneConfig(buffer_entries=None).label == "Optical4IB"

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            PhastlaneConfig(max_hops_per_cycle=0)
        with pytest.raises(ValueError):
            PhastlaneConfig(buffer_entries=0)
        with pytest.raises(ValueError):
            PhastlaneConfig(topology="hypercube")


class TestOpticalPacket:
    def make(self, src=0, dst=18):
        return OpticalPacket(
            origin=src, plan=build_plan(MESH, src, dst, 4), generated_cycle=3
        )

    def test_current_and_final_nodes(self):
        packet = self.make()
        assert packet.current_node == 0
        assert packet.final_node == 18

    def test_desired_output_is_first_exit(self):
        assert self.make().desired_output is Direction.EAST
        assert self.make(dst=8).desired_output is Direction.NORTH

    def test_uids_unique(self):
        assert self.make().uid != self.make().uid

    def test_multicast_flag(self):
        packet = self.make()
        assert not packet.is_multicast
        packet.broadcast_id = 7
        assert packet.is_multicast

    def test_trivial_plan_rejected(self):
        with pytest.raises(ValueError):
            OpticalPacket(origin=0, plan=build_plan(MESH, 0, 1, 4)[:1], generated_cycle=0)
