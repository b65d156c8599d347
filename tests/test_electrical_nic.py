"""Tests for the electrical NIC."""

import pytest

from repro.electrical.config import ElectricalConfig
from repro.electrical.nic import VCTM_SETUP_CYCLES, ElectricalNic
from repro.electrical.vctm import VirtualCircuitTreeCache
from repro.sim.stats import NetworkStats
from repro.util.geometry import MeshGeometry


def make_nic(node=5):
    config = ElectricalConfig(mesh=MeshGeometry(8, 8))
    stats = NetworkStats()
    return ElectricalNic(node, config, stats, VirtualCircuitTreeCache()), stats


class TestGeneration:
    def test_unicast_becomes_single_flit(self):
        nic, stats = make_nic()
        nic.generate([(5, 9, 0)], 0)
        assert nic.backlog == 1
        assert stats.packets_generated == 1

    def test_broadcast_is_one_flit_many_destinations(self):
        nic, stats = make_nic()
        nic.generate([(5, None, 0)], 0)
        flit = nic.next_injectable(VCTM_SETUP_CYCLES)
        assert flit is not None
        assert len(flit.destinations) == 63
        assert stats.packets_generated == 63  # one per expected delivery
        assert stats.multicast_packets == 1

    def test_wrong_node_rejected(self):
        nic, _ = make_nic(node=5)
        with pytest.raises(ValueError):
            nic.generate([(4, 9, 0)], 0)


class TestVctmSetupDelay:
    def test_cold_tree_delays_injection(self):
        nic, _ = make_nic()
        nic.generate([(5, None, 0)], 0)
        assert nic.next_injectable(0) is None
        assert nic.next_injectable(VCTM_SETUP_CYCLES) is not None

    def test_warm_tree_injects_immediately(self):
        nic, _ = make_nic()
        nic.generate([(5, None, 0)], 0)
        nic.consume_head(VCTM_SETUP_CYCLES)
        nic.generate([(5, None, 20)], 20)
        assert nic.next_injectable(20) is not None

    def test_unicast_never_delayed(self):
        nic, _ = make_nic()
        nic.generate([(5, 9, 0)], 0)
        assert nic.next_injectable(0) is not None


class TestBufferLimits:
    def test_consume_empty_rejected(self):
        nic, _ = make_nic()
        with pytest.raises(RuntimeError):
            nic.consume_head(0)

    def test_consume_records_injection(self):
        nic, stats = make_nic()
        nic.generate([(5, 9, 3)], 3)
        flit = nic.consume_head(7)
        assert flit.injected_cycle == 7
        assert stats.packets_injected == 1

    def test_idle_transitions(self):
        nic, _ = make_nic()
        assert nic.idle()
        nic.generate([(5, 9, 0)], 0)
        assert not nic.idle()
        nic.consume_head(0)
        assert nic.idle()
