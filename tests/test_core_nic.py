"""Tests for the Phastlane NIC."""

import pytest

from oracle.nic import PhastlaneNic
from oracle.router import LOCAL_QUEUE, PhastlaneRouter
from repro.core.config import PhastlaneConfig
from repro.sim.stats import NetworkStats
from repro.util.geometry import MeshGeometry

MESH = MeshGeometry(8, 8)


def make_nic(node=9, **overrides):
    config = PhastlaneConfig(mesh=MESH, **overrides)
    stats = NetworkStats()
    return PhastlaneNic(node, config, stats), PhastlaneRouter(node, config), stats


class TestUnicastGeneration:
    def test_event_becomes_packet(self):
        nic, router, stats = make_nic()
        nic.generate([(9, 12, 0)], 0)
        assert nic.backlog == 1
        assert stats.packets_generated == 1

    def test_wrong_node_event_rejected(self):
        nic, _, _ = make_nic(node=9)
        with pytest.raises(ValueError):
            nic.generate([(3, 12, 0)], 0)

    def test_feed_moves_one_packet_per_cycle(self):
        nic, router, stats = make_nic()
        nic.generate([(9, 12, 0), (9, 13, 0)], 0)
        assert nic.feed_router(router, 0) == 1
        assert len(router.queues[LOCAL_QUEUE]) == 1
        assert stats.packets_injected == 1

    def test_feed_respects_router_capacity(self):
        nic, router, stats = make_nic(buffer_entries=1)
        nic.generate([(9, 12, 0), (9, 13, 0)], 0)
        nic.feed_router(router, 0)
        assert nic.feed_router(router, 1) == 0  # local queue full


class TestBroadcastExpansion:
    def test_broadcast_becomes_multicast_packets(self):
        nic, _, stats = make_nic(node=9)  # interior row
        nic.generate([(9, None, 0)], 0)
        assert nic.backlog == 16
        assert stats.packets_generated == 63  # one per expected delivery
        assert stats.multicast_packets == 1

    def test_edge_row_broadcast_is_eight_packets(self):
        nic, _, _ = make_nic(node=3)  # bottom row
        nic.generate([(3, None, 0)], 0)
        assert nic.backlog == 8

    def test_broadcast_ids_unique_per_broadcast(self):
        nic, _, _ = make_nic(node=9)
        nic.generate([(9, None, 0), (9, None, 0)], 0)
        ids = {p.broadcast_id for p in nic._queue}
        assert len(ids) == 2

    def test_broadcast_ids_unique_across_nodes(self):
        config = PhastlaneConfig(mesh=MESH)
        nics = [PhastlaneNic(n, config, NetworkStats()) for n in (9, 10)]
        for nic in nics:
            nic.generate([(nic.node, None, 0)], 0)
        ids_a = {p.broadcast_id for p in nics[0]._queue}
        ids_b = {p.broadcast_id for p in nics[1]._queue}
        assert not ids_a & ids_b


class TestIdle:
    def test_idle_transitions(self):
        nic, router, _ = make_nic()
        assert nic.idle()
        nic.generate([(9, 12, 0)], 0)
        assert not nic.idle()
        nic.feed_router(router, 0)
        assert nic.idle()
