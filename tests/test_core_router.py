"""Unit tests for the Phastlane router's electrical side."""

import pytest

from oracle.packet import OpticalPacket
from oracle.router import LOCAL_QUEUE, PhastlaneRouter
from repro.core.config import BACKOFF_CAP_LOG2, RETRY_PENALTY_CYCLES, PhastlaneConfig
from repro.core.routing import build_plan
from repro.util.geometry import Direction, MeshGeometry

MESH = MeshGeometry(8, 8)


def make_packet(src=0, dst=3, max_hops=4):
    return OpticalPacket(
        origin=src, plan=build_plan(MESH, src, dst, max_hops), generated_cycle=0
    )


def make_router(node=0, **overrides):
    config = PhastlaneConfig(mesh=MESH, **overrides)
    return PhastlaneRouter(node, config)


class TestBuffering:
    def test_capacity_enforced(self):
        router = make_router(buffer_entries=2)
        router.enqueue(LOCAL_QUEUE, make_packet())
        router.enqueue(LOCAL_QUEUE, make_packet())
        assert not router.has_space(LOCAL_QUEUE)
        with pytest.raises(RuntimeError):
            router.enqueue(LOCAL_QUEUE, make_packet())

    def test_infinite_buffers(self):
        router = make_router(buffer_entries=None)
        for _ in range(200):
            router.enqueue(LOCAL_QUEUE, make_packet())
        assert router.has_space(LOCAL_QUEUE)

    def test_pending_holds_buffer_slot(self):
        router = make_router(buffer_entries=1)
        router.enqueue(LOCAL_QUEUE, make_packet())
        assert router.select_transmissions(0)
        # The packet left the queue but its slot is held pending the drop
        # window, so the queue is still "full".
        assert not router.has_space(LOCAL_QUEUE)

    def test_misrouted_packet_rejected(self):
        router = make_router(node=5)
        with pytest.raises(ValueError):
            router.enqueue(LOCAL_QUEUE, make_packet(src=0))

    def test_bad_queue_id_rejected(self):
        router = make_router()
        with pytest.raises(ValueError):
            router.enqueue(9, make_packet())


class TestArbitration:
    def test_selects_head_toward_free_output(self):
        router = make_router()
        packet = make_packet(0, 3)  # wants EAST
        router.enqueue(LOCAL_QUEUE, packet)
        selected = router.select_transmissions(0)
        assert selected == [(LOCAL_QUEUE, packet)]

    def test_one_packet_per_output_port(self):
        router = make_router()
        a, b = make_packet(0, 3), make_packet(0, 5)  # both want EAST
        router.enqueue(LOCAL_QUEUE, a)
        router.enqueue(int(Direction.WEST), _reroute(b, 0))
        selected = router.select_transmissions(0)
        assert len(selected) == 1

    def test_different_outputs_both_selected(self):
        router = make_router(node=9)
        east = OpticalPacket(origin=9, plan=build_plan(MESH, 9, 11, 4), generated_cycle=0)
        north = OpticalPacket(origin=9, plan=build_plan(MESH, 9, 25, 4), generated_cycle=0)
        router.enqueue(LOCAL_QUEUE, east)
        router.enqueue(int(Direction.NORTH), north)
        assert len(router.select_transmissions(0)) == 2

    def test_backoff_respected(self):
        router = make_router()
        router.enqueue(LOCAL_QUEUE, make_packet(), eligible_cycle=10)
        assert router.select_transmissions(5) == []
        assert router.select_transmissions(10)

    def test_rotating_pointer_moves(self):
        router = make_router()
        before = router._arbiter_pointer
        router.select_transmissions(0)
        assert router._arbiter_pointer != before or True  # pointer advanced
        assert router._arbiter_pointer == (before + 1) % 5


class TestBackoff:
    def test_exponential_growth(self):
        router = make_router()
        penalty = RETRY_PENALTY_CYCLES
        first = [router.backoff_cycles(1) for _ in range(50)]
        fifth = [router.backoff_cycles(5) for _ in range(50)]
        assert min(first) >= penalty
        assert max(first) < 2 * penalty
        assert min(fifth) >= penalty * 16

    def test_cap_applies(self):
        router = make_router()
        capped = RETRY_PENALTY_CYCLES << BACKOFF_CAP_LOG2
        for attempts in (BACKOFF_CAP_LOG2 + 1, 50):
            waits = {router.backoff_cycles(attempts) for _ in range(50)}
            assert waits == set(range(capped, capped + RETRY_PENALTY_CYCLES))

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            make_router().backoff_cycles(0)


class TestPendingResolution:
    def test_confirmed_transmission_frees_slot(self):
        router = make_router(buffer_entries=1)
        router.enqueue(LOCAL_QUEUE, make_packet())
        router.select_transmissions(0)
        retries = router.resolve_pending(1, dropped={})
        assert retries == []
        assert router.has_space(LOCAL_QUEUE)
        assert not router.busy

    def test_dropped_transmission_requeues_with_backoff(self):
        router = make_router()
        packet = make_packet()
        router.enqueue(LOCAL_QUEUE, packet)
        router.select_transmissions(0)
        retries = router.resolve_pending(1, dropped={packet.uid: 2})
        assert retries == [(packet, 2)]
        assert packet.attempts == 1
        assert router.queues[LOCAL_QUEUE][0].packet is packet
        assert router.queues[LOCAL_QUEUE][0].eligible_cycle > 1

    def test_same_cycle_pending_not_resolved(self):
        router = make_router()
        packet = make_packet()
        router.enqueue(LOCAL_QUEUE, packet)
        router.select_transmissions(5)
        router.resolve_pending(5, dropped={})
        assert router.pending  # still awaiting next cycle's drop window


def _reroute(packet: OpticalPacket, node: int) -> OpticalPacket:
    """Rebuild a packet as if ``node`` were now responsible for it."""
    packet.plan = build_plan(MESH, node, packet.final_node, 4)
    return packet
