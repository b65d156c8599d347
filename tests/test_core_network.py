"""Behavioural tests for the Phastlane optical network simulator.

These tests construct precise contention scenarios to check the paper's
arbitration rules: same-cycle multi-hop transit, straight-beats-turn
priority, buffered-packet priority, blocking into input buffers, drops with
next-cycle drop signals, retransmission, interim-node pipelining and
multicast taps.
"""

import pytest

from oracle.network import PhastlaneNetwork
from repro.core.config import RETRY_PENALTY_CYCLES, PhastlaneConfig
from repro.fabric.registry import make_network
from repro.obs.tracers import CollectingTracer
from repro.sim.engine import SimulationEngine
from repro.topology.registry import topology_of
from repro.traffic.coherence import MessageKind
from repro.traffic.injection import BernoulliInjector
from repro.traffic.patterns import pattern_by_name
from repro.traffic.trace import SyntheticSource, Trace, TraceEvent, TraceSource
from repro.util.geometry import MeshGeometry
from repro.vectorized.network import VectorizedNetwork

from helpers import drain

MESH = MeshGeometry(8, 8)


def run_events(events, config=None, max_extra=20_000):
    config = config or PhastlaneConfig(mesh=MESH, max_hops_per_cycle=4)
    trace = Trace("t", config.mesh.num_nodes, events=list(events))
    network = PhastlaneNetwork(config, TraceSource(trace))
    engine = drain(network, trace.last_cycle + 1, max_extra)
    return network, engine


def dispatched(config, source):
    """What the registry builds for a config on the paper's design point."""
    network = make_network(config, source)
    assert type(network) is VectorizedNetwork
    return network


#: The two engines of such a config: the sparse kernel it is dispatched to,
#: and this module's subject, the reference that kernel is proven against.
ENGINES = [dispatched, PhastlaneNetwork]


class TestZeroLoadLaw:
    """Contention-free Phastlane latency is a closed form (the optical side
    of the analytic-bound law; the electrical side is
    ``test_electrical_network.py::test_zero_load_latency_matches_pipeline``)."""

    @pytest.mark.parametrize("engine", ENGINES, ids=lambda engine: engine.__name__)
    @pytest.mark.parametrize("topology", ["mesh", "torus"])
    def test_lone_unicast_takes_one_cycle_per_optical_segment(self, engine, topology):
        """Every ordered pair of a 4x4 grid: ``ceil(hops / max_hops)``, the
        delivery cycle counted (section 2.1.3: one cycle per segment of at
        most ``max_hops_per_cycle`` routers)."""
        mesh = MeshGeometry(4, 4)
        for max_hops in (1, 2, 4, 5):
            config = PhastlaneConfig(
                mesh=mesh, topology=topology, max_hops_per_cycle=max_hops
            )
            hop_count = topology_of(config).hop_count
            for src in mesh.nodes():
                for dst in set(mesh.nodes()) - {src}:
                    trace = Trace("pair", 16, events=[TraceEvent(0, src, dst)])
                    network = engine(config, TraceSource(trace))
                    drain(network, 1)
                    latency = network.stats.latency.mean
                    assert latency.count == 1
                    assert latency.max == -(-hop_count(src, dst) // max_hops), (
                        max_hops, src, dst,
                    )

    @pytest.mark.parametrize("engine", ENGINES, ids=lambda engine: engine.__name__)
    @pytest.mark.parametrize("topology", ["mesh", "torus"])
    def test_lone_broadcast_reaches_every_other_node_exactly_once(
        self, engine, topology
    ):
        mesh = MeshGeometry(4, 4)
        for max_hops in (1, 2, 4, 5):
            config = PhastlaneConfig(
                mesh=mesh, topology=topology, max_hops_per_cycle=max_hops
            )
            for src in mesh.nodes():
                trace = Trace("bcast", 16, events=[TraceEvent(0, src, None)])
                network = engine(config, TraceSource(trace))
                tracer = CollectingTracer()
                network.add_tracer(tracer)
                drain(network, 1)
                stats = network.stats
                assert stats.multicast_packets == 1
                assert stats.packets_delivered == stats.packets_generated == 15
                assert stats.packets_dropped == 0
                served = sorted(e.node for e in tracer.by_kind("delivered"))
                assert served == sorted(set(mesh.nodes()) - {src}), (max_hops, src)


class TestSingleCycleTransit:
    def test_adjacent_delivery_same_cycle(self):
        network, _ = run_events([TraceEvent(0, 0, 1)])
        assert network.stats.mean_latency == 1.0

    def test_max_hops_delivered_in_one_cycle(self):
        # 4 hops fit one cycle at the four-hop configuration.
        network, _ = run_events([TraceEvent(0, 0, 4)])
        assert network.stats.mean_latency == 1.0

    def test_turning_path_same_cycle(self):
        # 0 -> (2, 2) = 18: two east, two north, still 4 hops, one cycle.
        network, _ = run_events([TraceEvent(0, 0, 18)])
        assert network.stats.mean_latency == 1.0

    def test_longer_path_pipelines_through_interims(self):
        # 14 hops at 4 hops/cycle: 4 optical segments, one cycle each.
        network, _ = run_events([TraceEvent(0, 0, 63)])
        assert network.stats.mean_latency == pytest.approx(4.0)
        assert network.stats.packets_dropped == 0

    def test_eight_hop_network_needs_fewer_segments(self):
        fast = PhastlaneConfig(mesh=MESH, max_hops_per_cycle=8)
        network, _ = run_events([TraceEvent(0, 0, 63)], config=fast)
        assert network.stats.mean_latency == pytest.approx(2.0)

    def test_hops_accounted(self):
        network, _ = run_events([TraceEvent(0, 0, 4)])
        assert network.stats.hops_traversed == 4


class TestFixedPriorityArbitration:
    def test_straight_beats_turn(self):
        # A: node 2 straight north to 26; B: node 16 east-then-north to 26's
        # column neighbour; both want the N output of node 18 in the same
        # wave.  A (straight) wins; B is blocked, buffered and retried.
        events = [
            TraceEvent(0, 2, 34),  # straight north through 18
            TraceEvent(0, 16, 26),  # turns north at 18
        ]
        network, _ = run_events(events)
        stats = network.stats
        assert stats.packets_delivered == 2
        assert stats.packets_dropped == 0
        # One packet took an extra cycle after being buffered.
        assert stats.latency.mean.max == 2
        assert stats.latency.mean.min == 1

    def test_no_contention_when_staggered(self):
        events = [
            TraceEvent(0, 2, 34),
            TraceEvent(2, 16, 26),
        ]
        network, _ = run_events(events)
        assert network.stats.latency.mean.max == 1

    def test_buffered_packet_blocks_newly_arriving(self):
        # Node 18's own (buffered) launch claims N; the straight packet
        # arriving from node 2 in the same cycle is blocked.
        events = [
            TraceEvent(0, 18, 34),  # local launch north
            TraceEvent(0, 2, 34),  # straight through 18, blocked
        ]
        network, _ = run_events(events)
        stats = network.stats
        assert stats.packets_delivered == 2
        assert stats.latency.mean.max == 2

    def test_left_and_right_turns_to_different_queues(self):
        # Three packets converge on node 18's N port in the same wave:
        # straight wins, the two turners are buffered at different input
        # ports (E and W), so nothing drops even with 1-entry buffers.
        config = PhastlaneConfig(mesh=MESH, max_hops_per_cycle=4, buffer_entries=1)
        events = [
            TraceEvent(0, 2, 34),
            TraceEvent(0, 16, 26),
            TraceEvent(0, 20, 26),
        ]
        network, _ = run_events(events, config=config)
        assert network.stats.packets_dropped == 0
        assert network.stats.packets_delivered == 3


class TestDropAndRetransmit:
    def drop_scenario_config(self):
        return PhastlaneConfig(mesh=MESH, max_hops_per_cycle=4, buffer_entries=1)

    def drop_scenario_events(self):
        # Node 18 launches north (claims the port all cycle).  P1 from 17
        # arrives first (wave 1), is blocked into the single E-input slot.
        # P2 from 16 arrives next wave, also blocked, buffer full -> drop.
        return [
            TraceEvent(0, 18, 34),
            TraceEvent(0, 17, 26),
            TraceEvent(0, 16, 26),
        ]

    def test_drop_occurs_when_buffer_full(self):
        network, _ = run_events(
            self.drop_scenario_events(), config=self.drop_scenario_config()
        )
        assert network.stats.packets_dropped >= 1
        assert network.stats.retransmissions >= 1

    def test_dropped_packet_eventually_delivered(self):
        network, _ = run_events(
            self.drop_scenario_events(), config=self.drop_scenario_config()
        )
        assert network.stats.packets_delivered == 3
        assert network.stats.delivery_ratio == 1.0

    def test_drop_signal_arrives_next_cycle(self):
        config = self.drop_scenario_config()
        trace = Trace("t", 64, events=self.drop_scenario_events())
        network = PhastlaneNetwork(config, TraceSource(trace))
        engine = SimulationEngine()
        engine.register(network)
        # Run until the congestion produces a drop (cycle 1 in this layout).
        assert engine.run_until(lambda: bool(network._drop_signals), 10)
        dropped_uid = next(iter(network._drop_signals))
        engine.tick()  # next cycle: the transmitter learns and requeues
        assert dropped_uid not in network._drop_signals
        retried = [
            entry.packet
            for router in network.routers
            for queue in router.queues
            for entry in queue
        ]
        assert any(p.uid == dropped_uid for p in retried)

    def test_backoff_delays_redelivery(self):
        network, engine = run_events(
            self.drop_scenario_events(), config=self.drop_scenario_config()
        )
        # The dropped packet waits out the retry penalty before resending.
        assert network.stats.latency.mean.max >= 1 + RETRY_PENALTY_CYCLES

    def test_infinite_buffers_never_drop(self):
        config = PhastlaneConfig(mesh=MESH, max_hops_per_cycle=4, buffer_entries=None)
        source = SyntheticSource(
            pattern_by_name("transpose", MESH),
            lambda: BernoulliInjector(0.4),
            seed=3,
            stop_cycle=300,
        )
        network = PhastlaneNetwork(config, source)
        drain(network, 300, 50_000)
        assert network.stats.packets_dropped == 0
        assert network.stats.delivery_ratio == 1.0


class TestMulticast:
    def test_broadcast_reaches_all_nodes(self):
        network, _ = run_events([TraceEvent(0, 27, None, MessageKind.MISS_REQUEST)])
        assert network.stats.packets_delivered == 63
        assert network.stats.delivery_ratio == 1.0

    def test_broadcast_from_corner(self):
        network, _ = run_events([TraceEvent(0, 0, None, MessageKind.MISS_REQUEST)])
        assert network.stats.packets_delivered == 63

    def test_duplicate_taps_deduplicated(self):
        # Row nodes are tapped by both the north and south column packets;
        # deliveries must still be exactly 63.
        network, _ = run_events([TraceEvent(0, 35, None, MessageKind.INVALIDATE)])
        assert network.stats.packets_delivered == 63

    def test_two_broadcasts_do_not_alias(self):
        events = [
            TraceEvent(0, 27, None, MessageKind.MISS_REQUEST),
            TraceEvent(40, 27, None, MessageKind.MISS_REQUEST),
        ]
        network, _ = run_events(events)
        assert network.stats.packets_delivered == 126

    def test_unicast_dedup_not_applied(self):
        # Two identical unicasts are distinct packets: both delivered.
        events = [TraceEvent(0, 0, 5), TraceEvent(0, 0, 5)]
        network, _ = run_events(events)
        assert network.stats.packets_delivered == 2


class TestEnergyAccounting:
    def test_categories_present(self):
        network, _ = run_events([TraceEvent(0, 0, 63)])
        energy = network.stats.energy_pj
        for category in ("modulator", "laser", "receiver", "buffer_read", "static"):
            assert energy[category] > 0, category

    def test_multicast_charges_taps(self):
        unicast, _ = run_events([TraceEvent(0, 27, 28)])
        broadcast, _ = run_events([TraceEvent(0, 27, None)])
        assert (
            broadcast.stats.energy_pj["receiver"]
            > 20 * unicast.stats.energy_pj["receiver"]
        )

    def test_static_power_accrues_when_idle(self):
        network = PhastlaneNetwork(PhastlaneConfig(mesh=MESH))
        engine = SimulationEngine()
        engine.register(network)
        engine.run(10)
        assert network.stats.energy_pj["static"] > 0
        assert network.stats.total_energy_pj == network.stats.energy_pj["static"]

    def test_drop_signal_energy_charged(self):
        config = PhastlaneConfig(mesh=MESH, max_hops_per_cycle=4, buffer_entries=1)
        events = [
            TraceEvent(0, 18, 34),
            TraceEvent(0, 17, 26),
            TraceEvent(0, 16, 26),
        ]
        network, _ = run_events(events, config=config)
        assert network.stats.energy_pj["drop_network"] > 0


class TestLoadBehaviour:
    def test_uniform_load_drains_losslessly(self):
        source = SyntheticSource(
            pattern_by_name("uniform", MESH),
            lambda: BernoulliInjector(0.15),
            seed=8,
            stop_cycle=400,
        )
        network = PhastlaneNetwork(
            PhastlaneConfig(mesh=MESH, max_hops_per_cycle=4), source
        )
        drain(network, 400)
        stats = network.stats
        assert stats.delivery_ratio == 1.0
        assert stats.mean_latency < 5.0

    def test_more_buffers_never_hurt(self):
        def run(buffers):
            source = SyntheticSource(
                pattern_by_name("transpose", MESH),
                lambda: BernoulliInjector(0.45),
                seed=8,
                stop_cycle=400,
            )
            network = PhastlaneNetwork(
                PhastlaneConfig(
                    mesh=MESH, max_hops_per_cycle=4, buffer_entries=buffers
                ),
                source,
            )
            drain(network, 400, 100_000)
            return network.stats

        small, large = run(2), run(64)
        assert large.packets_dropped <= small.packets_dropped
        assert large.mean_latency <= small.mean_latency * 1.05

    def test_deterministic_given_seed(self):
        def run():
            source = SyntheticSource(
                pattern_by_name("uniform", MESH),
                lambda: BernoulliInjector(0.2),
                seed=13,
                stop_cycle=200,
            )
            network = PhastlaneNetwork(
                PhastlaneConfig(mesh=MESH, max_hops_per_cycle=4), source
            )
            drain(network, 200)
            return network.stats

        a, b = run(), run()
        assert a.packets_delivered == b.packets_delivered
        assert a.mean_latency == b.mean_latency
        assert a.total_energy_pj == b.total_energy_pj
