"""Integration-level tests for the electrical baseline network."""

import pytest

from repro.electrical.config import ElectricalConfig
from repro.electrical.network import ElectricalNetwork
from repro.fabric.ideal import IdealConfig
from repro.fabric.registry import make_network
from repro.sim.engine import SimulationEngine
from repro.topology.registry import topology_of
from repro.traffic.injection import BernoulliInjector
from repro.traffic.patterns import pattern_by_name
from repro.traffic.trace import SyntheticSource, Trace, TraceEvent, TraceSource
from repro.util.geometry import MeshGeometry

from helpers import drain


def run_trace_events(events, mesh=None, config=None, max_extra=20_000):
    mesh = mesh or MeshGeometry(8, 8)
    config = config or ElectricalConfig(mesh=mesh)
    trace = Trace("t", mesh.num_nodes, events=list(events))
    network = ElectricalNetwork(config, TraceSource(trace))
    drain(network, trace.last_cycle + 1, max_extra)
    return network


class TestUnicastDelivery:
    def test_single_packet_delivered(self):
        network = run_trace_events([TraceEvent(0, 0, 63)])
        assert network.stats.packets_delivered == 1
        assert network.stats.delivery_ratio == 1.0

    def test_zero_load_latency_matches_pipeline(self):
        """A lone unicast takes exactly ``router_delay_cycles`` per hop (Table
        2's "total router delay") plus the ejection-bypass cycle plus the
        delivery cycle itself: one cycle, the bypass, above the ideal network
        at the same cycles per hop.  Every ordered pair, mesh and torus."""
        mesh = MeshGeometry(4, 4)

        def lone_latency(config, src, dst):
            trace = Trace("pair", 16, events=[TraceEvent(0, src, dst)])
            network = make_network(config, TraceSource(trace))
            drain(network, 1)
            assert network.stats.latency.mean.count == 1
            return network.stats.latency.mean.max

        for topology in ("mesh", "torus"):
            for delay in (2, 3):
                config = ElectricalConfig(
                    mesh=mesh, topology=topology, router_delay_cycles=delay
                )
                ideal = IdealConfig(mesh=mesh, topology=topology, cycles_per_hop=delay)
                hop_count = topology_of(config).hop_count
                for src in range(16):
                    for dst in set(range(16)) - {src}:
                        assert (
                            lone_latency(config, src, dst)
                            == delay * hop_count(src, dst) + 2
                            == lone_latency(ideal, src, dst) + 1
                        ), (topology, delay, src, dst)

    def test_two_cycle_router_is_faster(self):
        mesh = MeshGeometry(8, 8)
        slow = run_trace_events([TraceEvent(0, 0, 63)])
        fast = run_trace_events(
            [TraceEvent(0, 0, 63)],
            config=ElectricalConfig(mesh=mesh, router_delay_cycles=2),
        )
        assert fast.stats.mean_latency < slow.stats.mean_latency

    def test_adjacent_delivery(self):
        network = run_trace_events([TraceEvent(0, 0, 1)])
        assert network.stats.mean_latency == pytest.approx(3 + 1 + 1, abs=1)

    def test_every_pair_eventually_delivered(self):
        mesh = MeshGeometry(4, 4)
        events = [
            TraceEvent(0, src, dst)
            for src in range(16)
            for dst in range(16)
            if src != dst
        ]
        network = run_trace_events(events, mesh=mesh)
        assert network.stats.packets_delivered == 240

    def test_hop_count_accounting(self):
        network = run_trace_events([TraceEvent(0, 0, 63)])
        assert network.stats.hops_traversed == 14


class TestBroadcast:
    def test_broadcast_reaches_everyone_once(self):
        network = run_trace_events([TraceEvent(0, 10, None)])
        assert network.stats.packets_delivered == 63
        assert network.stats.packets_generated == 63

    def test_vctm_cache_warms(self):
        network = run_trace_events(
            [TraceEvent(0, 5, None), TraceEvent(50, 5, None)]
        )
        assert network.vctm.hits == 1
        assert network.vctm.misses == 1
        assert network.stats.packets_delivered == 126

    def test_multicast_flag_recorded(self):
        network = run_trace_events([TraceEvent(0, 5, None)])
        assert network.stats.multicast_packets == 1


class TestFlowControlInvariants:
    def test_all_credits_restored_after_drain(self):
        mesh = MeshGeometry(4, 4)
        events = [TraceEvent(c, c % 16, (c + 5) % 16) for c in range(200)]
        network = run_trace_events(events, mesh=mesh)
        every_vc = (1 << network.config.num_vcs) - 1
        for router in network.routers:
            assert router.free_vcs == [every_vc] * 4

    def test_no_flit_lost_under_load(self):
        mesh = MeshGeometry(4, 4)
        source = SyntheticSource(
            pattern_by_name("uniform", mesh),
            lambda: BernoulliInjector(0.3),
            seed=5,
            stop_cycle=400,
        )
        network = ElectricalNetwork(ElectricalConfig(mesh=mesh), source)
        drain(network, 400)
        stats = network.stats
        assert stats.packets_delivered == stats.packets_generated
        assert stats.packets_dropped == 0

    def test_saturating_pattern_still_lossless(self):
        mesh = MeshGeometry(4, 4)
        source = SyntheticSource(
            pattern_by_name("transpose", mesh),
            lambda: BernoulliInjector(0.8),
            seed=5,
            stop_cycle=200,
        )
        network = ElectricalNetwork(ElectricalConfig(mesh=mesh), source)
        drain(network, 200, max_extra=50_000)
        assert network.stats.delivery_ratio == 1.0


class TestEnergyAccounting:
    def test_energy_recorded_per_category(self):
        network = run_trace_events([TraceEvent(0, 0, 63)])
        energy = network.stats.energy_pj
        for category in ("buffer_write", "buffer_read", "crossbar", "link", "leakage"):
            assert energy[category] > 0

    def test_leakage_accrues_every_cycle(self):
        mesh = MeshGeometry(4, 4)
        network = ElectricalNetwork(ElectricalConfig(mesh=mesh))
        engine = SimulationEngine()
        engine.register(network)
        engine.run(10)
        leak10 = network.stats.energy_pj["leakage"]
        engine.run(10)
        assert network.stats.energy_pj["leakage"] == pytest.approx(2 * leak10)

    def test_longer_paths_use_more_link_energy(self):
        near = run_trace_events([TraceEvent(0, 0, 1)])
        far = run_trace_events([TraceEvent(0, 0, 63)])
        assert far.stats.energy_pj["link"] > near.stats.energy_pj["link"]


class TestNicBackpressure:
    def test_nic_never_drops(self):
        mesh = MeshGeometry(2, 2)
        # Burst of 100 packets in one cycle from one node: far beyond the
        # 50-entry NIC, absorbed by the generation queue.
        events = [TraceEvent(0, 0, 3) for _ in range(100)]
        trace = Trace("burst", 4, events=events)
        network = ElectricalNetwork(ElectricalConfig(mesh=mesh), TraceSource(trace))
        drain(network, 1)
        assert network.stats.packets_delivered == 100

    def test_injection_serialises_one_per_cycle(self):
        mesh = MeshGeometry(2, 2)
        events = [TraceEvent(0, 0, 3) for _ in range(20)]
        trace = Trace("burst", 4, events=events)
        network = ElectricalNetwork(ElectricalConfig(mesh=mesh), TraceSource(trace))
        engine = drain(network, 1)
        # 20 packets at 1/cycle injection minimum.
        assert engine.cycle >= 20
