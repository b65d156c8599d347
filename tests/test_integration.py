"""Cross-network integration and end-to-end property tests.

Both simulators consume identical traces; these tests check the system-level
invariants the paper's comparison rests on: every generated message is
delivered exactly once per destination in both networks, the optical network
is faster at low load, and the electrical network never loses packets.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle.network import PhastlaneNetwork
from repro.core.config import PhastlaneConfig
from repro.electrical.config import ElectricalConfig
from repro.electrical.network import ElectricalNetwork
from repro.traffic.trace import Trace, TraceEvent, TraceSource
from repro.util.geometry import MeshGeometry

from helpers import drain

MESH = MeshGeometry(4, 4)


def random_trace_strategy(num_nodes=16, max_events=25, max_cycle=60):
    event = st.builds(
        TraceEvent,
        cycle=st.integers(0, max_cycle),
        source=st.integers(0, num_nodes - 1),
        destination=st.integers(0, num_nodes - 1) | st.none(),
    )
    return st.lists(event, max_size=max_events).map(
        lambda events: Trace(
            "prop",
            num_nodes,
            events=[
                e for e in events if e.is_broadcast or e.destination != e.source
            ],
        )
    )


def expected_deliveries(trace: Trace) -> int:
    return sum(
        trace.num_nodes - 1 if e.is_broadcast else 1 for e in trace
    )


def run_both(trace: Trace):
    optical = PhastlaneNetwork(
        PhastlaneConfig(mesh=MESH, max_hops_per_cycle=4), TraceSource(trace)
    )
    electrical = ElectricalNetwork(ElectricalConfig(mesh=MESH), TraceSource(trace))
    drain(optical, trace.last_cycle + 1, 50_000)
    drain(electrical, trace.last_cycle + 1, 50_000)
    return optical, electrical


class TestDeliveryEquivalence:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(random_trace_strategy())
    def test_both_networks_deliver_everything_exactly_once(self, trace):
        optical, electrical = run_both(trace)
        expected = expected_deliveries(trace)
        assert optical.stats.packets_delivered == expected
        assert electrical.stats.packets_delivered == expected

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(random_trace_strategy())
    def test_electrical_never_drops(self, trace):
        _, electrical = run_both(trace)
        assert electrical.stats.packets_dropped == 0

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(random_trace_strategy(max_events=10))
    def test_optical_faster_at_light_load(self, trace):
        if len(trace) == 0:
            return
        optical, electrical = run_both(trace)
        assert optical.stats.mean_latency <= electrical.stats.mean_latency


class TestHeadlineShapes:
    """Small-scale versions of the paper's headline comparisons."""

    def make_trace(self, rate=0.05, cycles=400, broadcast_every=0):
        from repro.sim.rng import DeterministicRng
        from repro.traffic.patterns import pattern_by_name

        rng = DeterministicRng(21, "headline")
        pattern = pattern_by_name("uniform", MESH)
        events = []
        for cycle in range(cycles):
            for node in range(MESH.num_nodes):
                if rng.bernoulli(rate):
                    if broadcast_every and rng.bernoulli(1 / broadcast_every):
                        events.append(TraceEvent(cycle, node, None))
                    else:
                        events.append(
                            TraceEvent(cycle, node, pattern.destination(node, rng))
                        )
        return Trace("headline", MESH.num_nodes, events=events)

    def test_optical_latency_advantage_at_low_load(self):
        optical, electrical = run_both(self.make_trace())
        ratio = electrical.stats.mean_latency / optical.stats.mean_latency
        assert ratio > 3.0  # paper: 5-10x on the 8x8 mesh; 4x4 paths shorter

    def test_optical_power_advantage(self):
        optical, electrical = run_both(self.make_trace())
        assert optical.stats.average_power_w(250) < 0.5 * electrical.stats.average_power_w(250)

    def test_broadcasts_preserved_under_mixed_traffic(self):
        trace = self.make_trace(rate=0.03, broadcast_every=10)
        optical, electrical = run_both(trace)
        expected = expected_deliveries(trace)
        assert optical.stats.packets_delivered == expected
        assert electrical.stats.packets_delivered == expected
