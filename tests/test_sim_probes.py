"""Tests for the mesh instrumentation probes."""

import pytest

from repro.core import PhastlaneConfig, PhastlaneNetwork
from repro.electrical import ElectricalConfig, ElectricalNetwork
from repro.sim.probes import (
    MeshProbe,
    attach_probe,
    render_heatmap,
)
from repro.traffic.trace import Trace, TraceEvent, TraceSource
from repro.util.geometry import MeshGeometry

from helpers import drain

MESH = MeshGeometry(8, 8)


class TestMeshProbe:
    def test_counters_accumulate(self):
        probe = MeshProbe(MeshGeometry(2, 2))
        probe.record_drop(1)
        probe.record_drop(1)
        probe.record_delivery(3)
        assert probe.drops[1] == 2
        assert probe.deliveries[3] == 1

    def test_mean_occupancy(self):
        probe = MeshProbe(MeshGeometry(2, 2))
        probe.sample_occupancy({0: 4, 1: 0})
        probe.sample_occupancy({0: 2, 1: 0})
        assert probe.mean_occupancy(0) == 3.0
        assert probe.mean_occupancy(1) == 0.0

    def test_out_of_mesh_node_rejected(self):
        probe = MeshProbe(MeshGeometry(2, 2))
        with pytest.raises(ValueError):
            probe.record_drop(4)

    def test_heatmap_renders_mesh_shape(self):
        probe = MeshProbe(MeshGeometry(4, 3))
        probe.record_drop(0)
        text = probe.heatmap("drops")
        lines = text.splitlines()
        assert len(lines) == 4  # title + 3 rows
        assert all(len(line) == 4 for line in lines[1:])

    def test_heatmap_peak_marks_hottest_cell(self):
        probe = MeshProbe(MeshGeometry(2, 2))
        for _ in range(10):
            probe.record_drop(3)  # (1, 1): top row, right column
        probe.record_drop(0)
        lines = probe.heatmap("drops").splitlines()
        assert lines[1][1] == "@"  # node 3 printed top-right

    def test_empty_heatmap(self):
        probe = MeshProbe(MeshGeometry(2, 2))
        assert "peak=0" in probe.heatmap("drops")

    def test_hottest_nodes(self):
        probe = MeshProbe(MeshGeometry(2, 2))
        probe.record_delivery(2)
        probe.record_delivery(2)
        probe.record_delivery(1)
        assert probe.hottest_nodes("deliveries", top=1) == [2]

    @pytest.mark.parametrize("bad_name", ["samples", "mesh", "latency", "_check"])
    def test_unknown_counter_rejected(self, bad_name):
        probe = MeshProbe(MeshGeometry(2, 2))
        with pytest.raises(ValueError, match="unknown probe counter"):
            probe.heatmap(bad_name)
        with pytest.raises(ValueError, match="unknown probe counter"):
            probe.hottest_nodes(bad_name)

    def test_occupancy_sum_addressable_by_name(self):
        probe = MeshProbe(MeshGeometry(2, 2))
        probe.sample_occupancy({0: 4, 1: 1})
        assert probe.hottest_nodes("occupancy_sum", top=1) == [0]
        assert "occupancy_sum heatmap" in probe.heatmap("occupancy_sum")


class TestRenderHeatmap:
    def test_mapping_and_dense_sequence_agree(self):
        mesh = MeshGeometry(2, 2)
        as_mapping = render_heatmap({3: 10, 0: 1}, mesh, title="t")
        as_sequence = render_heatmap([1.0, 0.0, 0.0, 10.0], mesh, title="t")
        assert as_mapping == as_sequence
        assert as_mapping.splitlines()[1][1] == "@"  # node 3 top-right

    def test_dense_sequence_length_validated(self):
        with pytest.raises(ValueError, match="4 per-node values"):
            render_heatmap([1.0, 2.0], MeshGeometry(2, 2))

    def test_default_title_carries_peak(self):
        text = render_heatmap([0.0, 0.0, 0.0, 2.5], MeshGeometry(2, 2))
        assert text.splitlines()[0] == "heatmap (2x2 mesh), peak=2.5"

    def test_probe_heatmap_is_a_render_heatmap_wrapper(self):
        probe = MeshProbe(MeshGeometry(2, 2))
        probe.record_drop(3)
        probe.record_drop(0)
        expected = render_heatmap(
            probe.drops, probe.mesh, title="drops heatmap (2x2 mesh), peak=1"
        )
        assert probe.heatmap("drops") == expected


class TestPhastlaneAttachment:
    def test_probe_counts_match_stats(self):
        config = PhastlaneConfig(mesh=MESH, max_hops_per_cycle=4, buffer_entries=1)
        events = [
            TraceEvent(0, 18, 34),
            TraceEvent(0, 17, 26),
            TraceEvent(0, 16, 26),
            TraceEvent(10, 27, None),
        ]
        trace = Trace("t", 64, events=events)
        network = PhastlaneNetwork(config, TraceSource(trace))
        probe = attach_probe(network)
        drain(network, 11)

        assert sum(probe.drops.values()) == network.stats.packets_dropped
        # Every delivery — the 63 broadcast taps plus the unicasts — is
        # attributed per node and matches the ledger exactly.
        assert sum(probe.deliveries.values()) == network.stats.packets_delivered
        assert sum(probe.deliveries.values()) >= 63
        assert probe.samples > 0

    def test_drop_location_is_the_blocking_router(self):
        config = PhastlaneConfig(mesh=MESH, max_hops_per_cycle=4, buffer_entries=1)
        events = [
            TraceEvent(0, 18, 34),
            TraceEvent(0, 17, 26),
            TraceEvent(0, 16, 26),
        ]
        network = PhastlaneNetwork(config, TraceSource(Trace("t", 64, events=events)))
        probe = attach_probe(network)
        drain(network, 1)
        assert set(probe.drops) <= {17, 18}
        assert sum(probe.drops.values()) >= 1


class TestElectricalAttachment:
    def test_probe_works_on_electrical_baseline(self):
        events = [
            TraceEvent(0, 18, 34),
            TraceEvent(0, 17, 26),
            TraceEvent(10, 27, None),
        ]
        trace = Trace("t", 64, events=events)
        network = ElectricalNetwork(ElectricalConfig(mesh=MESH), TraceSource(trace))
        probe = attach_probe(network)
        drain(network, 11)

        # The electrical baseline never drops; every unicast delivery (and
        # each of the 63 broadcast ejections) lands on the probe.
        assert sum(probe.drops.values()) == 0
        assert sum(probe.deliveries.values()) == network.stats.packets_delivered
        # Node 34 receives its unicast plus one broadcast ejection.
        assert probe.deliveries[34] == 2
        assert probe.samples > 0
        assert sum(probe.occupancy_sum.values()) > 0
