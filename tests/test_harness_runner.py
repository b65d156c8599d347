"""Tests for the experiment runner and sweeps."""

from contextlib import nullcontext
from dataclasses import replace

import pytest

from repro.core.config import PhastlaneConfig
from repro.electrical.config import ElectricalConfig
from repro.fabric.ideal import IdealConfig
from repro.fabric.registry import make_network
from repro.harness.exec import RunSpec, SyntheticWorkload, TraceFileWorkload
from repro.harness.runner import run
from repro.harness.sweeps import saturation_rate, zero_load_latency
from repro.sim.stats import SaturationError
from repro.traffic.trace import Trace, TraceEvent
from repro.util.errors import FabricError
from repro.util.geometry import MeshGeometry
from repro.vectorized.config import VectorizedConfig

from helpers import reference_oracle, sweep_points

MESH = MeshGeometry(4, 4)
OPTICAL = PhastlaneConfig(mesh=MESH, max_hops_per_cycle=4)
ELECTRICAL = ElectricalConfig(mesh=MESH)


def run_trace_file(config, trace, tmp_path, **spec_kwargs):
    """Save an in-memory trace and run it through the spec API."""
    path = tmp_path / f"{trace.name}.trace"
    trace.save(path)
    return run(RunSpec(config, TraceFileWorkload(str(path)), **spec_kwargs))


class TestMakeNetwork:
    def test_dispatch_on_config_type(self):
        from repro.electrical.network import ElectricalNetwork
        from repro.vectorized.network import VectorizedNetwork

        # Every optical config runs on the sparse kernel, the footnote 3
        # alternative included.
        assert type(make_network(OPTICAL)) is VectorizedNetwork
        round_robin = replace(OPTICAL, network_arbitration="round_robin")
        assert type(make_network(round_robin)) is VectorizedNetwork
        assert isinstance(make_network(ELECTRICAL), ElectricalNetwork)

    def test_unknown_config_rejected(self):
        with pytest.raises(FabricError):
            make_network(object())

    def test_labels(self):
        assert OPTICAL.label == "Optical4"
        assert ELECTRICAL.label == "Electrical3"
        assert ElectricalConfig(mesh=MESH, router_delay_cycles=2).label == (
            "Electrical2"
        )


class TestRunTrace:
    def test_both_networks_run_same_trace(self, tmp_path):
        trace = Trace(
            "t", 16, events=[TraceEvent(c, c % 16, (c + 3) % 16) for c in range(50)]
        )
        optical = run_trace_file(OPTICAL, trace, tmp_path)
        electrical = run_trace_file(ELECTRICAL, trace, tmp_path)
        assert optical.stats.packets_delivered == 50
        assert electrical.stats.packets_delivered == 50
        assert optical.mean_latency < electrical.mean_latency

    def test_result_summary_fields(self, tmp_path):
        trace = Trace("t", 16, events=[TraceEvent(0, 0, 5)])
        result = run_trace_file(OPTICAL, trace, tmp_path)
        summary = result.summary()
        assert summary["delivered"] == 1
        assert summary["delivery_ratio"] == 1.0
        assert result.power_w > 0
        assert result.drained

    def test_undrainable_trace_raises(self, tmp_path, monkeypatch):
        # The electrical network needs several cycles per hop; a zero-cycle
        # drain budget cannot complete the delivery.
        monkeypatch.setattr("repro.harness.runner.MAX_DRAIN_CYCLES", 0)
        trace = Trace("t", 16, events=[TraceEvent(0, 0, 5)])
        with pytest.raises(SaturationError, match="within 0 extra cycles"):
            run_trace_file(ELECTRICAL, trace, tmp_path)


class TestRunSynthetic:
    def test_measurement_window_applied(self):
        spec = RunSpec(OPTICAL, SyntheticWorkload("uniform", 0.1), cycles=300)
        result = run(spec)
        assert result.stats.measurement_start == 60  # cycles // 5
        assert result.stats.latency.mean.count > 0

    def test_invalid_cycles_rejected(self):
        with pytest.raises(ValueError):
            RunSpec(OPTICAL, SyntheticWorkload("uniform", 0.1), cycles=0)

    def test_workload_label(self):
        spec = RunSpec(OPTICAL, SyntheticWorkload("transpose", 0.25), cycles=100)
        assert run(spec).workload == "transpose@0.25"


class TestThroughputLaw:
    """Below saturation a network delivers what it is offered: throughput
    is the generated load, less only what is still in flight at the end."""

    @pytest.mark.parametrize(
        "config, oracle",
        [
            pytest.param(OPTICAL, True, id="phastlane"),
            pytest.param(VectorizedConfig(mesh=MESH), False, id="vectorized"),
            pytest.param(ELECTRICAL, False, id="electrical"),
            pytest.param(IdealConfig(mesh=MESH), False, id="ideal"),
        ],
    )
    @pytest.mark.parametrize("pattern", ["uniform", "transpose", "hotspot"])
    def test_throughput_is_the_offered_load(self, config, oracle, pattern):
        with reference_oracle() if oracle else nullcontext():
            for rate in (0.05, 0.1):
                result = run(
                    RunSpec(config, SyntheticWorkload(pattern, rate), cycles=1000)
                )
                stats = result.stats
                offered = stats.packets_generated / (stats.final_cycle * 16)
                assert (
                    0.90 * offered <= result.throughput(16) <= 1.05 * offered
                ), (rate, result.throughput(16), offered)


class TestSweeps:
    def test_latency_increases_with_rate(self):
        points = sweep_points(ELECTRICAL, "transpose", (0.05, 0.4), 500)
        assert points[0].mean_latency < points[-1].mean_latency or points[-1].saturated

    def test_saturated_points_marked(self):
        points = sweep_points(ELECTRICAL, "transpose", (0.05, 0.95), 600)
        assert not points[0].saturated
        assert points[-1].saturated

    def test_saturation_rate_extraction(self):
        points = sweep_points(OPTICAL, "uniform", (0.05, 0.15), 400)
        assert saturation_rate(points) >= 0.15

    def test_zero_load_latency(self):
        points = sweep_points(OPTICAL, "uniform", (0.02,), 400)
        assert zero_load_latency(points) < 5.0
