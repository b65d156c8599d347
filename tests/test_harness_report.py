"""Tests for JSON experiment reports."""

import json
import math

import pytest

from repro.core.config import PhastlaneConfig
from repro.harness.experiments import fig06
from repro.harness.report import (
    figure_to_dict,
    point_to_dict,
    result_from_dict,
    result_to_dict,
    stats_from_dict,
    stats_to_dict,
    write_report,
)
from repro.harness.exec import RunSpec, TraceFileWorkload
from repro.harness.runner import run
from repro.harness.sweeps import LatencyPoint
from repro.traffic.trace import Trace, TraceEvent
from repro.util.geometry import MeshGeometry


@pytest.fixture
def small_result(tmp_path):
    mesh = MeshGeometry(4, 4)
    trace = Trace("t", 16, events=[TraceEvent(0, 0, 5), TraceEvent(1, 3, 9)])
    path = tmp_path / "t.trace"
    trace.save(path)
    config = PhastlaneConfig(mesh=mesh, max_hops_per_cycle=4)
    return run(RunSpec(config, TraceFileWorkload(str(path))))


class TestStatsSerialisation:
    def test_round_trips_through_json(self, small_result):
        payload = stats_to_dict(small_result.stats)
        text = json.dumps(payload)
        assert json.loads(text)["packets_delivered"] == 2

    def test_latency_summary_present(self, small_result):
        payload = stats_to_dict(small_result.stats)
        assert payload["latency"]["count"] == 2
        assert payload["latency"]["mean"] >= 1.0

    def test_empty_stats_have_null_latency(self):
        from repro.sim.stats import NetworkStats

        payload = stats_to_dict(NetworkStats())
        assert payload["latency"]["mean"] is None


class TestResultSerialisation:
    def test_result_fields(self, small_result):
        payload = result_to_dict(small_result)
        assert payload["label"] == "Optical4"
        assert payload["drained"] is True
        assert payload["stats"]["delivery_ratio"] == 1.0

    def test_wall_time_excluded(self, small_result):
        # Timings belong to the campaign manifest; result payloads must be
        # deterministic so cached reruns serialise byte-identically.
        assert "wall_time_s" not in result_to_dict(small_result)


class TestRoundTrips:
    def test_stats_round_trip_losslessly(self, small_result):
        restored = stats_from_dict(stats_to_dict(small_result.stats))
        assert restored == small_result.stats
        assert stats_to_dict(restored) == stats_to_dict(small_result.stats)

    def test_empty_stats_round_trip(self):
        from repro.sim.stats import NetworkStats

        stats = NetworkStats(measurement_start=10)
        assert stats_from_dict(stats_to_dict(stats)) == stats

    def test_result_round_trip(self, small_result):
        restored = result_from_dict(result_to_dict(small_result))
        assert restored == small_result
        assert restored.stats.latency.histogram.items() == (
            small_result.stats.latency.histogram.items()
        )

    def test_result_round_trip_through_file(self, tmp_path, small_result):
        path = write_report(tmp_path / "r.json", result_to_dict(small_result))
        assert result_from_dict(json.loads(path.read_text())) == small_result

    def test_latency_point_round_trip(self):
        point = LatencyPoint(rate=0.1, mean_latency=4.25, throughput=0.09, delivered=120)
        assert json.loads(json.dumps(point_to_dict(point))) == {
            "rate": 0.1, "mean_latency": 4.25, "throughput": 0.09, "delivered": 120,
        }

    def test_saturated_point_round_trips_through_null(self):
        point = LatencyPoint(
            rate=0.5, mean_latency=float("inf"), throughput=0.2, delivered=300
        )
        payload = json.loads(json.dumps(point_to_dict(point)))
        assert payload == {
            "rate": 0.5, "mean_latency": None, "throughput": 0.2, "delivered": 300,
        }
        assert point.saturated


class TestFigureSerialisation:
    def test_fig06_serialises(self):
        payload = figure_to_dict(fig06.compute())
        assert payload["hops"]["average"]["64"] == 5

    def test_non_dataclass_rejected(self):
        with pytest.raises(TypeError):
            figure_to_dict({"not": "a dataclass"})

    def test_infinities_become_null(self):
        from repro.harness.report import _jsonify

        assert _jsonify({"x": math.inf}) == {"x": None}


class TestFileRoundTrip:
    def test_write_and_load(self, tmp_path, small_result):
        path = write_report(
            tmp_path / "reports" / "run.json", result_to_dict(small_result)
        )
        loaded = json.loads(path.read_text())
        assert loaded["workload"] == "t"
        assert loaded["stats"]["packets_delivered"] == 2

    def test_directories_created(self, tmp_path):
        path = write_report(tmp_path / "a" / "b" / "c.json", {"k": 1})
        assert path.exists()
