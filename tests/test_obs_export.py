"""Tests for live JSONL streaming of windows and health findings."""

from repro.core.config import PhastlaneConfig
from repro.harness.exec import RunSpec, SyntheticWorkload
from repro.harness.runner import run
from repro.obs.config import ObsConfig
from repro.obs.export import read_stream
from repro.util.geometry import MeshGeometry

MESH = MeshGeometry(4, 4)
OPTICAL = PhastlaneConfig(mesh=MESH, max_hops_per_cycle=4)


def spec(obs=None, rate=0.15):
    return RunSpec(
        OPTICAL, SyntheticWorkload("uniform", rate), cycles=300, seed=7, obs=obs
    )


class TestLiveStream:
    def test_run_streams_windows_and_end_record(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        obs = ObsConfig(metrics_interval=100, stream_path=str(path))
        result = run(spec(obs=obs))
        records = read_stream(path)
        windows = [r for r in records if r["event"] == "window"]
        assert len(windows) == len(result.timeseries.windows)
        assert [w["end"] for w in windows] == [100, 200, 300]
        assert sum(w["delivered"] for w in windows) == sum(
            w.delivered for w in result.timeseries.windows
        )
        assert records[-1]["event"] == "end"
        assert records[-1]["final_cycle"] == 300

    def test_stream_includes_spatial_slices_when_enabled(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        obs = ObsConfig(metrics_interval=100, spatial=True, stream_path=str(path))
        run(spec(obs=obs))
        windows = [r for r in read_stream(path) if r["event"] == "window"]
        assert all(len(w["spatial"]["occupancy"]) == MESH.num_nodes for w in windows)

    def test_stream_carries_health_status_in_end_record(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        obs = ObsConfig(metrics_interval=100, health=True, stream_path=str(path))
        run(spec(obs=obs))
        records = read_stream(path)
        assert records[-1]["health"] == "ok"
        assert all(r["event"] != "health" for r in records)  # no findings

    def test_streamed_run_is_not_perturbed(self, tmp_path):
        obs = ObsConfig(
            metrics_interval=100, stream_path=str(tmp_path / "s.jsonl")
        )
        assert run(spec(obs=obs)) == run(spec())
