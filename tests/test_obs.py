"""Unit tests for the observability layer: events, tracers, config, series."""

import json

import pytest

from helpers import percentile
from repro.obs.config import ObsConfig
from repro.obs.events import EVENT_KINDS, PacketEvent, TraceHub
from repro.obs.session import ObsSession
from repro.obs.timeseries import SpatialSeries, TimeSeries, Window
from repro.obs.tracers import (
    TRACE_SCHEMA,
    ChromeTraceWriter,
    CollectingTracer,
    JsonlTraceWriter,
    sampled,
)
from repro.sim.engine import SimulationEngine
from repro.sim.stats import Histogram, NetworkStats, nearest_rank


class TestTraceHub:
    def test_empty_hub_is_falsy(self):
        hub = TraceHub()
        assert not hub
        hub.add(CollectingTracer())
        assert hub

    def test_emit_fans_out_to_every_tracer(self):
        hub = TraceHub()
        a, b = CollectingTracer(), CollectingTracer()
        hub.add(a)
        hub.add(b)
        hub.emit("hop", cycle=3, node=7, uid=42, extra={"deflected": True})
        assert len(a.events) == len(b.events) == 1
        event = a.events[0]
        assert event == PacketEvent("hop", 3, 7, 42, {"deflected": True})

    def test_unknown_kind_rejected(self):
        hub = TraceHub()
        hub.add(CollectingTracer())
        with pytest.raises(ValueError, match="unknown event kind"):
            hub.emit("teleported", cycle=0, node=0, uid=0)

    def test_vocabulary_is_the_full_lifecycle(self):
        assert EVENT_KINDS == (
            "generated",
            "injected",
            "hop",
            "blocked",
            "buffered",
            "dropped",
            "retransmitted",
            "delivered",
            "fault_injected",
            "fault_masked",
            "fault_dropped",
            "health_warn",
            "health_critical",
        )


class TestSampling:
    def test_rate_one_returns_tracer_unwrapped(self):
        tracer = CollectingTracer()
        assert sampled(tracer, 1.0) is tracer

    @pytest.mark.parametrize("rate", [-0.1, 1.1])
    def test_invalid_rate_rejected(self, rate):
        """A rate reaches ``sampled`` only through a checked ObsConfig."""
        with pytest.raises(ValueError, match="trace_sample"):
            ObsConfig(trace_path="t.jsonl", trace_sample=rate)

    def test_keeps_whole_lifecycles_deterministically(self):
        inner = CollectingTracer()
        tracer = sampled(inner, 0.5)
        for uid in range(200):
            for kind in ("generated", "injected", "delivered"):
                tracer.emit(PacketEvent(kind, cycle=0, node=0, uid=uid))
        kept = {event.uid for event in inner.events}
        # Every kept uid has its complete 3-event lifecycle.
        for uid in kept:
            assert len([e for e in inner.events if e.uid == uid]) == 3
        # Roughly half survive, and a second pass keeps exactly the same set.
        assert 60 <= len(kept) <= 140
        inner2 = CollectingTracer()
        tracer2 = sampled(inner2, 0.5)
        for uid in range(200):
            tracer2.emit(PacketEvent("generated", cycle=0, node=0, uid=uid))
        assert {event.uid for event in inner2.events} == kept

    def test_rate_zero_keeps_nothing(self):
        inner = CollectingTracer()
        tracer = sampled(inner, 0.0)
        for uid in range(50):
            tracer.emit(PacketEvent("generated", cycle=0, node=0, uid=uid))
        assert inner.events == []

    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.3, 0.5])
    def test_monitor_events_always_pass(self, rate):
        # uid -1 hashes to 0.382 of the range: a health finding used to
        # vanish from every trace sampled below that rate.
        inner = CollectingTracer()
        finding = PacketEvent("health_critical", 100, -1, -1, {"check": "progress"})
        sampled(inner, rate).emit(finding)
        assert inner.events == [finding]

    def test_sampled_trace_of_a_livelocked_run_keeps_its_findings(self, tmp_path):
        from repro.electrical.config import ElectricalConfig
        from repro.faults.config import FaultConfig
        from repro.harness.exec import RunSpec, SyntheticWorkload
        from repro.harness.runner import run
        from repro.util.geometry import MeshGeometry

        def health_lines(rate):
            path = tmp_path / f"sampled-{rate}.jsonl"
            run(
                RunSpec(
                    ElectricalConfig(mesh=MeshGeometry(2, 1)),
                    SyntheticWorkload("uniform", 0.3),
                    cycles=300,
                    seed=2,
                    faults=FaultConfig(
                        seed=1, dead_ports=((0, 1), (1, 3)), retry_limit=1_000_000
                    ),
                    obs=ObsConfig(
                        health=True,
                        health_interval=50,
                        health_stall_windows=3,
                        trace_path=str(path),
                        trace_sample=rate,
                    ),
                )
            )
            return [
                line for line in path.read_text().splitlines() if '"health_' in line
            ]

        full = health_lines(1.0)
        assert any("health_warn" in line for line in full)
        assert any("health_critical" in line for line in full)
        assert health_lines(0.1) == full


class TestFileExporters:
    def test_jsonl_one_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = JsonlTraceWriter(path, meta={"label": "Optical4"})
        writer.emit(PacketEvent("generated", 0, 5, 1, {"dst": 9}))
        writer.emit(PacketEvent("delivered", 4, 9, 1))
        writer.close()
        header, *lines = path.read_text().splitlines()
        assert json.loads(header) == {
            "schema": TRACE_SCHEMA,
            "kinds": list(EVENT_KINDS),
            "label": "Optical4",
        }
        assert [json.loads(line) for line in lines] == [
            {"kind": "generated", "cycle": 0, "node": 5, "uid": 1, "dst": 9},
            {"kind": "delivered", "cycle": 4, "node": 9, "uid": 1},
        ]

    def test_chrome_trace_schema(self, tmp_path):
        path = tmp_path / "trace.json"
        writer = ChromeTraceWriter(path)
        writer.emit(PacketEvent("dropped", 17, 18, 99, {"attempts": 2}))
        writer.close()
        payload = json.loads(path.read_text())
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        metadata, instant = payload["traceEvents"]
        assert metadata["ph"] == "M"
        assert instant == {
            "name": "dropped",
            "cat": "packet",
            "ph": "i",
            "s": "t",
            "ts": 17,
            "pid": 0,
            "tid": 18,
            "args": {"uid": 99, "attempts": 2},
        }

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = JsonlTraceWriter(path)
        writer.emit(PacketEvent("generated", 0, 0, 0))
        writer.close()
        writer.emit(PacketEvent("generated", 1, 0, 1))
        writer.close()  # second close must not rewrite the file
        assert len(path.read_text().splitlines()) == 2  # header + 1 event

    def test_empty_trace_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        JsonlTraceWriter(path).close()
        (header,) = path.read_text().splitlines()
        assert json.loads(header)["schema"] == TRACE_SCHEMA


class TestObsConfig:
    def test_defaults_are_disabled(self):
        config = ObsConfig()
        assert not config.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trace_path": "t.json"},
            {"metrics_interval": 100},
            {"metrics_interval": 100, "spatial": True},
            {"health": True},
            {"metrics_interval": 100, "stream_path": "s.jsonl"},
        ],
    )
    def test_any_leg_enables(self, kwargs):
        assert ObsConfig(**kwargs).enabled

    def test_validation(self):
        """The one refusal of each setting: ``sampled`` and
        ``HealthMonitor`` take these values from a checked config."""
        for kwargs in (
            {"trace_sample": 1.5},
            {"metrics_interval": 0},
            {"health": True, "health_interval": 0},
            {"health_interval": 100},  # needs health
            {"health": True, "health_stall_windows": 0},
            {"stream_path": "s.jsonl"},  # needs metrics windows
        ):
            with pytest.raises(ValueError):
                ObsConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, leg",
        [
            ({"trace_sample": 0.3}, "trace_path"),
            ({"trace_sample": 0.0, "metrics_interval": 10}, "trace_path"),
            ({"health_stall_windows": 2}, "health"),
            ({"health_stall_windows": 8, "metrics_interval": 10}, "health"),
        ],
    )
    def test_a_knob_without_its_leg_is_inert_and_refused(self, kwargs, leg):
        with pytest.raises(ValueError, match=f"without {leg}.* is inert"):
            ObsConfig(**kwargs)

    def test_a_knob_with_its_leg_is_accepted(self):
        assert ObsConfig(trace_path="t.jsonl", trace_sample=0.3).trace_sample == 0.3
        assert ObsConfig(health=True, health_stall_windows=2).health_stall_windows == 2

    def test_trace_format_from_suffix(self):
        assert ObsConfig(trace_path="a.jsonl").trace_format == "jsonl"
        assert ObsConfig(trace_path="a.json").trace_format == "chrome"

    def test_effective_health_interval_falls_back(self):
        assert ObsConfig(health=True).effective_health_interval == 100
        assert (
            ObsConfig(health=True, metrics_interval=40).effective_health_interval
            == 40
        )
        assert (
            ObsConfig(
                health=True, metrics_interval=40, health_interval=25
            ).effective_health_interval
            == 25
        )

    def test_with_run_index_suffixes_path(self):
        config = ObsConfig(trace_path="out/drops.json")
        assert config.with_run_index(3).trace_path == "out/drops-0003.json"
        assert ObsConfig(health=True).with_run_index(3) == ObsConfig(health=True)

    def test_with_run_index_suffixes_stream_path(self):
        config = ObsConfig(metrics_interval=50, stream_path="out/s.jsonl")
        assert config.with_run_index(2).stream_path == "out/s-0002.jsonl"


class TestTimeSeries:
    WINDOW = Window(
        start=0,
        end=100,
        generated=50,
        injected=48,
        delivered=40,
        dropped=5,
        retransmitted=5,
        mean_occupancy=2.5,
        latency_p50=10,
        latency_p95=30,
        latency_p99=None,
        faulted=0,
        lost=0,
        latency_p999=None,
    )

    def test_round_trip(self):
        series = TimeSeries(interval=100, windows=[self.WINDOW])
        window = {
            "start": 0, "end": 100, "generated": 50, "injected": 48,
            "delivered": 40, "dropped": 5, "retransmitted": 5,
            "mean_occupancy": 2.5, "latency_p50": 10, "latency_p95": 30,
            "latency_p99": None, "faulted": 0, "lost": 0, "latency_p999": None,
        }
        assert json.loads(json.dumps(series.to_dict())) == {
            "interval": 100, "windows": [window],
        }

    def test_column_and_rate(self):
        series = TimeSeries(interval=100, windows=[self.WINDOW])
        assert series.column("dropped") == [5]
        assert self.WINDOW.rate("dropped") == pytest.approx(0.05)
        assert self.WINDOW.cycles == 100

    def test_rate_rejects_non_counters(self):
        with pytest.raises(ValueError, match="unknown counter"):
            self.WINDOW.rate("mean_occupancy")

    def test_bucket_percentile_matches_histogram_semantics(self):
        # Windowed, run-level and blame percentiles are one routine
        # (the empty-window None is pinned in TestMetricsWatcherEdges).
        pairs = [(3, 2), (7, 1), (100, 1)]
        histogram = Histogram()
        for value, occurrences in pairs:
            for _ in range(occurrences):
                histogram.add(value)
        for p, expected in ((50.0, 3), (75.0, 7), (100.0, 100), (0.01, 3)):
            assert nearest_rank(pairs, 4, p) == expected
            assert percentile(histogram, p) == expected
        with pytest.raises(ValueError, match="no rank"):
            nearest_rank([], 0, 50.0)


class _StubRouter:
    def __init__(self, node, occupancy):
        self.node = node
        self._occupancy = occupancy

    def occupancy(self):
        return self._occupancy


class _StubNetwork:
    """Minimal observed surface: stats, routers, mesh, tracer hub."""

    def __init__(self, width=2, height=1, occupancies=(3, 1)):
        from repro.util.geometry import MeshGeometry

        self.mesh = MeshGeometry(width, height)
        self.stats = NetworkStats()
        self.routers = [
            _StubRouter(node, occ) for node, occ in enumerate(occupancies)
        ]
        self.tracers = []

    def add_tracer(self, tracer):
        self.tracers.append(tracer)

    def emit(self, kind, cycle, node):
        for tracer in self.tracers:
            tracer.emit(PacketEvent(kind=kind, cycle=cycle, node=node, uid=1))


def observe(network, cycles, **obs):
    """Tick an engine ``cycles`` times under a session; return its series."""
    engine = SimulationEngine()
    session = ObsSession(ObsConfig(**obs), network, engine)
    engine.run(cycles)
    return session.finish()[0]


class TestMetricsWatcherEdges:
    def test_no_cycles_means_no_windows(self):
        series = observe(_StubNetwork(), 0, metrics_interval=10)
        assert series.windows == [] and series.spatial is None

    def test_empty_window_has_zero_rates_and_no_percentiles(self):
        (window,) = observe(_StubNetwork(), 5, metrics_interval=5).windows
        assert window.delivered == window.dropped == 0
        assert window.rate("delivered") == 0.0
        assert window.latency_p50 is window.latency_p95 is None
        assert window.mean_occupancy == pytest.approx(4.0)

    def test_window_with_deliveries_but_none_measured(self):
        # Deliveries inside the warm-up raise packets_delivered without
        # touching the latency histogram: count > 0, percentiles None.
        network = _StubNetwork()
        engine = SimulationEngine()
        session = ObsSession(ObsConfig(metrics_interval=5), network, engine)
        network.stats.measurement_start = 100
        network.stats.record_delivered(0, 3)
        engine.run(5)
        (window,) = session.finish()[0].windows
        assert window.delivered == 1
        assert window.latency_p50 is None and window.latency_p99 is None

    def test_spatial_series_round_trip(self):
        spatial = SpatialSeries(
            width=2,
            height=1,
            occupancy=[[3.0, 1.0], [0.5, 0.0]],
            drops=[[1, 0], [0, 2]],
            deliveries=[[4, 4], [5, 3]],
        )
        series = TimeSeries(interval=5, spatial=spatial)
        payload = json.loads(json.dumps(series.to_dict()))
        assert payload["spatial"] == {
            "mesh": [2, 1],
            "occupancy": [[3.0, 1.0], [0.5, 0.0]],
            "drops": [[1, 0], [0, 2]],
            "deliveries": [[4, 4], [5, 3]],
        }

    def test_non_spatial_payload_shape_unchanged(self):
        series = TimeSeries(interval=5)
        assert series.to_dict() == {"interval": 5, "windows": []}

    def test_spatial_watcher_attributes_events_per_node(self):
        network = _StubNetwork()
        engine = SimulationEngine()
        session = ObsSession(
            ObsConfig(metrics_interval=5, spatial=True), network, engine
        )
        assert len(network.tracers) == 1  # the read-only tally
        network.stats.record_dropped()
        network.emit("dropped", 2, 0)
        network.stats.record_delivered(0, 2)
        network.emit("delivered", 2, 1)
        engine.run(5)
        series = session.finish()[0]
        spatial = series.spatial
        assert spatial.width == 2 and spatial.height == 1
        assert spatial.drops == [[1, 0]]
        assert spatial.deliveries == [[0, 1]]
        # Per-node mean occupancy sums to the window's aggregate mean.
        assert spatial.occupancy == [[3.0, 1.0]]
        assert sum(spatial.occupancy[0]) == pytest.approx(
            series.windows[0].mean_occupancy
        )

    def test_spatial_config_requires_interval(self):
        with pytest.raises(ValueError, match="metrics_interval"):
            ObsConfig(spatial=True)


class TestTraceFilesAreReproducible:
    """Packet uids count from zero per network, not per process: the same
    spec writes the same trace file whatever ran before it."""

    @pytest.mark.parametrize("label", ["Optical4", "Electrical3", "Ideal"])
    def test_same_spec_writes_the_same_trace_bytes(self, label, tmp_path):
        from repro.fabric.ideal import IdealConfig
        from repro.harness.exec import RunSpec, Splash2Workload, SyntheticWorkload
        from repro.harness.experiments.configs import standard_configs
        from repro.harness.runner import run
        from repro.util.geometry import MeshGeometry

        mesh = MeshGeometry(4, 4)
        configs = dict(standard_configs(mesh), Ideal=IdealConfig(mesh=mesh))

        def traced(name):
            # Snoopy broadcasts: multicast packets and VCTM replicas draw uids too.
            obs = ObsConfig(trace_path=str(tmp_path / name))
            run(RunSpec(configs[label], Splash2Workload("fft"), cycles=150, obs=obs))
            return (tmp_path / name).read_bytes()

        first, second = traced("a.jsonl"), traced("b.jsonl")
        for other in configs.values():  # unrelated runs in between
            run(RunSpec(other, SyntheticWorkload("uniform", 0.2), cycles=40))
        assert first == second == traced("c.jsonl")
        assert b'"multicast": true' in first
