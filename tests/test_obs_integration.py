"""End-to-end observability tests: the no-perturbation invariant and the
harness/CLI plumbing (cache bypass, per-run trace paths, report payloads)."""

import json
from dataclasses import replace

import pytest

from oracle.network import PhastlaneNetwork
from repro.cli import main
from repro.core.config import PhastlaneConfig
from repro.electrical.config import ElectricalConfig
from repro.electrical.network import ElectricalNetwork
from repro.fabric.registry import make_network
from repro.harness.exec import (
    Executor,
    ResultCache,
    RunSpec,
    Splash2Workload,
    SyntheticWorkload,
)
from repro.harness.report import (
    manifest_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.harness.runner import run
from repro.obs.config import ObsConfig
from repro.obs.session import ObsSession
from repro.sim.engine import SimulationEngine
from repro.traffic.trace import Trace, TraceEvent, TraceSource
from repro.util.geometry import MeshGeometry

MESH = MeshGeometry(4, 4)
OPTICAL = PhastlaneConfig(mesh=MESH, max_hops_per_cycle=4)
ELECTRICAL = ElectricalConfig(mesh=MESH)


def spec(config=OPTICAL, obs=None, rate=0.15):
    return RunSpec(
        config, SyntheticWorkload("hotspot", rate), cycles=300, seed=7, obs=obs
    )


class TestNoPerturbation:
    """Observability must never change what the simulator computes."""

    @pytest.mark.parametrize("config", [OPTICAL, ELECTRICAL])
    def test_traced_run_matches_untraced(self, tmp_path, config):
        obs = ObsConfig(
            trace_path=str(tmp_path / "trace.json"),
            metrics_interval=100,
            spatial=True,
            health=True,
        )
        plain = run(spec(config))
        observed = run(spec(config, obs=obs))
        # RunResult equality covers the full stats ledger (histogram and
        # energy counters included); observability fields are excluded.
        assert observed == plain
        assert observed.stats == plain.stats

    @pytest.mark.parametrize(
        "electrical",
        [
            # Snoopy broadcasts: VCTM replicas draw their uids as they depart.
            RunSpec(ELECTRICAL, Splash2Workload("radix"), cycles=300, seed=7),
            # Wrapped rings, every VC of a four-VC port in play.
            RunSpec(
                replace(ELECTRICAL, topology="torus", num_vcs=4),
                SyntheticWorkload("uniform", 0.3),
                cycles=300,
                seed=7,
            ),
        ],
        ids=["splash2-broadcasts", "torus-4vc"],
    )
    def test_traced_electrical_hops_match_untraced(self, tmp_path, electrical):
        """The router's departures carry the trace emit and the fault check
        as inline guards; neither path of the hop may depend on them."""
        obs = ObsConfig(
            trace_path=str(tmp_path / "trace.jsonl"),
            metrics_interval=100,
            spatial=True,
            health=True,
        )
        plain = run(electrical)
        observed = run(replace(electrical, obs=obs))
        assert observed == plain
        assert observed.stats == plain.stats
        assert plain.stats.hops_traversed > 0
        if isinstance(electrical.workload, Splash2Workload):
            assert plain.stats.multicast_packets > 0

    def test_sampled_trace_still_does_not_perturb(self, tmp_path):
        obs = ObsConfig(
            trace_path=str(tmp_path / "trace.jsonl"), trace_sample=0.25
        )
        assert run(spec(obs=obs)) == run(spec())

    def test_obs_excluded_from_spec_identity(self, tmp_path):
        with_obs = spec(obs=ObsConfig(health=True))
        without = spec()
        assert with_obs == without
        assert with_obs.digest() == without.digest()
        assert "obs" not in with_obs.to_dict()

    @pytest.mark.parametrize("config", [OPTICAL, ELECTRICAL])
    def test_health_watchdogs_do_not_perturb(self, config):
        plain = run(spec(config))
        watched = run(spec(config, obs=ObsConfig(health=True)))
        assert watched == plain
        # Bit-identical ledger, not just headline equality: NetworkStats
        # equality covers the latency histogram and energy counters.
        assert watched.stats == plain.stats
        assert watched.health is not None and watched.health.status == "ok"

    def test_disabled_health_report_is_byte_identical(self):
        plain = json.dumps(result_to_dict(run(spec())), sort_keys=True)
        watched = result_to_dict(run(spec(obs=ObsConfig(health=True))))
        assert "health" in watched
        watched.pop("health")
        # Stripped of its one additive key, a health-enabled run's report
        # serialises to the exact bytes of an uninstrumented run's.
        assert json.dumps(watched, sort_keys=True) == plain


class TestArtifacts:
    def test_chrome_trace_is_valid_and_populated(self, tmp_path):
        path = tmp_path / "trace.json"
        run(spec(obs=ObsConfig(trace_path=str(path))))
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        kinds = {event["name"] for event in events if event["ph"] == "i"}
        assert {"generated", "injected", "delivered"} <= kinds
        assert all(event["ph"] in ("i", "M") for event in events)

    def test_chrome_trace_round_trips_with_full_schema(self, tmp_path):
        from repro.obs.events import EVENT_KINDS

        path = tmp_path / "trace.json"
        result = run(spec(obs=ObsConfig(trace_path=str(path))))
        payload = json.loads(path.read_text())  # must be one valid document
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        events = payload["traceEvents"]
        # The process-name metadata record leads, then instants only.
        assert events[0]["ph"] == "M"
        assert all(event["ph"] == "i" for event in events[1:])
        instants = events[1:]
        assert instants, "a traced run must produce events"
        for event in instants:
            assert set(event) >= {"name", "cat", "ph", "s", "ts", "pid", "tid"}
            assert event["cat"] == "packet"
            assert event["s"] == "t"
            assert 0 <= event["ts"] <= result.cycles
            assert 0 <= event["tid"] < MESH.num_nodes
            assert "uid" in event["args"]
        assert {event["name"] for event in instants} <= set(EVENT_KINDS)
        # Lifecycle ordering survives the export: each packet's generated
        # event precedes its delivered events in file order.
        first_seen = {}
        for position, event in enumerate(instants):
            first_seen.setdefault((event["name"], event["args"]["uid"]), position)
        for (name, uid), position in first_seen.items():
            if name == "delivered":
                assert first_seen[("generated", uid)] < position

    def test_timeseries_lands_in_report_and_round_trips(self, tmp_path):
        obs = ObsConfig(metrics_interval=100)
        result = run(spec(obs=obs))
        series = result.timeseries
        assert series is not None and series.interval == 100
        assert [w.start for w in series.windows] == [0, 100, 200]
        # Window counters reconcile with the final ledger.
        assert sum(series.column("generated")) == result.stats.packets_generated
        assert sum(series.column("dropped")) == result.stats.packets_dropped
        payload = result_to_dict(result)
        assert result_from_dict(payload) == result
        assert json.loads(json.dumps(payload))["timeseries"] == series.to_dict()
        assert payload["timeseries"]["windows"][1]["start"] == 100

    def test_disabled_run_report_has_no_timeseries_key(self):
        payload = result_to_dict(run(spec()))
        assert "timeseries" not in payload


class TestSpatialTelemetry:
    def test_spatial_run_does_not_perturb(self):
        obs = ObsConfig(metrics_interval=100, spatial=True)
        assert run(spec(obs=obs)) == run(spec())

    def test_spatial_series_lands_in_report_and_round_trips(self):
        obs = ObsConfig(metrics_interval=100, spatial=True)
        result = run(spec(obs=obs))
        series = result.timeseries
        assert series is not None and series.spatial is not None
        spatial = series.spatial
        assert (spatial.width, spatial.height) == (MESH.width, MESH.height)
        # One dense per-node slice per window, for every series.
        for rows in (spatial.occupancy, spatial.drops, spatial.deliveries):
            assert len(rows) == len(series.windows)
            assert all(len(row) == MESH.num_nodes for row in rows)
        # Per-node attribution reconciles with the windowed aggregates.
        for window, drops, deliveries in zip(
            series.windows, spatial.drops, spatial.deliveries
        ):
            assert sum(drops) == window.dropped
            assert sum(deliveries) == window.delivered
        payload = json.loads(json.dumps(result_to_dict(result)))
        assert payload["timeseries"]["spatial"] == {
            "mesh": [MESH.width, MESH.height],
            "occupancy": spatial.occupancy,
            "drops": spatial.drops,
            "deliveries": spatial.deliveries,
        }

    def test_hotspot_concentrates_occupancy(self):
        obs = ObsConfig(metrics_interval=150, spatial=True)
        series = run(spec(obs=obs, rate=0.2)).timeseries
        assert series is not None and series.spatial is not None
        last = series.spatial.occupancy[-1]
        # The hotspot column is hotter than the mesh-wide mean occupancy.
        assert max(last) > sum(last) / len(last)

    def test_non_spatial_payload_is_unchanged(self):
        obs = ObsConfig(metrics_interval=100)
        payload = result_to_dict(run(spec(obs=obs)))
        assert "spatial" not in payload["timeseries"]


MESH8 = MeshGeometry(8, 8)
#: Three unicasts that collide beside node 17 with one-entry buffers (a
#: tuple: ``Trace`` sorts the list it is given in place).
COLLISION = (TraceEvent(0, 18, 34), TraceEvent(0, 17, 26), TraceEvent(0, 16, 26))
#: The oracle and the kernel Phastlane runs on, built from a trace source.
PHASTLANE_BACKENDS = {"oracle": PhastlaneNetwork, "kernel": make_network}


def spatial_totals(network, inject_cycles, interval):
    """Observe ``network`` through drain; per-node run totals of the
    spatial series (every window, the trailing partial one included)."""
    engine = SimulationEngine()
    engine.register(network)
    session = ObsSession(
        ObsConfig(metrics_interval=interval, spatial=True), network, engine
    )
    engine.run(inject_cycles)
    assert engine.run_until(lambda: network.idle(engine.cycle), 20_000)
    spatial = session.finish()[0].spatial
    return {
        name: [sum(column) for column in zip(*getattr(spatial, name))]
        for name in ("drops", "deliveries", "occupancy")
    }


# A short interval sums several windows; one longer than the run leaves
# everything to the trailing window ``finish`` closes.
@pytest.mark.parametrize("interval", [3, 100_000])
class TestSpatialAttribution:
    """Each drop and delivery lands on the router where it happened, and the
    per-node totals reconcile with the stats ledger on every backend."""

    @pytest.mark.parametrize("backend", PHASTLANE_BACKENDS)
    def test_phastlane_totals_match_stats(self, backend, interval):
        config = PhastlaneConfig(mesh=MESH8, max_hops_per_cycle=4, buffer_entries=1)
        trace = Trace("t", 64, events=[*COLLISION, TraceEvent(10, 27, None)])
        network = PHASTLANE_BACKENDS[backend](config, TraceSource(trace))
        totals = spatial_totals(network, 11, interval)
        assert sum(totals["drops"]) == network.stats.packets_dropped > 0
        # The 63 broadcast taps plus the unicasts, each on its node.
        assert sum(totals["deliveries"]) == network.stats.packets_delivered >= 63

    @pytest.mark.parametrize("backend", PHASTLANE_BACKENDS)
    def test_phastlane_drops_land_on_the_blocking_router(self, backend, interval):
        config = PhastlaneConfig(mesh=MESH8, max_hops_per_cycle=4, buffer_entries=1)
        trace = Trace("t", 64, events=[*COLLISION])
        network = PHASTLANE_BACKENDS[backend](config, TraceSource(trace))
        drops = spatial_totals(network, 1, interval)["drops"]
        # 16's packet waits at 17, which resends it into 18's buffer that
        # 17's own packet holds: the drop is 18's, not the resender's.
        assert {node: count for node, count in enumerate(drops) if count} == {18: 1}

    def test_electrical_totals_match_stats(self, interval):
        events = [*COLLISION[:2], TraceEvent(10, 27, None)]
        trace = Trace("t", 64, events=events)
        network = ElectricalNetwork(ElectricalConfig(mesh=MESH8), TraceSource(trace))
        totals = spatial_totals(network, 11, interval)
        # The baseline never drops; every unicast and each of the 63
        # broadcast ejections lands on its node.
        assert sum(totals["drops"]) == 0
        assert sum(totals["deliveries"]) == network.stats.packets_delivered
        assert totals["deliveries"][34] == 2  # its unicast plus one ejection
        assert sum(totals["occupancy"]) > 0


class TestExecutorObs:
    def test_obs_runs_bypass_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        obs = ObsConfig(metrics_interval=100)
        first = Executor(workers=1, cache=cache, obs=obs)
        first.map([spec()])
        second = Executor(workers=1, cache=cache, obs=obs)
        results = second.map([spec()])
        assert not second.events[0].cache_hit
        assert results[0].timeseries is not None

    def test_disabled_obs_still_caches(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        Executor(workers=1, cache=cache).map([spec()])
        second = Executor(workers=1, cache=cache)
        second.map([spec()])
        assert second.events[0].cache_hit

    def test_obs_free_manifest_key_set_is_pinned(self):
        # Observability is additive: a campaign without it emits exactly
        # these keys (only "health" may join an entry, with --health).
        executor = Executor(workers=1)
        executor.map([spec()])
        manifest = manifest_to_dict(executor.events)
        assert set(manifest) == {
            "runs", "cache_hits", "total_wall_time_s", "entries",
        }
        assert set(manifest["entries"][0]) == {
            "index", "digest", "label", "workload", "cycles", "seed",
            "cache_hit", "wall_time_s", "packets_per_second", "spec",
        }

    def test_campaign_trace_paths_are_per_run(self, tmp_path):
        obs = ObsConfig(trace_path=str(tmp_path / "trace.json"))
        executor = Executor(workers=1, obs=obs)
        executor.map([spec(rate=0.05), spec(rate=0.1), spec(rate=0.15)])
        names = sorted(p.name for p in tmp_path.glob("trace-*.json"))
        assert names == ["trace-0000.json", "trace-0001.json", "trace-0002.json"]

    def test_single_run_keeps_the_plain_path(self, tmp_path):
        obs = ObsConfig(trace_path=str(tmp_path / "trace.json"))
        Executor(workers=1, obs=obs).map([spec()])
        assert (tmp_path / "trace.json").exists()

    def test_spec_level_obs_wins_over_executor_obs(self, tmp_path):
        spec_obs = ObsConfig(trace_path=str(tmp_path / "mine.json"))
        executor = Executor(
            workers=1, obs=ObsConfig(trace_path=str(tmp_path / "theirs.json"))
        )
        executor.map([spec(obs=spec_obs)])
        assert (tmp_path / "mine.json").exists()
        assert not (tmp_path / "theirs.json").exists()


class TestCliObs:
    def test_sweep_with_observability_flags(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        manifest = tmp_path / "manifest.json"
        argv = [
            "sweep",
            "--config", "Optical4",
            "--pattern", "uniform",
            "--rates", "0.05",
            "--cycles", "200",
            "--trace-out", str(trace),
            "--metrics-interval", "50",
            "--health",
            "--manifest", str(manifest),
        ]
        assert main(argv) == 0
        assert "wrote packet trace" in capsys.readouterr().err
        assert json.loads(trace.read_text())["traceEvents"]
        entry = json.loads(manifest.read_text())["entries"][0]
        assert entry["health"] == "ok"

    def test_trace_sample_flag_validated(self, capsys):
        assert main(["sweep", "--config", "Optical4", "--rates", "0.05",
                     "--trace-out", "t.json", "--trace-sample", "2.0"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "repro: invalid observability config: "
            "trace_sample must be in [0, 1], got 2.0\n"
        )
