"""Standalone per-layer probes: one fixed, small input per layer function.

A probe times a layer's *public* functions directly, outside any job, on an
input that is the same in every workload — so a probe metric moves only
when its layer's code moves.  The job-derived layer metrics (``*.sim_s``,
``fabric.make_network_ms``, ...) come from spans in :mod:`worker`; together
they are the ``per_layer`` list of ``BENCHMARK.json``.

Every probe returns ``{metric name: (value, unit)}``.  Times are host time.
"""

from __future__ import annotations

import statistics
import tempfile
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro.core.routing import build_plan
from repro.electrical.islip import Request, SwitchAllocator
from repro.fabric import IdealConfig, make_network
from repro.faults.config import FaultConfig
from repro.faults.schedule import FaultSchedule
from repro.harness import report
from repro.harness.exec import Executor, ResultCache, RunSpec, SyntheticWorkload
from repro.harness.experiments import fig04, fig05, fig06, fig07, fig08, fig09, tables
from repro.harness.experiments.configs import standard_configs
from repro.harness.runner import run
from repro.harness.sweeps import point_from_result
from repro.obs import analysis
from repro.obs.config import ObsConfig
from repro.obs.session import ObsSession
from repro.obs.tracers import CollectingTracer, JsonlTraceWriter
from repro.sim.engine import SimulationEngine
from repro.sim.rng import DeterministicRng
from repro.sim.stats import NetworkStats
from repro.topology import policy_by_name, topology_from_name, topology_of
from repro.traffic.injection import BernoulliInjector
from repro.traffic.patterns import pattern_by_name
from repro.traffic.splash2 import generate_splash2_trace
from repro.traffic.trace import SyntheticSource
from repro.util.geometry import MeshGeometry
from repro.vectorized import VectorizedConfig
from repro.vectorized.plans import compile_plan, neighbor_table
from repro.vectorized.traffic import philox_events, replay_synthetic

from spans import SpanRecorder, backend_layer, duration
from workloads import OUT_DIR, launch_cli, round_trip_configs

Metrics = dict[str, tuple[float, str]]

MESH8 = MeshGeometry(8, 8)
MESH16 = MeshGeometry(16, 16)

#: Probe sizes (cycles, repeats).  ``smoke`` only exercises the plumbing.
SIZES = {
    "full": {"cycles": 100, "obs_cycles": 150, "splash2_cycles": 400,
             "fault_grid_cycles": 100, "plan_mesh": MESH16, "launches": 2,
             "pool_specs": 8, "ticks": 5000},
    "smoke": {"cycles": 40, "obs_cycles": 60, "splash2_cycles": 60,
              "fault_grid_cycles": 5, "plan_mesh": MESH8, "launches": 1,
              "pool_specs": 4, "ticks": 1000},
}


class ProbeError(AssertionError):
    """A probe's own output check failed (counts as a failed check)."""


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    started = perf_counter()
    value = fn()
    return perf_counter() - started, value


def _median_of(fn: Callable[[], Any], repeats: int = 3) -> tuple[float, Any]:
    """Median wall of ``repeats`` calls (and the last value)."""
    walls, value = [], None
    for _ in range(repeats):
        wall, value = _timed(fn)
        walls.append(wall)
    return statistics.median(walls), value


def _synthetic_source(config: Any, pattern: str, rate: float, cycles: int,
                      seed: int) -> SyntheticSource:
    return SyntheticSource(
        pattern_by_name(pattern, topology_of(config)),
        lambda: BernoulliInjector(rate),
        seed=seed,
        stop_cycle=cycles,
    )


def enact(
    recorder: SpanRecorder,
    spec: RunSpec,
    tracer: Any = None,
) -> tuple[NetworkStats, float]:
    """``run(spec)`` for a synthetic spec, re-enacted from public calls.

    Mirrors the runner's pipeline one public call at a time, with a span
    per call, so ``run(spec)`` minus this is the runner's own overhead.
    Returns the stats and the host seconds of the whole pipeline.
    """
    config, workload, cycles = spec.config, spec.workload, spec.cycles
    layer = backend_layer(config)
    with recorder.span("bench.enact", "bench", backend=layer) as root:
        with recorder.span("topology.topology_of", "topology"):
            topology_of(config)
        with recorder.span("traffic.synthetic_source", "traffic"):
            source = _synthetic_source(
                config, workload.pattern, workload.rate, cycles, spec.seed
            )
        stats = NetworkStats(measurement_start=cycles // 5)
        with recorder.span("fabric.make_network", "fabric"):
            network = make_network(config, source, stats, faults=spec.faults)
        engine = SimulationEngine()
        engine.register(network)
        session = ObsSession(spec.obs, network, engine)
        if tracer is not None:
            network.add_tracer(tracer)
        with recorder.span("sim.engine.run", layer):
            engine.run(cycles)
        with recorder.span("obs.session.finish", "obs"):
            session.finish()
    return network.stats, duration(root)


# -- the probes ----------------------------------------------------------------


def probe_cli(size: dict[str, Any]) -> Metrics:
    startup = [launch_cli(["-m", "repro", "--help"]) for _ in range(size["launches"])]
    imports = [launch_cli(["-c", "import repro.cli"]) for _ in range(size["launches"])]
    failed = [code for _, code in startup + imports if code != 0]
    if failed:
        raise ProbeError(f"cli launches exited {failed}")
    return {
        "cli.startup_s": (statistics.median(w for w, _ in startup), "s"),
        "cli.import_s": (statistics.median(w for w, _ in imports), "s"),
    }


def probe_harness(recorder: SpanRecorder, seed: int, size: dict[str, Any]) -> Metrics:
    configs = standard_configs(MESH8)
    cycles = size["cycles"]
    rates = (0.02, 0.05, 0.1, 0.15)
    specs = [
        RunSpec(configs[label], SyntheticWorkload("uniform", rate), cycles, seed=seed)
        for label in ("Optical4", "Electrical3")
        for rate in rates
    ][: size["pool_specs"]]
    metrics: Metrics = {}

    digest_s, _ = _median_of(lambda: [spec.digest() for spec in specs])
    metrics["harness.exec.digest_us"] = (digest_s / len(specs) * 1e6, "us")

    # Serial map: harness overhead is what the map adds around the runs.
    serial = Executor()
    serial_s, results = _timed(lambda: serial.map(specs))
    run_s = sum(result.wall_time_s for result in results)
    metrics["harness.exec.map_overhead_ms"] = (
        (serial_s - run_s) / len(specs) * 1e3, "ms")

    with tempfile.TemporaryDirectory(prefix="cache-", dir=OUT_DIR) as root:
        cache = ResultCache(root)
        store_s, _ = _timed(
            lambda: [cache.store(s, r) for s, r in zip(specs, results)]
        )
        cached = Executor(cache=cache)
        load_s, reloaded = _timed(lambda: cached.map(specs))
        hit_share = cached.cache_hits / len(specs)
    if hit_share != 1.0 or reloaded != results:
        raise ProbeError(f"cache round trip: hit share {hit_share}")
    metrics["harness.exec.cache_store_ms"] = (store_s / len(specs) * 1e3, "ms")
    metrics["harness.exec.cache_load_ms"] = (load_s / len(specs) * 1e3, "ms")
    metrics["harness.exec.cache_hit_share"] = (hit_share, "ratio")

    pool_s, pooled = _timed(lambda: Executor(workers=2).map(specs))
    if pooled != results:
        raise ProbeError("2-worker map differs from the serial map")
    metrics["harness.exec.pool_speedup"] = (serial_s / pool_s, "ratio")

    ideal = [
        RunSpec(IdealConfig(mesh=MeshGeometry(4, 4)),
                SyntheticWorkload("uniform", rate), 50, seed=seed)
        for rate in rates
    ]
    ideal_serial_s, _ = _timed(lambda: Executor().map(ideal))
    ideal_pool_s, _ = _timed(lambda: Executor(workers=2).map(ideal))
    metrics["harness.exec.pool_spawn_s"] = (ideal_pool_s - ideal_serial_s, "s")

    # runner: run(spec) against the same pipeline re-enacted call by call.
    spec = specs[2]
    enacted_walls, run_walls = [], []
    for _ in range(3):
        stats, enacted_s = enact(recorder, spec)
        enacted_walls.append(enacted_s)
        wall, result = _timed(lambda: run(spec))
        run_walls.append(wall)
        if result.stats != stats:
            raise ProbeError("re-enacted pipeline stats differ from run(spec)")
    metrics["harness.runner.overhead_s"] = (
        statistics.median(run_walls) - statistics.median(enacted_walls), "s")

    # report: serialise / parse one result, write one figure.
    to_s, payload = _median_of(lambda: report.result_to_dict(results[2]))
    from_s, parsed = _median_of(lambda: report.result_from_dict(payload))
    if parsed != results[2]:
        raise ProbeError("result_from_dict(result_to_dict(r)) != r")
    figure = fig09.Figure9(
        rates=rates,
        curves={"uniform": {
            label: [
                point_from_result(s.workload.rate, r, 64)
                for s, r in zip(specs, results) if s.label == label
            ]
            for label in ("Optical4", "Electrical3")
        }},
    )
    with tempfile.TemporaryDirectory(prefix="report-", dir=OUT_DIR) as root:
        write_s, _ = _median_of(
            lambda: report.write_report(
                Path(root) / "fig.json", report.figure_to_dict(figure)
            )
        )
    metrics["harness.report.to_dict_ms"] = (to_s * 1e3, "ms")
    metrics["harness.report.from_dict_ms"] = (from_s * 1e3, "ms")
    metrics["harness.report.write_ms"] = (write_s * 1e3, "ms")
    return metrics


def probe_topology_routing(size: dict[str, Any]) -> Metrics:
    def build() -> Any:
        topology = topology_from_name("mesh", MESH8)
        topology.links()
        return topology

    build_s, topology = _median_of(build)
    pairs = [(a, b) for a in range(64) for b in range(64) if a != b]
    dor = policy_by_name("dor")
    route_s, _ = _timed(lambda: [dor.plan(topology, a, b) for a, b in pairs])
    plan_s, _ = _timed(lambda: [build_plan(topology, a, b, 4) for a, b in pairs])

    mesh = size["plan_mesh"]
    grid = topology_from_name("mesh", mesh)
    neighbors = neighbor_table(grid)
    nodes = mesh.num_nodes
    many = [(a, b) for a in range(nodes) for b in range(nodes) if a != b]
    compile_s, _ = _timed(
        lambda: [compile_plan(grid, neighbors, a, b, 4) for a, b in many]
    )
    return {
        "topology.build_ms": (build_s * 1e3, "ms"),
        "topology.route_us": (route_s / len(pairs) * 1e6, "us"),
        "core.route_build_us": (plan_s / len(pairs) * 1e6, "us"),
        "vectorized.plans.compile_us": (compile_s / len(many) * 1e6, "us"),
        "vectorized.plans.pairs": (float(len(many)), "count"),
    }


def probe_traffic(seed: int, size: dict[str, Any]) -> Metrics:
    cycles = size["cycles"]
    config = standard_configs(MESH8)["Optical4"]

    def pull() -> int:
        source = _synthetic_source(config, "uniform", 0.1, cycles, seed)
        return sum(
            len(source.injections(node, cycle))
            for cycle in range(cycles)
            for node in range(64)
        )

    pull_s, _ = _median_of(pull)
    gen_s, trace = _timed(
        lambda: generate_splash2_trace(
            "fft", mesh=MESH8, seed=seed, duration_cycles=size["splash2_cycles"]
        )
    )

    vec = VectorizedConfig(mesh=MESH16)
    # A fresh seed-derived source each time: philox schedules are memoised.
    philox_s, (_, philox_count) = _timed(
        lambda: philox_events(
            _synthetic_source(vec, "uniform", 0.1, 5 * cycles, seed), 0)
    )
    replay_s, (_, replay_count) = _timed(
        lambda: replay_synthetic(
            _synthetic_source(vec, "uniform", 0.1, cycles, seed), 0)
    )
    return {
        "traffic.synthetic_us_per_call": (pull_s / (cycles * 64) * 1e6, "us"),
        "traffic.splash2_gen_s": (gen_s, "s"),
        "traffic.splash2_events": (float(len(trace)), "count"),
        "traffic.splash2_broadcasts": (float(trace.broadcast_count), "count"),
        "vectorized.traffic.pregen_s": (philox_s + replay_s, "s"),
        "vectorized.traffic.events": (float(philox_count + replay_count), "count"),
    }


class _Idle:
    def step(self, cycle: int) -> None:
        pass

    def commit(self, cycle: int) -> None:
        pass


def probe_sim_kernels(seed: int, size: dict[str, Any]) -> Metrics:
    ticks = size["ticks"]

    def spin_engine() -> None:
        engine = SimulationEngine()
        engine.register(_Idle())
        engine.run(ticks)

    tick_s, _ = _median_of(spin_engine)
    rng_s, _ = _median_of(
        lambda: [DeterministicRng(seed, f"probe/{i}") for i in range(ticks)]
    )

    # iSLIP on a fixed, fully-contended request set (5 ports x 4 VCs).
    requests = [
        Request(input_port=port, vc=vc, output_port=(port + vc + 1) % 5)
        for port in range(5)
        for vc in range(4)
    ]
    allocator = SwitchAllocator(5, 4, input_speedup=4)
    rounds = ticks // 10
    islip_s, _ = _median_of(lambda: [allocator.allocate(requests) for _ in range(rounds)])
    return {
        "sim.engine.tick_us": (tick_s / ticks * 1e6, "us"),
        "sim.rng.construct_us": (rng_s / ticks * 1e6, "us"),
        "electrical.islip_allocate_us": (islip_s / rounds * 1e6, "us"),
    }


def probe_faults(seed: int, size: dict[str, Any]) -> Metrics:
    schedule = FaultSchedule(FaultConfig(seed=seed, link_flip_prob=0.02), MESH16)
    grid = [
        (node, port, cycle)
        for cycle in range(size["fault_grid_cycles"])
        for node in range(MESH16.num_nodes)
        for port in range(4)
    ]
    draw_s, hits = _timed(
        lambda: sum(schedule.crossing_fault(*key) is not None for key in grid)
    )
    if not 0 < hits < len(grid):
        raise ProbeError(f"2% flips hit {hits} of {len(grid)} crossings")
    metrics: Metrics = {
        "faults.schedule.draw_us": (draw_s / len(grid) * 1e6, "us"),
        "faults.schedule.draws": (float(len(grid)), "count"),
    }

    standard = standard_configs(MESH8)
    configs = {
        "vectorized": VectorizedConfig(mesh=MESH8),
        "core": standard["Optical4"],
        "electrical": standard["Electrical3"],
    }
    faulty = FaultConfig(seed=seed, link_flip_prob=0.05)
    for name, config in configs.items():
        clean = RunSpec(config, SyntheticWorkload("uniform", 0.1), size["cycles"],
                        seed=seed)
        clean_s, _ = _median_of(lambda: run(clean))
        faulted_s, result = _median_of(lambda: run(replace(clean, faults=faulty)))
        if result.stats.faults_injected <= 0:
            raise ProbeError(f"{name}: 5% flips injected no fault")
        metrics[f"faults.cost_ratio_{name}"] = (faulted_s / clean_s, "ratio")
    return metrics


def probe_obs(recorder: SpanRecorder, seed: int, size: dict[str, Any]) -> Metrics:
    configs = round_trip_configs()
    cycles = size["obs_cycles"]
    plain_s = traced_s = 0.0
    stage_s = {"read": 0.0, "spans": 0.0, "aggregate": 0.0, "render": 0.0}
    events_total = bytes_total = 0
    with tempfile.TemporaryDirectory(prefix="obs-", dir=OUT_DIR) as root:
        for label, config in configs.items():
            spec = RunSpec(config, SyntheticWorkload("hotspot", 0.1), cycles,
                           seed=seed)
            path = Path(root) / f"{label}.jsonl"
            plain = run(spec)
            traced = run(replace(spec, obs=ObsConfig(trace_path=str(path))))
            if traced.stats != plain.stats:
                raise ProbeError(f"{label}: tracing perturbed the stats")
            plain_s += plain.wall_time_s
            traced_s += traced.wall_time_s
            wall, (events, meta) = _timed(lambda: analysis.read_trace_file(path))
            stage_s["read"] += wall
            wall, spans = _timed(
                lambda: analysis.reconstruct_spans(
                    events, link_delay=int(meta.get("link_delay", 0)))
            )
            stage_s["spans"] += wall
            wall, blame = _timed(lambda: analysis.analyze_spans(spans, meta=meta))
            stage_s["aggregate"] += wall
            wall, _ = _timed(
                lambda: (blame.to_json(), analysis.render_markdown(blame))
            )
            stage_s["render"] += wall
            events_total += len(events)
            bytes_total += path.stat().st_size

        # Emit cost alone: replay one run's events into a fresh JSONL writer.
        spec = RunSpec(configs["Optical4"], SyntheticWorkload("hotspot", 0.1),
                       cycles, seed=seed)
        collector = CollectingTracer()
        bare_s = statistics.median(enact(recorder, spec)[1] for _ in range(3))
        collect_s = enact(recorder, spec, tracer=collector)[1]
        writer = JsonlTraceWriter(Path(root) / "replay.jsonl")

        def replay() -> None:
            for event in collector.events:
                writer.emit(event)
            writer.close()

        emit_s, _ = _timed(replay)
        windows_s, _ = _median_of(
            lambda: run(replace(spec, obs=ObsConfig(metrics_interval=100))))
        health_s, _ = _median_of(lambda: run(replace(spec, obs=ObsConfig(health=True))))
        base_s, _ = _median_of(lambda: run(spec))

    analyze_s = sum(stage_s.values())
    return {
        "obs.tracers.trace_overhead": (traced_s / plain_s, "ratio"),
        "obs.tracers.emit_us": (emit_s / max(1, len(collector.events)) * 1e6, "us"),
        "obs.tracers.events": (float(events_total), "count"),
        "obs.tracers.bytes_per_event": (bytes_total / max(1, events_total), "B"),
        "obs.tracers.collect_overhead": (collect_s / bare_s, "ratio"),
        "obs.timeseries.overhead": (windows_s / base_s, "ratio"),
        "obs.health.overhead": (health_s / base_s, "ratio"),
        "obs.analysis.read_s": (stage_s["read"], "s"),
        "obs.analysis.spans_s": (stage_s["spans"], "s"),
        "obs.analysis.aggregate_s": (stage_s["aggregate"], "s"),
        "obs.analysis.render_s": (stage_s["render"], "s"),
        "obs.analysis.kevents_per_s": (events_total / analyze_s / 1e3, "kevents/s"),
    }


def probe_photonics() -> Metrics:
    def figures() -> None:
        for module in (fig04, fig05, fig06, fig07, fig08):
            module.render(module.compute())
        tables.render_all()

    figs_s, _ = _median_of(figures)
    return {"photonics.figs_s": (figs_s, "s")}


def run_all(recorder: SpanRecorder, seed: int, smoke: bool) -> Metrics:
    """Every standalone probe, each under its own root span."""
    size = SIZES["smoke" if smoke else "full"]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    metrics: Metrics = {}
    probes: tuple[tuple[str, Callable[[], Metrics]], ...] = (
        ("cli", lambda: probe_cli(size)),
        ("harness", lambda: probe_harness(recorder, seed, size)),
        ("topology", lambda: probe_topology_routing(size)),
        ("traffic", lambda: probe_traffic(seed, size)),
        ("sim", lambda: probe_sim_kernels(seed, size)),
        ("faults", lambda: probe_faults(seed, size)),
        ("obs", lambda: probe_obs(recorder, seed, size)),
        ("photonics", probe_photonics),
    )
    for name, probe in probes:
        with recorder.span(f"probe.{name}", "bench"):
            metrics.update(probe())
    return metrics
